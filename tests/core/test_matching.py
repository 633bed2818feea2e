"""Tests for continuous price-time matching."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import MatchingEngineCore
from repro.core.messages import StampedCancel
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.types import OrderStatus, OrderType, RejectReason, Side, TimeInForce

_ids = itertools.count(1)


def order(side, qty, price=None, otype=None, participant="p1", ts=None, tif=TimeInForce.GTC):
    coid = next(_ids)
    if otype is None:
        otype = OrderType.LIMIT if price is not None else OrderType.MARKET
    return Order(
        client_order_id=coid,
        participant_id=participant,
        symbol="S",
        side=side,
        order_type=otype,
        quantity=qty,
        limit_price=price,
        time_in_force=tif,
        gateway_id="g",
        gateway_timestamp=ts if ts is not None else coid,
        gateway_seq=coid,
    )


@pytest.fixture
def core():
    portfolio = PortfolioMatrix(default_cash=1_000_000)
    for pid in ("p1", "p2", "p3"):
        portfolio.open_account(pid)
    return MatchingEngineCore(["S"], portfolio)


class TestLimitOrders:
    def test_non_crossing_limit_rests(self, core):
        result = core.process_order(order(Side.BUY, 10, price=100), now_local=0)
        assert result.confirmation.status is OrderStatus.ACCEPTED
        assert result.trades == []
        assert core.books["S"].best_bid() == 100

    def test_crossing_limit_trades_at_resting_price(self, core):
        core.process_order(order(Side.SELL, 10, price=100, participant="p2"), 0)
        result = core.process_order(order(Side.BUY, 10, price=105), 1)
        assert result.confirmation.status is OrderStatus.FILLED
        assert len(result.trades) == 1
        assert result.trades[0].price == 100  # resting price, not 105

    def test_partial_fill_rests_remainder(self, core):
        core.process_order(order(Side.SELL, 4, price=100, participant="p2"), 0)
        result = core.process_order(order(Side.BUY, 10, price=100), 1)
        assert result.confirmation.status is OrderStatus.PARTIALLY_FILLED
        assert result.confirmation.filled == 4
        assert result.confirmation.remaining == 6
        assert core.books["S"].best_bid() == 100

    def test_sweeps_multiple_levels(self, core):
        core.process_order(order(Side.SELL, 5, price=100, participant="p2"), 0)
        core.process_order(order(Side.SELL, 5, price=101, participant="p2"), 0)
        result = core.process_order(order(Side.BUY, 10, price=101), 1)
        assert result.confirmation.status is OrderStatus.FILLED
        assert [t.price for t in result.trades] == [100, 101]

    def test_price_priority_across_levels(self, core):
        core.process_order(order(Side.SELL, 5, price=102, participant="p2"), 0)
        core.process_order(order(Side.SELL, 5, price=100, participant="p3"), 0)
        result = core.process_order(order(Side.BUY, 5, price=105), 1)
        assert result.trades[0].seller == "p3"  # best price first

    def test_time_priority_within_level(self, core):
        core.process_order(order(Side.SELL, 5, price=100, participant="p2", ts=100), 0)
        core.process_order(order(Side.SELL, 5, price=100, participant="p3", ts=50), 0)
        result = core.process_order(order(Side.BUY, 5, price=100), 1)
        assert result.trades[0].seller == "p3"  # earlier gateway timestamp

    def test_no_self_crossing_restriction(self, core):
        """Course-style deployments allow self-trades; they net to zero."""
        core.process_order(order(Side.SELL, 5, price=100, participant="p1"), 0)
        result = core.process_order(order(Side.BUY, 5, price=100, participant="p1"), 1)
        assert len(result.trades) == 1
        assert core.portfolio.account("p1").position("S") == 0

    def test_ioc_remainder_cancelled(self, core):
        core.process_order(order(Side.SELL, 4, price=100, participant="p2"), 0)
        result = core.process_order(
            order(Side.BUY, 10, price=100, tif=TimeInForce.IOC), 1
        )
        assert result.confirmation.status is OrderStatus.PARTIALLY_FILLED
        assert result.confirmation.remaining == 0
        assert core.books["S"].best_bid() is None

    def test_ioc_no_fill_cancelled(self, core):
        result = core.process_order(order(Side.BUY, 10, price=90, tif=TimeInForce.IOC), 0)
        assert result.confirmation.status is OrderStatus.CANCELLED
        assert core.books["S"].resting_count() == 0


class TestMarketOrders:
    def test_market_fills_against_book(self, core):
        core.process_order(order(Side.SELL, 10, price=100, participant="p2"), 0)
        result = core.process_order(order(Side.BUY, 10), 1)
        assert result.confirmation.status is OrderStatus.FILLED
        assert result.trades[0].price == 100

    def test_market_empty_book_rejected(self, core):
        result = core.process_order(order(Side.BUY, 10), 0)
        assert result.confirmation.status is OrderStatus.REJECTED
        assert result.confirmation.reason is RejectReason.NO_LIQUIDITY

    def test_market_partial_fill_does_not_rest(self, core):
        core.process_order(order(Side.SELL, 4, price=100, participant="p2"), 0)
        result = core.process_order(order(Side.BUY, 10), 1)
        assert result.confirmation.status is OrderStatus.PARTIALLY_FILLED
        assert result.confirmation.remaining == 0
        assert core.books["S"].resting_count() == 0


class TestTradeEffects:
    def test_portfolio_settlement(self, core):
        core.process_order(order(Side.SELL, 10, price=100, participant="p2"), 0)
        core.process_order(order(Side.BUY, 10, price=100, participant="p1"), 1)
        assert core.portfolio.account("p1").position("S") == 10
        assert core.portfolio.account("p1").cash == 1_000_000 - 1_000
        assert core.portfolio.account("p2").position("S") == -10
        assert core.portfolio.account("p2").cash == 1_000_000 + 1_000

    def test_trade_confirmations_for_both_sides(self, core):
        core.process_order(order(Side.SELL, 10, price=100, participant="p2"), 0)
        result = core.process_order(order(Side.BUY, 10, price=100, participant="p1"), 1)
        participants = {tc.participant_id for tc in result.trade_confirmations}
        assert participants == {"p1", "p2"}
        buys = [tc for tc in result.trade_confirmations if tc.is_buy]
        assert len(buys) == 1 and buys[0].participant_id == "p1"

    def test_trade_ids_unique_and_increasing(self, core):
        core.process_order(order(Side.SELL, 5, price=100, participant="p2"), 0)
        core.process_order(order(Side.SELL, 5, price=101, participant="p2"), 0)
        result = core.process_order(order(Side.BUY, 10, price=101), 1)
        ids = [t.trade_id for t in result.trades]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)

    def test_aggressor_flag(self, core):
        core.process_order(order(Side.SELL, 5, price=100, participant="p2"), 0)
        result = core.process_order(order(Side.BUY, 5, price=100), 1)
        assert result.trades[0].aggressor_is_buy is True

    def test_last_trade_price_updates_reference(self, core):
        assert "S" not in core.last_trade_price
        core.process_order(order(Side.SELL, 5, price=100, participant="p2"), 0)
        core.process_order(order(Side.SELL, 5, price=101, participant="p2"), 0)
        core.process_order(order(Side.BUY, 10, price=101), 1)
        assert core.last_trade_price["S"] == 101  # the sweep's last fill

    def test_resting_orders_set_no_last_trade_price(self, core):
        core.process_order(order(Side.BUY, 5, price=98), 0)
        core.process_order(order(Side.SELL, 5, price=104, participant="p2"), 0)
        assert "S" not in core.last_trade_price


class TestRejections:
    def test_unknown_symbol(self, core):
        bad = order(Side.BUY, 10, price=100)
        bad.symbol = "UNKNOWN"
        result = core.process_order(bad, 0)
        assert result.confirmation.reason is RejectReason.UNKNOWN_SYMBOL

    def test_duplicate_resting_client_id(self, core):
        first = order(Side.BUY, 10, price=90)
        result1 = core.process_order(first, 0)
        assert result1.confirmation.status is OrderStatus.ACCEPTED
        dup = order(Side.BUY, 10, price=91)
        dup.client_order_id = first.client_order_id
        result2 = core.process_order(dup, 1)
        assert result2.confirmation.reason is RejectReason.DUPLICATE_ORDER_ID


class TestCancels:
    def _cancel(self, target: Order) -> StampedCancel:
        return StampedCancel(
            participant_id=target.participant_id,
            client_order_id=target.client_order_id,
            symbol=target.symbol,
            gateway_id="g",
            gateway_timestamp=10**9,
            gateway_seq=10**6,
        )

    def test_cancel_resting_order(self, core):
        resting = order(Side.BUY, 10, price=95)
        core.process_order(resting, 0)
        confirmation = core.process_cancel(self._cancel(resting), 1)
        assert confirmation.status is OrderStatus.CANCELLED
        assert core.books["S"].resting_count() == 0

    def test_cancel_unknown_rejected(self, core):
        fake = order(Side.BUY, 10, price=95)
        confirmation = core.process_cancel(self._cancel(fake), 1)
        assert confirmation.status is OrderStatus.REJECTED
        assert confirmation.reason is RejectReason.UNKNOWN_ORDER

    def test_cancel_after_fill_rejected(self, core):
        resting = order(Side.SELL, 5, price=100, participant="p2")
        core.process_order(resting, 0)
        core.process_order(order(Side.BUY, 5, price=100), 1)
        confirmation = core.process_cancel(self._cancel(resting), 2)
        assert confirmation.status is OrderStatus.REJECTED

    def test_cancel_partial_fill_reports_filled_qty(self, core):
        resting = order(Side.SELL, 10, price=100, participant="p2")
        core.process_order(resting, 0)
        core.process_order(order(Side.BUY, 4, price=100), 1)
        confirmation = core.process_cancel(self._cancel(resting), 2)
        assert confirmation.status is OrderStatus.CANCELLED
        assert confirmation.filled == 4
        assert confirmation.remaining == 6


class TestSnapshot:
    def test_snapshot_structure(self, core):
        core.process_order(order(Side.BUY, 5, price=99), 0)
        core.process_order(order(Side.SELL, 7, price=101, participant="p2"), 0)
        snapshot = core.snapshot("S", now_local=42)
        assert snapshot.bids == ((99, 5),)
        assert snapshot.asks == ((101, 7),)
        assert snapshot.taken_local == 42
        assert snapshot.spread == 2
        assert snapshot.mid_price == 100.0

    def test_full_fill_leaves_the_level_depth_of_what_rests(self, core):
        # A fully filled front order used to stay in its level's depth:
        # ((100, 20),) with one order resting.
        core.process_order(order(Side.SELL, 10, price=100, participant="p2"), 0)
        core.process_order(order(Side.SELL, 10, price=100, participant="p3"), 0)
        core.process_order(order(Side.BUY, 10, price=100), 1)
        book = core.books["S"]
        assert book.depth_snapshot() == ((), ((100, 10),))
        assert book.resting_count() == 1


@given(
    flow=st.lists(
        st.tuples(
            st.sampled_from([Side.BUY, Side.SELL]),
            st.integers(1, 30),  # qty
            st.one_of(st.none(), st.integers(95, 105)),  # None = market
            st.sampled_from(["p1", "p2", "p3"]),
        ),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=200, deadline=None)
def test_conservation_properties(flow):
    """Shares and cash are conserved; remaining quantities never negative."""
    portfolio = PortfolioMatrix(default_cash=10**9)
    for pid in ("p1", "p2", "p3"):
        portfolio.open_account(pid)
    core = MatchingEngineCore(["S"], portfolio)
    for i, (side, qty, price, pid) in enumerate(flow):
        o = Order(
            client_order_id=1_000_000 + i,
            participant_id=pid,
            symbol="S",
            side=side,
            order_type=OrderType.LIMIT if price is not None else OrderType.MARKET,
            quantity=qty,
            limit_price=price,
            gateway_id="g",
            gateway_timestamp=i,
            gateway_seq=i,
        )
        result = core.process_order(o, now_local=i)
        assert o.remaining >= 0
        assert result.confirmation.filled + o.remaining == qty
        # Every trade produced exactly two confirmations.
        assert len(result.trade_confirmations) == 2 * len(result.trades)

    assert portfolio.total_shares("S") == 0
    assert portfolio.total_cash() == 3 * 10**9
    # The book never crosses itself after processing settles.
    bid, ask = core.books["S"].best_bid(), core.books["S"].best_ask()
    if bid is not None and ask is not None:
        assert bid < ask
