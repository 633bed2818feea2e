"""Differential test: the matching engine vs a naive reference matcher.

The reference implementation below is deliberately simple (linear
scans over flat lists, no heaps, no price levels) and was written
independently of :mod:`repro.core.matching`.  Hypothesis drives both
with identical order flow and requires identical trades -- same
counterparties, prices, and quantities in the same sequence -- the
same last trade price and running fill totals after every order, plus
identical final book contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import MatchingEngineCore
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.types import OrderType, Side


@dataclass
class _RefOrder:
    coid: int
    participant: str
    side: Side
    qty: int
    price: Optional[int]  # None = market
    ts: int
    seq: int


@dataclass
class ReferenceMatcher:
    """Continuous price-time matching, the slow obvious way."""

    bids: List[_RefOrder] = field(default_factory=list)
    asks: List[_RefOrder] = field(default_factory=list)
    trades: List[Tuple[str, str, int, int]] = field(default_factory=list)

    def _best(self, side_list: List[_RefOrder], want_max: bool) -> Optional[_RefOrder]:
        if not side_list:
            return None
        # Best price; ties by (timestamp, seq).
        key = (lambda o: (-o.price, o.ts, o.seq)) if want_max else (lambda o: (o.price, o.ts, o.seq))
        return min(side_list, key=key)

    def process(self, order: _RefOrder) -> None:
        opposite = self.asks if order.side is Side.BUY else self.bids
        while order.qty > 0:
            best = self._best(opposite, want_max=(order.side is Side.SELL))
            if best is None:
                break
            if order.price is not None:
                if order.side is Side.BUY and best.price > order.price:
                    break
                if order.side is Side.SELL and best.price < order.price:
                    break
            traded = min(order.qty, best.qty)
            buyer = order.participant if order.side is Side.BUY else best.participant
            seller = best.participant if order.side is Side.BUY else order.participant
            self.trades.append((buyer, seller, best.price, traded))
            order.qty -= traded
            best.qty -= traded
            if best.qty == 0:
                opposite.remove(best)
        if order.qty > 0 and order.price is not None:
            own = self.bids if order.side is Side.BUY else self.asks
            own.append(order)

    def book_contents(self):
        snap = lambda side: sorted((o.coid, o.qty, o.price) for o in side)
        return snap(self.bids), snap(self.asks)

    def running_state(self):
        """(last trade price, trades, shares, notional) so far."""
        return (
            self.trades[-1][2] if self.trades else None,
            len(self.trades),
            sum(qty for *_, qty in self.trades),
            sum(price * qty for *_, price, qty in self.trades),
        )


def _running_state(core: MatchingEngineCore):
    return (
        core.last_trade_price.get("S"),
        core.trades_executed,
        core.traded_quantity,
        core.traded_notional,
    )


def _engine_book_contents(core: MatchingEngineCore):
    book = core.books["S"]
    result = []
    for side in (book.bids, book.asks):
        entries = []
        for level in side._levels.values():
            for order in level.orders:
                entries.append((order.client_order_id, order.remaining, order.limit_price))
        result.append(sorted(entries))
    return tuple(result)


@given(
    flow=st.lists(
        st.tuples(
            st.sampled_from([Side.BUY, Side.SELL]),
            st.integers(1, 40),  # qty
            st.one_of(st.none(), st.integers(95, 105)),  # price (None = market)
            st.sampled_from(["p1", "p2", "p3"]),
            st.integers(0, 20),  # gateway timestamp (ties exercised)
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=300, deadline=None)
def test_engine_matches_reference(flow):
    def fresh_core():
        portfolio = PortfolioMatrix(default_cash=10**9)
        for pid in ("p1", "p2", "p3"):
            portfolio.open_account(pid)
        return MatchingEngineCore(["S"], portfolio)

    def sink_into(trades):
        return lambda trade_id, price, qty, buyer, seller, *rest: trades.append(
            (buyer.participant_id, seller.participant_id, price, qty)
        )

    # Feed 1: one process_order call per order.  Feed 2: process_batch,
    # once per order (so its running state is visible after each) and
    # once with the whole flow as a single batch.
    scalar, batched, whole = fresh_core(), fresh_core(), fresh_core()
    scalar_trades, batch_trades, whole_trades = [], [], []
    orders = []
    reference = ReferenceMatcher()
    for i, (side, qty, price, pid, ts) in enumerate(flow):
        spec = dict(
            client_order_id=1_000 + i,
            participant_id=pid,
            symbol="S",
            side=side,
            order_type=OrderType.LIMIT if price is not None else OrderType.MARKET,
            quantity=qty,
            limit_price=price,
            gateway_id="g",
            gateway_timestamp=ts,
            gateway_seq=i,
        )
        orders.append(Order(**spec))
        reference.process(
            _RefOrder(coid=1_000 + i, participant=pid, side=side, qty=qty, price=price, ts=ts, seq=i)
        )
        result = scalar.process_order(Order(**spec), now_local=i)
        scalar_trades.extend((t.buyer, t.seller, t.price, t.quantity) for t in result.trades)
        batched.process_batch([Order(**spec)], [i], on_trade=sink_into(batch_trades))
        # The independent reference, not the other feed, pins each of them.
        for core, trades in ((scalar, scalar_trades), (batched, batch_trades)):
            assert trades == reference.trades
            assert _running_state(core) == reference.running_state()
    whole.process_batch(orders, list(range(len(orders))), on_trade=sink_into(whole_trades))

    assert whole_trades == reference.trades
    assert _running_state(whole) == reference.running_state()
    for core in (scalar, batched, whole):
        assert _engine_book_contents(core) == tuple(reference.book_contents())
