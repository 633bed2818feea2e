"""Tests for the limit order book."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.book import LimitOrderBook, PriceLevel
from repro.core.matching import MatchingEngineCore
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.types import OrderType, Side


def order(coid, side, price, qty=10, ts=None, participant="p", seq=None):
    return Order(
        client_order_id=coid,
        participant_id=participant,
        symbol="S",
        side=side,
        order_type=OrderType.LIMIT,
        quantity=qty,
        limit_price=price,
        gateway_id="g",
        gateway_timestamp=ts if ts is not None else coid,
        gateway_seq=seq if seq is not None else coid,
    )


@pytest.fixture
def book():
    return LimitOrderBook("S")


class TestBestPrices:
    def test_empty_book(self, book):
        assert book.best_bid() is None
        assert book.best_ask() is None
        assert book.spread() is None

    def test_best_bid_is_highest(self, book):
        for coid, price in enumerate([100, 105, 95]):
            book.add_resting(order(coid, Side.BUY, price))
        assert book.best_bid() == 105

    def test_best_ask_is_lowest(self, book):
        for coid, price in enumerate([110, 108, 115]):
            book.add_resting(order(coid, Side.SELL, price))
        assert book.best_ask() == 108

    def test_spread(self, book):
        book.add_resting(order(1, Side.BUY, 100))
        book.add_resting(order(2, Side.SELL, 103))
        assert book.spread() == 3


class TestCrosses:
    """The crossing rule is the kernel's one inline test against the
    best opposite level; the book's part is the best-price query."""

    @staticmethod
    def run(*orders):
        core = MatchingEngineCore(["S"], PortfolioMatrix())
        stats = core.process_batch(list(orders), list(range(len(orders))), lambda *trade: None)
        return stats.traded_qty, core.books["S"]

    def test_limit_buy_crosses_at_or_above_ask(self):
        for limit, crosses in ((100, True), (101, True), (99, False)):
            traded, book = self.run(order(1, Side.SELL, 100), order(2, Side.BUY, limit))
            assert traded == (10 if crosses else 0)
            assert book.best_ask() == (None if crosses else 100)
            assert book.best_bid() == (None if crosses else 99)

    def test_limit_sell_crosses_at_or_below_bid(self):
        for limit, crosses in ((100, True), (99, True), (101, False)):
            traded, book = self.run(order(1, Side.BUY, 100), order(2, Side.SELL, limit))
            assert traded == (10 if crosses else 0)
            assert book.best_bid() == (None if crosses else 100)
            assert book.best_ask() == (None if crosses else 101)

    def test_market_crosses_nonempty_opposite(self):
        def market_buy():
            incoming = order(2, Side.BUY, None)
            incoming.order_type = OrderType.MARKET
            return incoming

        assert self.run(market_buy())[0] == 0
        traded, book = self.run(order(1, Side.SELL, 100), market_buy())
        assert traded == 10
        assert book.best_ask() is None and book.best_bid() is None


class TestTimestampPriority:
    def test_fifo_within_level_by_timestamp(self, book):
        book.add_resting(order(1, Side.BUY, 100, ts=50))
        book.add_resting(order(2, Side.BUY, 100, ts=30))  # earlier stamp, later arrival
        level = book.bids.best_level()
        assert [o.client_order_id for o in level.orders] == [2, 1]

    def test_equal_timestamps_break_by_seq(self, book):
        book.add_resting(order(1, Side.BUY, 100, ts=10, seq=2))
        book.add_resting(order(2, Side.BUY, 100, ts=10, seq=1))
        level = book.bids.best_level()
        assert [o.client_order_id for o in level.orders] == [2, 1]

    def test_unstamped_order_rejected(self, book):
        bare = order(1, Side.BUY, 100)
        bare.gateway_timestamp = None
        with pytest.raises(ValueError):
            book.add_resting(bare)


class TestCancel:
    def test_cancel_removes_order(self, book):
        book.add_resting(order(1, Side.BUY, 100))
        cancelled = book.cancel("p", 1)
        assert cancelled.client_order_id == 1
        assert book.best_bid() is None
        assert book.resting_count() == 0

    def test_cancel_unknown_returns_none(self, book):
        assert book.cancel("p", 99) is None

    def test_cancel_middle_of_level(self, book):
        for coid in (1, 2, 3):
            book.add_resting(order(coid, Side.BUY, 100))
        book.cancel("p", 2)
        level = book.bids.best_level()
        assert [o.client_order_id for o in level.orders] == [1, 3]
        assert level.total_quantity == 20

    def test_cancel_then_best_falls_back(self, book):
        book.add_resting(order(1, Side.BUY, 105))
        book.add_resting(order(2, Side.BUY, 100))
        book.cancel("p", 1)
        assert book.best_bid() == 100

    def test_duplicate_resting_key_rejected(self, book):
        book.add_resting(order(1, Side.BUY, 100))
        with pytest.raises(ValueError):
            book.add_resting(order(1, Side.BUY, 101))

    def test_is_resting(self, book):
        book.add_resting(order(1, Side.BUY, 100))
        assert book.is_resting("p", 1)
        assert not book.is_resting("p", 2)


class TestDepth:
    def test_depth_snapshot_ordering(self, book):
        for coid, price in enumerate([100, 99, 98]):
            book.add_resting(order(coid, Side.BUY, price, qty=10))
        for coid, price in enumerate([101, 102, 103], start=10):
            book.add_resting(order(coid, Side.SELL, price, qty=5))
        bids, asks = book.depth_snapshot(max_levels=2)
        assert bids == ((100, 10), (99, 10))
        assert asks == ((101, 5), (102, 5))

    def test_depth_aggregates_level_volume(self, book):
        book.add_resting(order(1, Side.BUY, 100, qty=10))
        book.add_resting(order(2, Side.BUY, 100, qty=15))
        bids, _ = book.depth_snapshot()
        assert bids == ((100, 25),)

    def test_side_volume_and_count(self, book):
        book.add_resting(order(1, Side.BUY, 100, qty=10))
        book.add_resting(order(2, Side.BUY, 99, qty=20))
        assert book.bids.total_volume() == 30
        assert book.bids.order_count() == 2


class TestPriceLevel:
    def test_pop_front_updates_quantity(self):
        level = PriceLevel(100)
        level.add(order(1, Side.BUY, 100, qty=10))
        level.add(order(2, Side.BUY, 100, qty=20))
        popped = level.pop_front()
        assert popped.client_order_id == 1
        assert level.total_quantity == 20

    def test_reduce_accounts_partial_fill(self):
        level = PriceLevel(100)
        level.add(order(1, Side.BUY, 100, qty=10))
        level.reduce(4)
        assert level.total_quantity == 6


@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from([Side.BUY, Side.SELL]),
            st.integers(90, 110),  # price
            st.integers(1, 50),  # qty
            st.integers(0, 1000),  # timestamp
        ),
        min_size=1,
        max_size=60,
    ),
    cancel_indices=st.sets(st.integers(0, 59)),
)
@settings(max_examples=200, deadline=None)
def test_book_invariants(entries, cancel_indices):
    """Resting volume, counts, and priority ordering stay consistent
    under arbitrary add/cancel sequences (non-crossing adds)."""
    book = LimitOrderBook("S")
    alive = {}
    for coid, (side, price, qty, ts) in enumerate(entries):
        # Keep the book from crossing: bids below 100, asks at or above.
        price = min(price, 99) if side is Side.BUY else max(price, 100)
        book.add_resting(order(coid, side, price, qty=qty, ts=ts))
        alive[coid] = (side, price, qty, ts)
    for index in cancel_indices:
        if index in alive:
            assert book.cancel("p", index) is not None
            del alive[index]

    assert book.resting_count() == len(alive)
    expected_bid_volume = sum(q for s, _, q, _ in alive.values() if s is Side.BUY)
    assert book.bids.total_volume() == expected_bid_volume

    bids, asks = book.depth_snapshot(max_levels=100)
    assert list(bids) == sorted(bids, key=lambda lv: -lv[0])
    assert list(asks) == sorted(asks, key=lambda lv: lv[0])

    # Within each level, orders are sorted by (timestamp, gateway, seq).
    for side_obj in (book.bids, book.asks):
        for level in side_obj._levels.values():
            keys = [o.priority_key() for o in level.orders]
            assert keys == sorted(keys)
