"""Property tests for limit-order-book invariants (hypothesis).

The book's hot-path representation is deliberately clever -- a FIFO
cursor with deferred compaction inside :class:`PriceLevel`, a lazy
best-price heap and a creation-invalidated depth cache inside
:class:`BookSide`.  These properties pin the semantics to a naive
reference model under arbitrary interleavings of add / cancel /
pop-front, so any future optimization that changes observable behavior
fails here rather than in a macro benchmark.
"""

from __future__ import annotations

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.book import LimitOrderBook
from repro.core.order import Order
from repro.core.types import OrderType, Side

# CI runners are shared and slow; wall-clock deadlines would flake.
settings.register_profile("book", deadline=None, max_examples=60)
settings.load_profile("book")


def make_order(uid, side=Side.BUY, price=10_000, quantity=10, timestamp=0):
    return Order(
        client_order_id=uid,
        participant_id=f"p{uid % 5}",
        symbol="S",
        side=side,
        order_type=OrderType.LIMIT,
        quantity=quantity,
        limit_price=price,
        gateway_id=f"g{uid % 3}",
        gateway_timestamp=timestamp,
        gateway_seq=uid,
    )


class ReferencePriceLevel:
    """The pre-optimization PriceLevel semantics: a plain sorted list
    with ``pop(0)``, ties inserted after equal keys (bisect_right)."""

    def __init__(self):
        self.entries = []  # (priority_key, order), sorted by key, stable

    def add(self, order):
        key = order.priority_key()
        index = bisect.bisect_right([k for k, _ in self.entries], key)
        self.entries.insert(index, (key, order))

    def pop_front(self):
        return self.entries.pop(0)[1]

    def remove(self, order):
        for i, (_, candidate) in enumerate(self.entries):
            if candidate is order:
                del self.entries[i]
                return
        raise ValueError(order)

    @property
    def orders(self):
        return [order for _, order in self.entries]

    @property
    def total_quantity(self):
        return sum(order.remaining for order in self.orders)


# An op sequence: add with (timestamp, quantity) draws, or pop/cancel
# with an index draw used to pick among live orders at apply time.
op_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(min_value=0, max_value=20),  # timestamp (collisions likely)
            st.integers(min_value=1, max_value=50),  # quantity
        ),
        st.tuples(st.just("pop"), st.just(0), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6), st.just(0)),
    ),
    min_size=1,
    max_size=80,
)


def _book_with_level():
    """A book and its one bid level at 10_000, where every op rests."""
    book = LimitOrderBook("S")
    return book, book.bids.new_level(10_000)


@given(ops=op_strategy)
def test_price_level_matches_reference_model(ops):
    """The cursor/compaction PriceLevel, filled through the book's one
    insert (``rest``), is observably identical to the naive
    sorted-list-with-pop(0) model under any interleaving."""
    book, level = _book_with_level()
    reference = ReferencePriceLevel()
    uid = 0
    for op, a, b in ops:
        if op == "add":
            uid += 1
            order = make_order(uid, timestamp=a, quantity=b)
            book.add_resting(order)
            reference.add(order)
        elif op == "pop":
            if reference.entries:
                assert level.pop_front() is reference.pop_front()
        else:  # cancel
            live = reference.orders
            if live:
                victim = live[a % len(live)]
                level.remove(victim)
                reference.remove(victim)
        assert level.orders == reference.orders
        assert level.total_quantity == reference.total_quantity
        assert len(level) == len(reference.orders)
        assert level.empty == (not reference.entries)
        if reference.entries:
            assert level.front() is reference.orders[0]


@given(ops=op_strategy)
def test_price_level_quantity_invariant(ops):
    """total_quantity == sum(remaining) after arbitrary interleavings,
    including partial fills accounted through the book's fill_front()."""
    book, level = _book_with_level()
    live = []
    uid = 0
    for op, a, b in ops:
        if op == "add":
            uid += 1
            order = make_order(uid, timestamp=a, quantity=b)
            book.add_resting(order)
            live.append(order)
        elif op == "pop":
            if live:
                order = level.pop_front()
                live.remove(order)
        else:
            if live:
                victim = live[a % len(live)]
                level.remove(victim)
                live.remove(victim)
        # Partially fill the front order every step to exercise fill_front().
        if not level.empty and level.front().remaining > 1:
            book.fill_front(level, make_order(0, side=Side.SELL, quantity=1))
        assert level.total_quantity == sum(order.remaining for order in live)


book_ops = st.lists(
    st.tuples(
        st.sampled_from(["add_bid", "add_ask", "cancel"]),
        st.integers(min_value=0, max_value=14),  # price bucket
        st.integers(min_value=1, max_value=40),  # quantity
        st.integers(min_value=0, max_value=10**6),  # cancel pick
    ),
    min_size=1,
    max_size=80,
)


def _apply_book_ops(ops):
    book = LimitOrderBook("S")
    live = []
    uid = 0
    for op, bucket, quantity, pick in ops:
        if op == "cancel":
            if live:
                victim = live[pick % len(live)]
                assert book.cancel(victim.participant_id, victim.client_order_id) is victim
                live.remove(victim)
            continue
        uid += 1
        # Keep the sides non-crossing: bids below 10_000, asks above.
        if op == "add_bid":
            order = make_order(uid, side=Side.BUY, price=9_985 + bucket, quantity=quantity)
        else:
            order = make_order(uid, side=Side.SELL, price=10_001 + bucket, quantity=quantity)
        book.add_resting(order)
        live.append(order)
    return book, live


@given(ops=book_ops)
def test_depth_is_strictly_best_first(ops):
    book, live = _apply_book_ops(ops)
    bids, asks = book.depth_snapshot(max_levels=100)
    bid_prices = [price for price, _ in bids]
    ask_prices = [price for price, _ in asks]
    assert bid_prices == sorted(bid_prices, reverse=True)
    assert ask_prices == sorted(ask_prices)
    assert len(set(bid_prices)) == len(bid_prices)
    assert len(set(ask_prices)) == len(ask_prices)
    # Depth tuples agree with ground truth per price and in aggregate.
    for side, quotes in ((Side.BUY, bids), (Side.SELL, asks)):
        truth = {}
        for order in live:
            if order.side is side:
                truth[order.limit_price] = truth.get(order.limit_price, 0) + order.remaining
        assert dict(quotes) == truth
        assert book.side(side).total_volume() == sum(truth.values())
        assert all(quantity > 0 for _, quantity in quotes)


@given(ops=book_ops, pick=st.integers(min_value=0, max_value=10**6))
def test_cancel_then_readd_round_trip(ops, pick):
    """Cancelling an order and re-adding it (same priority key) restores
    the book exactly: depth, resting count, and within-level order."""
    book, live = _apply_book_ops(ops)
    if not live:
        return
    order = live[pick % len(live)]

    def fingerprint():
        side = book.side(order.side)
        level = side.level_at(order.limit_price)
        queue = [o.client_order_id for o in level.orders] if level is not None else []
        return book.depth_snapshot(max_levels=100), book.resting_count(), queue

    before = fingerprint()
    cancelled = book.cancel(order.participant_id, order.client_order_id)
    assert cancelled is order
    assert not book.is_resting(order.participant_id, order.client_order_id)
    book.add_resting(order)
    assert book.is_resting(order.participant_id, order.client_order_id)
    assert fingerprint() == before
