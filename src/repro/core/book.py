"""The limit order book (paper Fig. 3).

One book per symbol.  Bids are kept best-first by *descending* price,
asks by *ascending* price; within a price level, resting orders are
ordered by their gateway timestamps (the paper's tie-break rule), not
by arrival at the book -- the two differ exactly when inbound
unfairness lets a later-stamped order reach the engine first.

Implementation notes
--------------------
Price levels live in a dict keyed by price with a lazy heap of prices
for best-price lookup: O(1) amortized best, O(log n) insert, and
cancellation without heap surgery (emptied levels are skipped when
popped).  Within a level, orders are a list kept sorted by
``Order.priority_key()`` (built inline on insert: no call per resting
order) with an O(1) append fast path for the common in-order case.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Dict, List, Optional, Tuple

from repro.core.order import Order
from repro.core.types import Price, Quantity, Side, Symbol

_BUY = Side.BUY  # bound once: Enum member lookup costs ~15x a module global


class PriceLevel:
    """All resting orders at one price, in gateway-timestamp priority.

    The FIFO front is a cursor (``_head``) rather than ``pop(0)``: the
    matching loop consumes the front of busy levels constantly, and
    shifting the whole list per pop is O(n).  The consumed prefix is
    compacted away once it dominates the list, so memory stays bounded
    while every operation touches only the live region
    ``orders[_head:]`` (all bisects pass ``lo=_head``).
    """

    __slots__ = ("price", "_orders", "total_quantity", "_keys", "_head")

    #: Compact the consumed prefix once it is this long and at least
    #: half the backing list.
    _COMPACT_AT = 64

    def __init__(self, price: Price) -> None:
        self.price = price
        self._orders: List[Order] = []
        self._keys: List[tuple] = []
        self._head: int = 0
        self.total_quantity: Quantity = 0

    @property
    def orders(self) -> List[Order]:
        """The live resting orders, front first (a copy -- the consumed
        prefix before the cursor is internal)."""
        return self._orders[self._head:]

    def add(self, order: Order) -> None:
        """Insert in timestamp-priority position (append fast path)."""
        key = (order.gateway_timestamp, order.gateway_id, order.gateway_seq)
        if key[0] is None or key[2] is None:
            raise ValueError(f"order {order.client_order_id} has not been gateway-stamped")
        keys = self._keys
        if self._head >= len(keys) or key >= keys[-1]:
            self._orders.append(order)
            keys.append(key)
        else:
            index = bisect.bisect_right(keys, key, lo=self._head)
            self._orders.insert(index, order)
            keys.insert(index, key)
        self.total_quantity += order.remaining

    def remove(self, order: Order) -> None:
        """Remove a specific resting order (cancellation path).

        Located by bisecting the sorted key list, then an identity scan
        across the (usually single) entry sharing the key.
        """
        key = order.priority_key()
        index = bisect.bisect_left(self._keys, key, lo=self._head)
        end = len(self._orders)
        while index < end and self._keys[index] == key:
            if self._orders[index] is order:
                del self._orders[index]
                del self._keys[index]
                self.total_quantity -= order.remaining
                return
            index += 1
        raise ValueError(f"{order!r} is not resting in level {self.price}")

    def pop_front(self) -> Order:
        """Remove and return the highest-priority resting order."""
        head = self._head
        order = self._orders[head]
        head += 1
        if head >= self._COMPACT_AT and head * 2 >= len(self._orders):
            del self._orders[:head]
            del self._keys[:head]
            head = 0
        self._head = head
        self.total_quantity -= order.remaining
        return order

    def front(self) -> Order:
        """The highest-priority resting order (not removed)."""
        return self._orders[self._head]

    def reduce(self, quantity: Quantity) -> None:
        """Account a partial fill of the front order."""
        self.total_quantity -= quantity

    @property
    def empty(self) -> bool:
        return self._head >= len(self._orders)

    def __len__(self) -> int:
        return len(self._orders) - self._head

    def __repr__(self) -> str:
        return f"PriceLevel(price={self.price}, orders={len(self)}, qty={self.total_quantity})"


class BookSide:
    """One side of the book: levels plus a lazy best-price heap."""

    def __init__(self, side: Side) -> None:
        self.side = side
        self._levels: Dict[Price, PriceLevel] = {}
        # Min-heap of ``_sign * price``: bids are stored negated so the
        # best price pops first on either side.
        self._sign = -1 if side is _BUY else 1
        self._heap: List[int] = []
        # Best-first cache of level objects for depth(): only level
        # *creation* invalidates it.  Levels that empty or get deleted
        # stay in the cache harmlessly -- reads filter on ``empty`` and
        # quantities are read live -- and are purged at next rebuild.
        self._depth_cache: Optional[List[PriceLevel]] = None

    def add(self, order: Order) -> None:
        """Rest ``order`` on this side at its limit price."""
        price = order.limit_price
        if price is None:
            raise ValueError(f"cannot rest an order without a limit price: {order!r}")
        level = self._levels.get(price)
        if level is None:
            level = self._levels[price] = PriceLevel(price)
            heapq.heappush(self._heap, self._sign * price)
            self._depth_cache = None
        level.add(order)

    def best_level(self) -> Optional[PriceLevel]:
        """The best-priced non-empty level, or None."""
        heap, levels, sign = self._heap, self._levels, self._sign
        while heap:
            price = sign * heap[0]
            level = levels.get(price)
            if level is not None and level._head < len(level._orders):
                return level
            heapq.heappop(heap)
            if level is not None:
                del levels[price]
        return None

    def best_price(self) -> Optional[Price]:
        """The best price on this side, or None when empty."""
        level = self.best_level()
        return None if level is None else level.price

    def level_at(self, price: Price) -> Optional[PriceLevel]:
        level = self._levels.get(price)
        if level is None or level.empty:
            return None
        return level

    def remove(self, order: Order) -> None:
        """Remove a resting order (cancel); empty levels clean up lazily."""
        if order.limit_price is None:
            raise ValueError(f"resting order without limit price: {order!r}")
        level = self._levels.get(order.limit_price)
        if level is None:
            raise KeyError(f"no level at {order.limit_price} for {order!r}")
        level.remove(order)

    def depth(self, max_levels: int) -> Tuple[Tuple[Price, Quantity], ...]:
        """Best-first (price, total volume) pairs, up to ``max_levels``.

        Walks the cached best-first level list instead of re-sorting
        per snapshot; empty levels are skipped and quantities are read
        live, so the result is identical to a fresh sort.
        """
        if max_levels <= 0:
            return ()
        cache = self._depth_cache
        if cache is None:
            cache = sorted(
                self._levels.values(),
                key=lambda lv: lv.price,
                reverse=self.side is Side.BUY,
            )
            self._depth_cache = cache
        result = []
        for level in cache:
            if not level.empty:
                result.append((level.price, level.total_quantity))
                if len(result) >= max_levels:
                    break
        return tuple(result)

    def total_volume(self) -> Quantity:
        """Sum of resting volume on this side."""
        return sum(level.total_quantity for level in self._levels.values())

    def order_count(self) -> int:
        """Number of resting orders on this side."""
        return sum(len(level) for level in self._levels.values())

    def __repr__(self) -> str:
        return f"BookSide({self.side}, levels={len(self._levels)})"


class LimitOrderBook:
    """The full two-sided book for one symbol."""

    def __init__(self, symbol: Symbol) -> None:
        self.symbol = symbol
        self.bids = BookSide(Side.BUY)
        self.asks = BookSide(Side.SELL)
        #: (participant_id, client_order_id) -> resting Order; read-only to callers.
        self.resting: Dict[Tuple[str, int], Order] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def side(self, side: Side) -> BookSide:
        return self.bids if side is _BUY else self.asks

    def add_resting(self, order: Order, key: Optional[Tuple[str, int]] = None) -> None:
        """Rest a limit order's unmatched remainder (``key``: its :attr:`resting` key, if built)."""
        key = key or (order.participant_id, order.client_order_id)
        if key in self.resting:
            raise ValueError(f"order {key} is already resting in {self.symbol}")
        (self.bids if order.side is _BUY else self.asks).add(order)
        self.resting[key] = order

    def cancel(self, participant_id: str, client_order_id: int) -> Optional[Order]:
        """Remove and return a resting order; None if not resting."""
        order = self.resting.pop((participant_id, client_order_id), None)
        if order is not None:
            self.side(order.side).remove(order)
        return order

    def is_resting(self, participant_id: str, client_order_id: int) -> bool:
        """Whether the participant's order currently rests in this book."""
        return (participant_id, client_order_id) in self.resting

    def forget(self, order: Order) -> None:
        """Drop a fully-filled front order from the cancel index.

        The matching engine pops filled orders from levels directly;
        this keeps the cancel index consistent.
        """
        self.resting.pop((order.participant_id, order.client_order_id), None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def best_bid(self) -> Optional[Price]:
        return self.bids.best_price()

    def best_ask(self) -> Optional[Price]:
        return self.asks.best_price()

    def spread(self) -> Optional[int]:
        """Bid-ask spread, None when either side is empty."""
        bid, ask = self.best_bid(), self.best_ask()
        if bid is None or ask is None:
            return None
        return ask - bid

    def depth_snapshot(self, max_levels: int = 5) -> Tuple[tuple, tuple]:
        """(bids, asks) depth for snapshot dissemination."""
        return self.bids.depth(max_levels), self.asks.depth(max_levels)

    def resting_count(self) -> int:
        """Number of resting orders across both sides."""
        return len(self.resting)

    def __repr__(self) -> str:
        return (
            f"LimitOrderBook({self.symbol!r}, bid={self.best_bid()}, "
            f"ask={self.best_ask()}, resting={len(self.resting)})"
        )
