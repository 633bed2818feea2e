"""Orders and their validation.

An :class:`Order` is created participant-side, then annotated by the
gateway (globally synchronized timestamp, gateway id, per-gateway
sequence number) before being forwarded to the central exchange server
(paper §2.1, Fig. 2 step 2).  The gateway timestamp is the key to
everything: the sequencer orders by it, the matching engine breaks
price ties by it, and the inbound unfairness ratio is defined against
it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.core.types import (
    OrderType,
    Price,
    Quantity,
    RejectReason,
    Side,
    Symbol,
    TimeInForce,
)


class OrderValidationError(ValueError):
    """An order failed gateway-side validation."""

    def __init__(self, reason: RejectReason, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


@dataclass(eq=False, slots=True)
class Order:
    """A participant's order, progressively annotated along Fig. 2.

    ``eq=False``: an order is an entity with identity, not a value --
    two distinct orders can carry identical fields (ROS replicas), and
    book operations (cancel lookup, level removal) want identity
    semantics rather than a 12-field comparison per candidate.

    ``slots=True``: one fixed-layout record per order and no instance
    dictionary -- half the objects per resting order for the cyclic
    collector to walk, and a typo'd attribute raises instead of
    silently growing the record.

    Participant-set fields
    ----------------------
    client_order_id:
        Unique per participant; ROS replicas of one order share it.
    participant_id, symbol, side, order_type, quantity, limit_price,
    time_in_force:
        The economic content.

    Gateway-set fields
    ------------------
    gateway_id:
        Which gateway stamped (this replica of) the order.
    gateway_timestamp:
        Globally synchronized timestamp assigned by the gateway's order
        handler -- the exchange's notion of *when the order happened*.
    gateway_seq:
        Per-gateway monotone counter, the deterministic tie-breaker for
        equal timestamps.

    Engine-set fields
    -----------------
    remaining:
        Unfilled quantity; decremented as trades execute.

    Metrics-only fields (ground truth, invisible to exchange logic)
    ---------------------------------------------------------------
    submitted_true, stamped_true:
        True simulation times of submission and gateway stamping.
    """

    client_order_id: int
    participant_id: str
    symbol: Symbol
    side: Side
    order_type: OrderType
    quantity: Quantity
    limit_price: Optional[Price] = None
    time_in_force: TimeInForce = TimeInForce.GTC

    gateway_id: Optional[str] = None
    gateway_timestamp: Optional[int] = None
    gateway_seq: Optional[int] = None

    remaining: Quantity = field(default=0)

    submitted_true: int = -1
    stamped_true: int = -1

    def __post_init__(self) -> None:
        if self.remaining == 0:
            self.remaining = self.quantity

    # ------------------------------------------------------------------
    # Book-keeping helpers
    # ------------------------------------------------------------------
    @property
    def is_buy(self) -> bool:
        return self.side is Side.BUY

    @property
    def is_filled(self) -> bool:
        return self.remaining == 0

    def stamped_clone(
        self, gateway_id: str, gateway_timestamp: int, gateway_seq: int, stamped_true: int
    ) -> "Order":
        """A copy annotated with the gateway stamp (Fig. 2 step 2).

        Replaces ``dataclasses.replace`` on the order hot path: one
        store per field instead of re-running field collection and
        ``__init__``.  The copy is written out by hand, so a test walks
        ``dataclasses.fields(Order)`` to catch a field added later.
        """
        clone = Order.__new__(Order)
        clone.client_order_id = self.client_order_id
        clone.participant_id = self.participant_id
        clone.symbol = self.symbol
        clone.side = self.side
        clone.order_type = self.order_type
        clone.quantity = self.quantity
        clone.limit_price = self.limit_price
        clone.time_in_force = self.time_in_force
        clone.remaining = self.remaining
        clone.submitted_true = self.submitted_true
        clone.gateway_id = gateway_id
        clone.gateway_timestamp = gateway_timestamp
        clone.gateway_seq = gateway_seq
        clone.stamped_true = stamped_true
        return clone

    def priority_key(self) -> tuple:
        """Sequencing/tie-break key: earlier timestamp wins, then seq."""
        if self.gateway_timestamp is None or self.gateway_seq is None:
            raise ValueError(f"order {self.client_order_id} has not been gateway-stamped")
        return (self.gateway_timestamp, self.gateway_id, self.gateway_seq)

    def fill(self, quantity: Quantity) -> None:
        """Consume ``quantity`` shares of the remaining amount."""
        if quantity <= 0:
            raise ValueError(f"fill quantity must be positive, got {quantity}")
        if quantity > self.remaining:
            raise ValueError(
                f"cannot fill {quantity} of order {self.client_order_id}: only {self.remaining} remain"
            )
        self.remaining -= quantity

    def __repr__(self) -> str:
        price = f"@{self.limit_price}" if self.limit_price is not None else "@mkt"
        return (
            f"Order({self.participant_id}/{self.client_order_id} "
            f"{self.side} {self.remaining}/{self.quantity} {self.symbol}{price})"
        )


def validate_order(order: Order, known_symbols=None, max_quantity: int = 1_000_000) -> None:
    """Gateway-side order validation (paper: the order handler
    "authenticates and validates orders received from the participants").

    Raises :class:`OrderValidationError` with a specific
    :class:`~repro.core.types.RejectReason` on the first rule violated.
    Authentication itself lives in :mod:`repro.core.auth`.
    """
    if order.quantity <= 0 or order.quantity > max_quantity:
        raise OrderValidationError(
            RejectReason.INVALID_QUANTITY,
            f"quantity {order.quantity} outside (0, {max_quantity}]",
        )
    if known_symbols is not None and order.symbol not in known_symbols:
        raise OrderValidationError(
            RejectReason.UNKNOWN_SYMBOL, f"symbol {order.symbol!r} is not listed"
        )
    if order.order_type is OrderType.LIMIT:
        if order.limit_price is None:
            raise OrderValidationError(
                RejectReason.MISSING_LIMIT_PRICE, "limit order without a limit price"
            )
        if order.limit_price <= 0:
            raise OrderValidationError(
                RejectReason.INVALID_PRICE, f"limit price {order.limit_price} must be positive"
            )
    elif order.order_type is OrderType.MARKET:
        if order.limit_price is not None:
            raise OrderValidationError(
                RejectReason.UNEXPECTED_LIMIT_PRICE,
                f"market order carries limit price {order.limit_price}",
            )


class ClientOrderIdAllocator:
    """Process-wide unique client order ids.

    Participants allocate ids from disjoint ranges so that ROS replica
    deduplication (keyed by ``(participant_id, client_order_id)``)
    never collides across participants, while ids remain small ints.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next_id(self) -> int:
        return next(self._counter)
