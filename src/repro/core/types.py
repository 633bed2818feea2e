"""Core domain types and identifiers.

Prices are integer *ticks* (e.g. cents) and quantities integer shares:
exchanges do not do floating-point arithmetic on money, and neither do
we.  Timestamps everywhere are integer nanoseconds on some clock; which
clock is part of each field's name (``*_local`` = the stamping host's
disciplined clock, ``*_true`` = simulation ground truth, used only for
metrics).
"""

from __future__ import annotations

import enum

#: Type aliases used across the package (documentation aliases; Python
#: ints/strs at runtime).
OrderId = int
Price = int
Quantity = int
Symbol = str
ParticipantId = str
GatewayId = str


class Side(enum.Enum):
    """Which side of the book an order rests on / takes from."""

    BUY = "buy"
    SELL = "sell"

    @property
    def opposite(self) -> "Side":
        return Side.SELL if self is Side.BUY else Side.BUY

    def __str__(self) -> str:
        return self.value


class OrderType(enum.Enum):
    """Supported order types (paper §2.1: limit and market orders)."""

    LIMIT = "limit"
    MARKET = "market"

    def __str__(self) -> str:
        return self.value


class TimeInForce(enum.Enum):
    """How long an unmatched order remains working.

    The paper's deployments used resting limit orders (GTC).  IOC is
    implemented as an extension (DESIGN.md §6) and exercised by tests
    and the matching-policy ablation.
    """

    GTC = "good-till-cancel"
    IOC = "immediate-or-cancel"

    def __str__(self) -> str:
        return self.value


class OrderStatus(enum.Enum):
    """Lifecycle states reported in confirmations."""

    ACCEPTED = "accepted"
    PARTIALLY_FILLED = "partially_filled"
    FILLED = "filled"
    CANCELLED = "cancelled"
    REJECTED = "rejected"

    def __str__(self) -> str:
        return self.value


class RejectReason(enum.Enum):
    """Why a gateway or the engine refused an order."""

    UNKNOWN_PARTICIPANT = "unknown_participant"
    BAD_CREDENTIALS = "bad_credentials"
    UNKNOWN_SYMBOL = "unknown_symbol"
    INVALID_QUANTITY = "invalid_quantity"
    INVALID_PRICE = "invalid_price"
    MISSING_LIMIT_PRICE = "missing_limit_price"
    UNEXPECTED_LIMIT_PRICE = "unexpected_limit_price"
    NO_LIQUIDITY = "no_liquidity"
    UNKNOWN_ORDER = "unknown_order"
    DUPLICATE_ORDER_ID = "duplicate_order_id"

    def __str__(self) -> str:
        return self.value
