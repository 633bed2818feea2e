"""Wire messages exchanged between participants, gateways, and the
central exchange server.

These are the payloads carried by :class:`repro.sim.network.Link`; the
set mirrors the numbered arrows of Fig. 2 in the paper:

1. ``NewOrderRequest`` / ``CancelRequest``  participant -> gateway
2. ``StampedOrder`` / ``StampedCancel``     gateway -> engine
4./5. ``OrderConfirmation``                 engine -> gateway -> participant
6./7. ``TradeConfirmation``                 engine -> gateway -> participant
   ``MarketDataPiece``                      engine -> gateway (H/R buffer)
   ``MarketDataDelivery``                   gateway -> participant
   ``HoldReleaseReport``                    gateway -> engine (batched; outbound DDP only)
   ``SubscriptionRequest``                  participant -> gateway
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.marketdata import MarketDataPiece
from repro.core.order import Order
from repro.core.types import OrderStatus, Price, Quantity, RejectReason, Symbol


@dataclass(slots=True)
class NewOrderRequest:
    """A participant submits (one replica of) an order to a gateway."""

    order: Order
    auth_token: str


@dataclass(slots=True)
class CancelRequest:
    """A participant asks to cancel a previously submitted order."""

    participant_id: str
    client_order_id: int
    symbol: Symbol
    auth_token: str


@dataclass(slots=True)
class StampedOrder:
    """A gateway-stamped order replica on its way to the engine."""

    order: Order


@dataclass(slots=True)
class StampedCancel:
    """A gateway-stamped cancel on its way to the engine."""

    participant_id: str
    client_order_id: int
    symbol: Symbol
    gateway_id: str
    gateway_timestamp: int
    gateway_seq: int
    stamped_true: int = -1

    def priority_key(self) -> tuple:
        """Sequencing key -- cancels are sequenced like orders."""
        return (self.gateway_timestamp, self.gateway_id, self.gateway_seq)


@dataclass(slots=True)
class OrderConfirmation:
    """Engine's response to an order (Fig. 2 steps 4-5)."""

    participant_id: str
    client_order_id: int
    symbol: Symbol
    status: OrderStatus
    filled: Quantity
    remaining: Quantity
    engine_timestamp: int
    reason: Optional[RejectReason] = None

    @property
    def accepted(self) -> bool:
        return self.status is not OrderStatus.REJECTED


@dataclass(slots=True)
class TradeConfirmation:
    """Engine's notification of an execution to one counterparty
    (Fig. 2 steps 6-7).

    Per Fig. 2, trade confirmations are *released* from the gateway's
    hold/release buffer (step 7), not forwarded immediately: a
    counterparty must not learn of an execution before the market-wide
    release of the corresponding trade record.  ``release_at`` carries
    the same release timestamp as that market-data piece; gateways
    hold the confirmation until their (synchronized) clock reads it.
    """

    participant_id: str
    client_order_id: int
    trade_id: int
    symbol: Symbol
    is_buy: bool
    quantity: Quantity
    price: Price
    engine_timestamp: int
    release_at: Optional[int] = None


@dataclass(slots=True)
class MarketDataDelivery:
    """A piece of market data released by a gateway's H/R buffer to one
    subscribed participant."""

    piece: MarketDataPiece
    released_local: int


@dataclass(slots=True)
class HoldReleaseReport:
    """A gateway's batch of H/R reports: one ``(md_seq, late, hold_ns)``
    triple per piece it handled, in arrival order -- whether each piece
    arrived in time to be released fairly, the outbound sample stream
    DDP tunes ``d_h`` against.  A gateway sends one per
    ``HR_REPORT_BATCH`` triples or ``HR_REPORT_WAIT_US`` after the first
    was queued (:mod:`repro.core.config`).  Without an outbound
    controller it is never built: the gateway hands each triple to the
    collector at arrival."""

    gateway_id: str
    reports: Tuple[Tuple[int, bool, int], ...]


@dataclass(slots=True)
class SubscriptionRequest:
    """Participant subscribes to market data for ``symbols`` (paper
    §2.1: "Market participants subscribe to this data per symbol")."""

    participant_id: str
    symbols: Tuple[Symbol, ...]

