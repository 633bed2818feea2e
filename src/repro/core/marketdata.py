"""Market data: trade records and limit-order-book snapshots.

The matching engine produces two kinds of market data (paper §2.1):
trade records for every execution, and periodic snapshots of the limit
order books.  Participants subscribe per symbol; each piece of data is
assigned a *release timestamp* by the engine and held in every
gateway's hold/release buffer until that time so that all participants
see it simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.types import Price, Quantity, Symbol


@dataclass(frozen=True, slots=True)
class TradeRecord:
    """A record of one execution (paper: "Trade records consist of the
    traded symbol, the number of shares traded, and the execution
    price, and are persisted in Google Bigtable").

    We additionally carry the counterparties and order ids needed to
    route trade confirmations and settle the portfolio matrix.
    """

    trade_id: int
    symbol: Symbol
    price: Price
    quantity: Quantity
    buyer: str
    seller: str
    buy_client_order_id: int
    sell_client_order_id: int
    executed_local: int
    aggressor_is_buy: bool

    def notional(self) -> int:
        """Traded value in price ticks * shares."""
        return self.price * self.quantity


@dataclass(frozen=True, slots=True)
class BookSnapshot:
    """Top-of-book depth snapshot for one symbol.

    ``bids`` are (price, total volume) best-first (descending price);
    ``asks`` best-first (ascending price).
    """

    symbol: Symbol
    bids: Tuple[Tuple[Price, Quantity], ...]
    asks: Tuple[Tuple[Price, Quantity], ...]
    taken_local: int

    @property
    def best_bid(self) -> Price:
        """Highest bid price, or 0 when the bid side is empty."""
        return self.bids[0][0] if self.bids else 0

    @property
    def best_ask(self) -> Price:
        """Lowest ask price, or 0 when the ask side is empty."""
        return self.asks[0][0] if self.asks else 0

    @property
    def spread(self) -> int:
        """Bid-ask spread (Fig. 3); 0 when either side is empty."""
        if not self.bids or not self.asks:
            return 0
        return self.best_ask - self.best_bid

    @property
    def mid_price(self) -> float:
        """Midpoint of the spread; 0.0 when either side is empty."""
        if not self.bids or not self.asks:
            return 0.0
        return (self.best_bid + self.best_ask) / 2.0


@dataclass(slots=True)
class MarketDataPiece:
    """One piece of market data as disseminated: payload plus timing.

    Attributes
    ----------
    seq:
        Engine-global dissemination sequence number.
    payload:
        A :class:`TradeRecord` or :class:`BookSnapshot`.
    created_local:
        Engine clock at creation (the paper's ``t_M``).
    release_at:
        Prescribed release time ``t_R = t_M + d_h`` (engine clock, which
        gateways share through synchronization).
    """

    seq: int
    symbol: Symbol
    payload: object
    created_local: int
    release_at: int

    @property
    def kind(self) -> str:
        """``"trade"`` or ``"snapshot"`` -- handy for subscribers."""
        return "trade" if isinstance(self.payload, TradeRecord) else "snapshot"
