"""The portfolio matrix.

Paper §2.1: "a portfolio matrix that tracks each market participant's
assets and cash balance".  Updated on every trade; in the sharded
engine this is the *shared* data structure whose serialized updates cap
throughput after ~8 shards (Table 1), which is why the simulated
exchange routes every trade's settlement through a single-server
portfolio lock (:mod:`repro.core.sharding`).

Cash is in integer price ticks (cents); positions in integer shares.
Negative positions (shorts) and negative cash (margin) are permitted,
as in the course deployments: the engine admits no order on account
grounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.core.marketdata import TradeRecord
from repro.core.types import Price, Symbol


@dataclass
class Account:
    """One participant's row of the portfolio matrix."""

    participant_id: str
    cash: int
    positions: Dict[Symbol, int] = field(default_factory=dict)

    def position(self, symbol: Symbol) -> int:
        return self.positions.get(symbol, 0)

    def adjust(self, symbol: Symbol, shares: int, cash_delta: int) -> None:
        """Apply one fill: shares in, cash out (or vice versa)."""
        self.positions[symbol] = self.positions.get(symbol, 0) + shares
        self.cash += cash_delta

    def market_value(self, prices: Mapping[Symbol, Price]) -> int:
        """Cash plus positions marked at ``prices`` (missing marks = 0)."""
        return self.cash + sum(
            shares * prices.get(symbol, 0) for symbol, shares in self.positions.items()
        )


class UnknownParticipantError(KeyError):
    """A trade or query referenced a participant with no account."""


class PortfolioMatrix:
    """All participants' cash balances and positions."""

    def __init__(self, default_cash: int = 0) -> None:
        self.default_cash = default_cash
        self._accounts: Dict[str, Account] = {}
        self.trades_applied: int = 0

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------
    def open_account(
        self,
        participant_id: str,
        cash: Optional[int] = None,
        positions: Optional[Dict[Symbol, int]] = None,
    ) -> Account:
        """Create an account; rejects duplicates."""
        if participant_id in self._accounts:
            raise ValueError(f"account {participant_id!r} already exists")
        account = Account(
            participant_id=participant_id,
            cash=self.default_cash if cash is None else cash,
            positions=dict(positions or {}),
        )
        self._accounts[participant_id] = account
        return account

    def account(self, participant_id: str) -> Account:
        try:
            return self._accounts[participant_id]
        except KeyError:
            raise UnknownParticipantError(participant_id) from None

    def has_account(self, participant_id: str) -> bool:
        return participant_id in self._accounts

    def participants(self) -> tuple:
        return tuple(self._accounts)

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------
    def apply_trade(self, trade: TradeRecord) -> None:
        """Settle one trade: shares buyer<-seller, cash seller<-buyer.

        Self-trades (buyer == seller) net to zero but are still applied
        so trade counters stay consistent.
        """
        notional = trade.price * trade.quantity
        buyer = self.account(trade.buyer)
        seller = self.account(trade.seller)
        buyer.adjust(trade.symbol, trade.quantity, -notional)
        seller.adjust(trade.symbol, -trade.quantity, notional)
        self.trades_applied += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def mark_to_market(self, prices: Mapping[Symbol, Price]) -> Dict[str, int]:
        """Total account value per participant at the given marks."""
        return {pid: acct.market_value(prices) for pid, acct in self._accounts.items()}

    def total_shares(self, symbol: Symbol) -> int:
        """Net shares across all accounts -- conserved by trading."""
        return sum(acct.position(symbol) for acct in self._accounts.values())

    def total_cash(self) -> int:
        """Total cash across all accounts -- conserved by trading."""
        return sum(acct.cash for acct in self._accounts.values())

    def __repr__(self) -> str:
        return f"PortfolioMatrix(accounts={len(self._accounts)}, trades={self.trades_applied})"
