"""The historical market-data query API.

Paper §2.1, participant API (3): "query for historical market data
from a long-term cloud storage module" and "Market participants are
provided an API to query historical market data from Bigtable."

Queries are time-range scans within a symbol, built directly on the
row-key design of :mod:`repro.storage.records`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.marketdata import BookSnapshot, TradeRecord
from repro.storage.bigtable import Bigtable
from repro.storage.records import BOOK_SNAPSHOT_FAMILY, TRADE_FAMILY, time_bound_key, time_prefix


class HistoricalDataClient:
    """Read-only client over the market-data table."""

    def __init__(self, table: Bigtable) -> None:
        self.table = table

    def _scan(
        self, kind: str, symbol: str, start_ns: int, end_ns: Optional[int], limit: Optional[int]
    ) -> list:
        start_key = time_bound_key(kind, symbol, start_ns)
        if end_ns is None:
            # Just past the symbol's prefix: "#" + 1 == "$".
            end_key = time_prefix(kind, symbol)[:-1] + "$"
        else:
            end_key = time_bound_key(kind, symbol, end_ns)
        return [record for _, record in self.table.scan(start_key, end_key, limit)]

    def trades(
        self,
        symbol: str,
        start_ns: int = 0,
        end_ns: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[TradeRecord]:
        """Trades for ``symbol`` with ``start_ns <= executed < end_ns``,
        in execution order; at most ``limit`` of them (the first ones)."""
        return self._scan(TRADE_FAMILY, symbol, start_ns, end_ns, limit)

    def snapshots(
        self,
        symbol: str,
        start_ns: int = 0,
        end_ns: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[BookSnapshot]:
        """Book snapshots for ``symbol`` within the window, in order; at
        most ``limit`` of them (the first ones)."""
        return self._scan(BOOK_SNAPSHOT_FAMILY, symbol, start_ns, end_ns, limit)

    def volume_traded(self, symbol: str, start_ns: int = 0, end_ns: Optional[int] = None) -> int:
        """Total shares traded in the window."""
        return sum(t.quantity for t in self.trades(symbol, start_ns, end_ns))

    def vwap(self, symbol: str, start_ns: int = 0, end_ns: Optional[int] = None) -> Optional[float]:
        """Volume-weighted average price over the window, or None."""
        trades = self.trades(symbol, start_ns, end_ns)
        total_qty = sum(t.quantity for t in trades)
        if total_qty == 0:
            return None
        return sum(t.price * t.quantity for t in trades) / total_qty

    def __repr__(self) -> str:
        return f"HistoricalDataClient(table={self.table.name!r})"
