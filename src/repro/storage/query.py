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
from repro.storage.bigtable import Bigtable, RowRange
from repro.storage.records import (
    BOOK_SNAPSHOT_FAMILY,
    TRADE_FAMILY,
    decode_snapshot_row,
    decode_trade_row,
    time_bound_key,
    time_prefix,
)


class HistoricalDataClient:
    """Read-only client over the market-data table."""

    def __init__(self, table: Bigtable) -> None:
        self.table = table

    def _scan_range(
        self, kind: str, symbol: str, start_ns: int, end_ns: Optional[int], limit: Optional[int]
    ):
        start_key = time_bound_key(kind, symbol, start_ns)
        if end_ns is None:
            prefix = time_prefix(kind, symbol)
            end_key = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        else:
            end_key = time_bound_key(kind, symbol, end_ns)
        return self.table.scan(RowRange(start=start_key, end=end_key), limit=limit)

    def trades(
        self,
        symbol: str,
        start_ns: int = 0,
        end_ns: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[TradeRecord]:
        """Trades for ``symbol`` with ``start_ns <= executed < end_ns``,
        in execution order; at most ``limit`` of them (the first ones)."""
        return [
            decode_trade_row(row)
            for _, row in self._scan_range(TRADE_FAMILY, symbol, start_ns, end_ns, limit)
        ]

    def snapshots(
        self,
        symbol: str,
        start_ns: int = 0,
        end_ns: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[BookSnapshot]:
        """Book snapshots for ``symbol`` within the window, in order; at
        most ``limit`` of them (the first ones)."""
        return [
            decode_snapshot_row(row)
            for _, row in self._scan_range(BOOK_SNAPSHOT_FAMILY, symbol, start_ns, end_ns, limit)
        ]

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
