"""Row schemas for persisting market data to the Bigtable substrate.

Row-key design follows Bigtable best practice for time-series-within-
entity data: ``<kind>#<symbol>#<zero-padded timestamp>#<id>``.  Keys
sort lexicographically, so a scan of the ``trade#SYM007#`` prefix
returns that symbol's trades in time order, and a range scan bounded by
two padded timestamps implements time-window queries -- exactly what
the participant historical-data API needs.  ``#`` separates the key's
parts, so no symbol may contain it (``CloudExConfig.validate``).

Each row's one cell holds the engine's frozen record itself.
"""

from __future__ import annotations

from repro.core.marketdata import BookSnapshot, TradeRecord
from repro.storage.bigtable import Bigtable

TRADE_FAMILY = "trade"
BOOK_SNAPSHOT_FAMILY = "snapshot"

_TS_WIDTH = 20  # zero-padding for 63-bit nanosecond timestamps


def trade_row_key(symbol: str, executed_local: int, trade_id: int) -> str:
    """Row key for one trade record."""
    return f"trade#{symbol}#{executed_local:0{_TS_WIDTH}d}#{trade_id:012d}"


def snapshot_row_key(symbol: str, taken_local: int) -> str:
    """Row key for one book snapshot."""
    return f"snapshot#{symbol}#{taken_local:0{_TS_WIDTH}d}"


def time_prefix(kind: str, symbol: str) -> str:
    """Prefix covering all rows of one kind for one symbol."""
    return f"{kind}#{symbol}#"


def time_bound_key(kind: str, symbol: str, timestamp_ns: int) -> str:
    """Range-scan bound at ``timestamp_ns`` within one symbol's rows."""
    return f"{kind}#{symbol}#{timestamp_ns:0{_TS_WIDTH}d}"


def write_trade(table: Bigtable, trade: TradeRecord, now_ns: int) -> str:
    """Persist one trade at engine time ``now_ns``; returns its row key.
    The key already carries the trade's own timestamp, so the row
    stores nothing but the record."""
    key = trade_row_key(trade.symbol, trade.executed_local, trade.trade_id)
    table.write_row(key, TRADE_FAMILY, trade)
    return key


def write_snapshot(table: Bigtable, snapshot: BookSnapshot, now_ns: int) -> str:
    """Persist one snapshot at engine time ``now_ns``; returns its row key."""
    key = snapshot_row_key(snapshot.symbol, snapshot.taken_local)
    table.write_row(key, BOOK_SNAPSHOT_FAMILY, snapshot)
    return key
