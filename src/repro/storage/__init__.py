"""Long-term storage substrate.

The paper persists trade records to Google Bigtable and gives market
participants an API to query historical market data.  This package
provides an in-process stand-in with the same access pattern (sorted
row keys, column families, time-range scans within a symbol), one cell
per row holding the engine's own record, and the query API built on
top of it.
"""

from repro.storage.bigtable import Bigtable
from repro.storage.query import HistoricalDataClient
from repro.storage.records import (
    BOOK_SNAPSHOT_FAMILY,
    TRADE_FAMILY,
    snapshot_row_key,
    trade_row_key,
)

__all__ = [
    "Bigtable",
    "BOOK_SNAPSHOT_FAMILY",
    "HistoricalDataClient",
    "TRADE_FAMILY",
    "snapshot_row_key",
    "trade_row_key",
]
