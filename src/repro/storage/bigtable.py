"""An in-process Bigtable-like sorted key-value store.

Reproduces the slice of the Bigtable data model CloudEx uses:

- Rows identified by string keys, kept in sorted order.
- Each row belongs to a declared *column family* and holds one cell:
  the record written to it.  A later write to the same key replaces it.
- Reads: ``scan`` over a half-open key range ``[start, end)``.

The implementation keeps rows in a sorted list of keys (bisect) over a
dict -- O(log n) seeks, O(k) scans -- which is the access pattern the
historical-data API needs (time-range scans within a symbol prefix).
Cells hold the caller's (frozen) records as they are: the access
pattern is what is reproduced, not Bigtable's byte encoding.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple


class ColumnFamilyNotFound(KeyError):
    """Write to an undeclared column family."""


class Bigtable:
    """A single table: sorted row keys, one record per row."""

    def __init__(self, name: str, families=()) -> None:
        self.name = name
        self._families = frozenset(families)
        self._rows: Dict[str, object] = {}
        self._sorted_keys: List[str] = []
        self.writes: int = 0

    def write(self, row_key: str, family: str, record: object) -> None:
        """Store ``record`` as the row's cell; the latest write wins."""
        if family not in self._families:
            raise ColumnFamilyNotFound(f"family {family!r} not declared on table {self.name!r}")
        if row_key not in self._rows:
            bisect.insort(self._sorted_keys, row_key)
        self._rows[row_key] = record
        self.writes += 1

    # A row is one cell, so a row mutation is a cell write.
    write_row = write

    def scan(
        self, start: Optional[str] = None, end: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Tuple[str, object]]:
        """``(row_key, record)`` pairs with ``start <= row_key < end``, in
        key order; at most ``limit`` of them (the first ones).  A ``None``
        bound is open."""
        keys = self._sorted_keys
        lo = 0 if start is None else bisect.bisect_left(keys, start)
        hi = len(keys) if end is None else bisect.bisect_left(keys, end)
        if limit is not None:
            hi = min(hi, lo + max(limit, 0))
        return [(key, self._rows[key]) for key in keys[lo:hi]]

    def row_count(self) -> int:
        """Number of rows in the table."""
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Bigtable({self.name!r}, rows={len(self._rows)})"
