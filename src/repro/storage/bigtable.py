"""An in-process Bigtable-like sorted key-value store.

Reproduces the slice of the Bigtable data model CloudEx uses:

- Rows identified by string keys, kept in sorted order.
- Columns grouped into declared *column families*.
- Each cell holds multiple timestamped versions, newest first.
- Reads: point ``read_row``, ``scan`` over a :class:`RowRange`,
  ``prefix_scan``.
- Atomicity is per-row, as in Bigtable.

The implementation keeps rows in a sorted list of keys (bisect) over a
dict -- O(log n) seeks, O(k) scans -- which is the access pattern the
historical-data API needs (time-range scans within a symbol prefix).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Cell:
    """One version of one column's value."""

    value: bytes
    timestamp_ns: int


@dataclass(frozen=True)
class RowRange:
    """A half-open row-key interval ``[start, end)``.

    ``start=None`` means from the first row; ``end=None`` means to the
    last.
    """

    start: Optional[str] = None
    end: Optional[str] = None

    def contains(self, key: str) -> bool:
        if self.start is not None and key < self.start:
            return False
        if self.end is not None and key >= self.end:
            return False
        return True


class ColumnFamilyNotFound(KeyError):
    """Write to an undeclared column family."""


class Bigtable:
    """A single table: sorted rows of family:qualifier -> versioned cells.

    ``families`` may be a tuple of names (unbounded version history) or
    a mapping ``{family: max_versions}`` where ``None`` means unbounded
    -- mirroring Bigtable's per-family garbage-collection policy.
    """

    def __init__(self, name: str, families=()) -> None:
        self.name = name
        # family -> max versions retained (None = unlimited).
        self._families: Dict[str, Optional[int]] = {}
        if isinstance(families, dict):
            for family, max_versions in families.items():
                self.create_family(family, max_versions)
        else:
            for family in families:
                self.create_family(family)
        self._rows: Dict[str, Dict[Tuple[str, str], List[Cell]]] = {}
        self._sorted_keys: List[str] = []
        self.writes: int = 0
        self.reads: int = 0
        self.cells_gc_collected: int = 0

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def create_family(self, family: str, max_versions: Optional[int] = None) -> None:
        """Declare a column family with an optional version-GC policy.
        Idempotent; redeclaring updates the policy."""
        if max_versions is not None and max_versions < 1:
            raise ValueError(f"max_versions must be >= 1, got {max_versions}")
        self._families[family] = max_versions

    @property
    def families(self) -> Tuple[str, ...]:
        return tuple(sorted(self._families))

    def max_versions(self, family: str) -> Optional[int]:
        """The family's GC policy (None = keep everything)."""
        try:
            return self._families[family]
        except KeyError:
            raise ColumnFamilyNotFound(family) from None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(
        self,
        row_key: str,
        family: str,
        qualifier: str,
        value: bytes,
        timestamp_ns: int,
    ) -> None:
        """Write one cell version.  Atomic per row by construction."""
        self.write_row(row_key, family, {qualifier: value}, timestamp_ns)

    def write_row(
        self,
        row_key: str,
        family: str,
        values: Dict[str, bytes],
        timestamp_ns: int,
    ) -> None:
        """Write several qualifiers of one family atomically: the family
        and every value are checked before the first cell is stored, so
        a bad one leaves the row as it was."""
        if family not in self._families:
            raise ColumnFamilyNotFound(f"family {family!r} not declared on table {self.name!r}")
        for value in values.values():
            if not isinstance(value, bytes):
                raise TypeError(f"cell values are bytes, got {type(value).__name__}")
        if not values:
            return
        row = self._rows.get(row_key)
        if row is None:
            row = self._rows[row_key] = {}
            bisect.insort(self._sorted_keys, row_key)
        limit = self._families[family]
        for qualifier, value in values.items():
            versions = row.setdefault((family, qualifier), [])
            # Keep versions newest-first; inserts are usually append-newest.
            index = 0
            while index < len(versions) and versions[index].timestamp_ns > timestamp_ns:
                index += 1
            versions.insert(index, Cell(value=value, timestamp_ns=timestamp_ns))
            if limit is not None and len(versions) > limit:
                self.cells_gc_collected += len(versions) - limit
                del versions[limit:]
        self.writes += len(values)

    def delete_row(self, row_key: str) -> bool:
        """Remove a row entirely.  Returns whether it existed."""
        if row_key not in self._rows:
            return False
        del self._rows[row_key]
        index = bisect.bisect_left(self._sorted_keys, row_key)
        del self._sorted_keys[index]
        return True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_row(
        self, row_key: str, family: Optional[str] = None
    ) -> Optional[Dict[Tuple[str, str], List[Cell]]]:
        """Read one row (optionally restricted to a family); None if absent."""
        self.reads += 1
        row = self._rows.get(row_key)
        if row is None:
            return None
        if family is None:
            return {col: list(cells) for col, cells in row.items()}
        return {col: list(cells) for col, cells in row.items() if col[0] == family}

    def read_cell(self, row_key: str, family: str, qualifier: str) -> Optional[Cell]:
        """Latest version of one cell; None if absent."""
        self.reads += 1
        row = self._rows.get(row_key)
        if row is None:
            return None
        versions = row.get((family, qualifier))
        if not versions:
            return None
        return versions[0]

    def scan(
        self, row_range: RowRange = RowRange(), limit: Optional[int] = None
    ) -> Iterator[Tuple[str, Dict[Tuple[str, str], List[Cell]]]]:
        """Yield ``(row_key, row)`` over a key range, in key order."""
        start_index = (
            0
            if row_range.start is None
            else bisect.bisect_left(self._sorted_keys, row_range.start)
        )
        yielded = 0
        for index in range(start_index, len(self._sorted_keys)):
            key = self._sorted_keys[index]
            if row_range.end is not None and key >= row_range.end:
                break
            if limit is not None and yielded >= limit:
                break
            self.reads += 1
            yield key, {col: list(cells) for col, cells in self._rows[key].items()}
            yielded += 1

    def prefix_scan(
        self, prefix: str, limit: Optional[int] = None
    ) -> Iterator[Tuple[str, Dict[Tuple[str, str], List[Cell]]]]:
        """Scan all rows whose key starts with ``prefix``."""
        # The smallest string greater than every prefixed key: bump the
        # last character (prefix + chr(0x10FFFF) also works but bumping
        # is what real Bigtable clients do).
        end = prefix[:-1] + chr(ord(prefix[-1]) + 1) if prefix else None
        return self.scan(RowRange(start=prefix, end=end), limit=limit)

    def row_count(self) -> int:
        """Number of rows in the table."""
        return len(self._rows)

    def __contains__(self, row_key: str) -> bool:
        return row_key in self._rows

    def __repr__(self) -> str:
        return f"Bigtable({self.name!r}, rows={len(self._rows)})"
