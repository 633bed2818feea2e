"""Tests for the Bigtable-like store, including a hypothesis model test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.bigtable import Bigtable, ColumnFamilyNotFound


@pytest.fixture
def table():
    return Bigtable("t", families=("cf",))


def keys(rows):
    return [key for key, _ in rows]


class TestWriteRead:
    def test_record_is_stored_as_written(self, table):
        record = ("a", 1)
        table.write("r1", "cf", record)
        ((key, stored),) = table.scan()
        assert key == "r1" and stored is record

    def test_undeclared_family_rejected(self, table):
        with pytest.raises(ColumnFamilyNotFound):
            table.write("r", "bad", "v")

    def test_write_row_is_atomic(self, table):
        # A write to an undeclared family leaves nothing behind: neither
        # a new value in an existing row nor the row key of a new one.
        table.write("kept", "cf", "0")
        for row_key in ("kept", "new"):
            with pytest.raises(ColumnFamilyNotFound):
                table.write_row(row_key, "bad", "1")
        assert table.scan() == [("kept", "0")]
        assert table.writes == 1


class TestScan:
    def test_scan_in_key_order(self, table):
        for key in ("c", "a", "b"):
            table.write(key, "cf", "v")
        assert keys(table.scan()) == ["a", "b", "c"]

    def test_range_is_half_open(self, table):
        for key in ("a", "b", "c", "d"):
            table.write(key, "cf", "v")
        assert keys(table.scan("b", "d")) == ["b", "c"]

    def test_scan_limit(self, table):
        for i in range(10):
            table.write(f"r{i}", "cf", "v")
        assert keys(table.scan(limit=3)) == ["r0", "r1", "r2"]
        assert keys(table.scan("r5", limit=2)) == ["r5", "r6"]
        assert table.scan(limit=0) == []

    def test_prefix_scan(self, table):
        # A prefix is the range [prefix, prefix with its last character bumped).
        for key in ("trade#A#1", "trade#A#2", "trade#B#1", "snap#A#1"):
            table.write(key, "cf", "v")
        assert keys(table.scan("trade#A#", "trade#A$")) == ["trade#A#1", "trade#A#2"]

    def test_unbounded_range(self, table):
        for key in ("a", "b", "c"):
            table.write(key, "cf", "v")
        assert keys(table.scan()) == ["a", "b", "c"]
        assert keys(table.scan(end="b")) == ["a"]
        assert keys(table.scan(start="b")) == ["b", "c"]


    def test_scan_returns_every_written_row(self, table):
        """A fixed workload whose result a faster table must leave unchanged."""
        for i in range(2_000):
            table.write(f"trade#S#{i:012d}", "cf", i)
        assert sum(1 for _ in table.scan()) == 2_000


class TestCounters:
    def test_write_counter(self, table):
        table.write("r", "cf", "v")
        table.write_row("r", "cf", "w")
        assert table.writes == 2

    def test_row_count(self, table):
        table.write("a", "cf", "v")
        table.write("a", "cf", "v2")
        table.write("b", "cf", "v")
        assert table.row_count() == 2


@given(
    writes=st.lists(
        st.tuples(st.text(alphabet="abcde", min_size=1, max_size=3), st.integers()),
        max_size=60,
    ),
    bounds=st.tuples(
        st.none() | st.text(alphabet="abcdef", max_size=3),
        st.none() | st.text(alphabet="abcdef", max_size=3),
    ),
)
@settings(max_examples=150, deadline=None)
def test_scan_matches_dict_model(writes, bounds):
    """The store behaves like a sorted dict of rows: the latest write to
    a key wins, and a range (inverted ones included) is a key filter."""
    table = Bigtable("t", families=("cf",))
    model = {}
    for key, value in writes:
        table.write(key, "cf", value)
        model[key] = value
    assert table.scan() == sorted(model.items())
    start, end = bounds
    assert table.scan(start, end) == [
        (key, value)
        for key, value in sorted(model.items())
        if (start is None or key >= start) and (end is None or key < end)
    ]
