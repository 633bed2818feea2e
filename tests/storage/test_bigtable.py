"""Tests for the Bigtable-like store, including a hypothesis model test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.bigtable import Bigtable, ColumnFamilyNotFound, RowRange


@pytest.fixture
def table():
    return Bigtable("t", families=("cf",))


class TestWriteRead:
    def test_point_read(self, table):
        table.write("r1", "cf", "q", b"v", timestamp_ns=10)
        cell = table.read_cell("r1", "cf", "q")
        assert cell.value == b"v"
        assert cell.timestamp_ns == 10

    def test_missing_row_is_none(self, table):
        assert table.read_row("nope") is None
        assert table.read_cell("nope", "cf", "q") is None

    def test_undeclared_family_rejected(self, table):
        with pytest.raises(ColumnFamilyNotFound):
            table.write("r", "bad", "q", b"v", 0)

    def test_non_bytes_value_rejected(self, table):
        with pytest.raises(TypeError):
            table.write("r", "cf", "q", "string", 0)  # type: ignore[arg-type]

    def test_versions_newest_first(self, table):
        table.write("r", "cf", "q", b"old", 1)
        table.write("r", "cf", "q", b"new", 2)
        versions = table.read_row("r")[("cf", "q")]
        assert [c.value for c in versions] == [b"new", b"old"]

    def test_out_of_order_version_insert(self, table):
        table.write("r", "cf", "q", b"new", 10)
        table.write("r", "cf", "q", b"old", 5)
        versions = table.read_row("r")[("cf", "q")]
        assert [c.timestamp_ns for c in versions] == [10, 5]

    def test_write_row_multiple_qualifiers(self, table):
        table.write_row("r", "cf", {"a": b"1", "b": b"2"}, timestamp_ns=3)
        row = table.read_row("r")
        assert row[("cf", "a")][0].value == b"1"
        assert row[("cf", "b")][0].value == b"2"

    def test_write_row_is_atomic(self, table):
        # A bad value in the middle leaves nothing of the row behind --
        # neither the qualifiers before it nor the row key itself.
        table.write("kept", "cf", "a", b"0", timestamp_ns=1)
        for row_key in ("kept", "new"):
            with pytest.raises(TypeError):
                table.write_row(row_key, "cf", {"a": b"1", "b": "2", "c": b"3"}, timestamp_ns=2)
            with pytest.raises(ColumnFamilyNotFound):
                table.write_row(row_key, "bad", {"a": b"1"}, timestamp_ns=2)
        assert list(table.read_row("kept")) == [("cf", "a")]
        assert [c.value for c in table.read_row("kept")[("cf", "a")]] == [b"0"]
        assert "new" not in table and [k for k, _ in table.scan()] == ["kept"]
        assert table.writes == 1

    def test_write_row_is_one_write_per_cell(self):
        # Same counters, version order and GC as a loop of write().
        by_row, by_cell = (Bigtable("t", families={"cf": 2}) for _ in range(2))
        for ts in (5, 9, 7, 1):
            values = {"a": b"a%d" % ts, "b": b"b%d" % ts}
            by_row.write_row("r", "cf", values, timestamp_ns=ts)
            for qualifier, value in values.items():
                by_cell.write("r", "cf", qualifier, value, timestamp_ns=ts)
        assert by_row.read_row("r") == by_cell.read_row("r")
        assert [c.timestamp_ns for c in by_row.read_row("r")[("cf", "b")]] == [9, 7]
        assert (by_row.writes, by_row.cells_gc_collected) == (8, 4)
        assert (by_cell.writes, by_cell.cells_gc_collected) == (8, 4)

    def test_family_filter_on_read(self):
        table = Bigtable("t", families=("cf1", "cf2"))
        table.write("r", "cf1", "q", b"1", 0)
        table.write("r", "cf2", "q", b"2", 0)
        row = table.read_row("r", family="cf1")
        assert list(row) == [("cf1", "q")]

    def test_create_family_later(self, table):
        table.create_family("cf2")
        table.write("r", "cf2", "q", b"v", 0)
        assert table.read_cell("r", "cf2", "q").value == b"v"


class TestDelete:
    def test_delete_row(self, table):
        table.write("r", "cf", "q", b"v", 0)
        assert table.delete_row("r") is True
        assert table.read_row("r") is None
        assert "r" not in table

    def test_delete_missing_row(self, table):
        assert table.delete_row("r") is False

    def test_delete_keeps_scan_order(self, table):
        for key in ("a", "b", "c"):
            table.write(key, "cf", "q", b"v", 0)
        table.delete_row("b")
        assert [k for k, _ in table.scan()] == ["a", "c"]


class TestScan:
    def test_scan_in_key_order(self, table):
        for key in ("c", "a", "b"):
            table.write(key, "cf", "q", b"v", 0)
        assert [k for k, _ in table.scan()] == ["a", "b", "c"]

    def test_range_is_half_open(self, table):
        for key in ("a", "b", "c", "d"):
            table.write(key, "cf", "q", b"v", 0)
        assert [k for k, _ in table.scan(RowRange("b", "d"))] == ["b", "c"]

    def test_scan_limit(self, table):
        for i in range(10):
            table.write(f"r{i}", "cf", "q", b"v", 0)
        assert len(list(table.scan(limit=3))) == 3

    def test_prefix_scan(self, table):
        for key in ("trade#A#1", "trade#A#2", "trade#B#1", "snap#A#1"):
            table.write(key, "cf", "q", b"v", 0)
        assert [k for k, _ in table.prefix_scan("trade#A#")] == ["trade#A#1", "trade#A#2"]

    def test_row_range_contains(self):
        r = RowRange("b", "d")
        assert not r.contains("a")
        assert r.contains("b")
        assert r.contains("c")
        assert not r.contains("d")

    def test_unbounded_range(self):
        r = RowRange()
        assert r.contains("anything")


class TestVersionGc:
    def test_max_versions_trims_oldest(self):
        table = Bigtable("t", families={"cf": 2})
        for ts in (1, 2, 3, 4):
            table.write("r", "cf", "q", str(ts).encode(), ts)
        versions = table.read_row("r")[("cf", "q")]
        assert [c.timestamp_ns for c in versions] == [4, 3]
        assert table.cells_gc_collected == 2

    def test_unbounded_family_keeps_all(self):
        table = Bigtable("t", families={"cf": None})
        for ts in range(5):
            table.write("r", "cf", "q", b"v", ts)
        assert len(table.read_row("r")[("cf", "q")]) == 5

    def test_out_of_order_write_respects_policy(self):
        table = Bigtable("t", families={"cf": 2})
        table.write("r", "cf", "q", b"new", 10)
        table.write("r", "cf", "q", b"newer", 20)
        table.write("r", "cf", "q", b"ancient", 1)  # immediately GC'd
        versions = table.read_row("r")[("cf", "q")]
        assert [c.timestamp_ns for c in versions] == [20, 10]

    def test_policy_queryable(self):
        table = Bigtable("t", families={"a": 3, "b": None})
        assert table.max_versions("a") == 3
        assert table.max_versions("b") is None
        with pytest.raises(ColumnFamilyNotFound):
            table.max_versions("c")

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            Bigtable("t", families={"cf": 0})


class TestCounters:
    def test_write_and_read_counters(self, table):
        table.write("r", "cf", "q", b"v", 0)
        table.read_cell("r", "cf", "q")
        assert table.writes == 1
        assert table.reads == 1

    def test_row_count(self, table):
        table.write("a", "cf", "q", b"v", 0)
        table.write("a", "cf", "q2", b"v", 0)
        table.write("b", "cf", "q", b"v", 0)
        assert table.row_count() == 2


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "delete"]),
            st.text(alphabet="abcde", min_size=1, max_size=3),
        ),
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_scan_matches_dict_model(ops):
    """The store behaves like a sorted dict of rows."""
    table = Bigtable("t", families=("cf",))
    model = {}
    for ts, (op, key) in enumerate(ops):
        if op == "write":
            table.write(key, "cf", "q", key.encode(), ts)
            model[key] = key.encode()
        else:
            table.delete_row(key)
            model.pop(key, None)
    scanned = {k: row[("cf", "q")][0].value for k, row in table.scan()}
    assert scanned == model
    assert [k for k, _ in table.scan()] == sorted(model)
