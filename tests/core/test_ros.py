"""Tests for ROS deduplication."""

import pytest

from repro.core.ros import RosDeduplicator
from repro.sim.timeunits import SECOND


class TestDedup:
    def test_first_replica_wins(self):
        dedup = RosDeduplicator()
        assert dedup.admit(("p1", 1), "g00", now_local=0) is True
        assert dedup.admit(("p1", 1), "g01", now_local=100) is False
        assert dedup.admit(("p1", 1), "g02", now_local=200) is False
        assert dedup.winner(("p1", 1)) == "g00"

    def test_distinct_orders_independent(self):
        dedup = RosDeduplicator()
        assert dedup.admit(("p1", 1), "g00", 0)
        assert dedup.admit(("p1", 2), "g01", 0)
        assert dedup.admit(("p2", 1), "g02", 0)

    def test_counters(self):
        dedup = RosDeduplicator()
        dedup.admit(("p1", 1), "g00", 0)
        dedup.admit(("p1", 1), "g01", 0)
        dedup.admit(("p1", 2), "g00", 0)
        assert dedup.accepted == 2
        assert dedup.duplicates_dropped == 1

    def test_unknown_winner_none(self):
        assert RosDeduplicator().winner(("p", 9)) is None


    def test_three_replicas_of_each_order_drop_two(self):
        """A fixed workload whose result a faster dedup must leave unchanged."""
        dedup = RosDeduplicator()
        for i in range(5_000):
            for gw in ("g0", "g1", "g2"):
                dedup.admit(("p", i), gw, now_local=i * 1_000)
        assert dedup.duplicates_dropped == 10_000


class TestTtl:
    def test_entries_expire(self):
        dedup = RosDeduplicator(ttl_ns=1 * SECOND)
        dedup.admit(("p1", 1), "g00", now_local=0)
        # After the TTL, the same key is (correctly) treated as new --
        # replicas can only trail their winner by the network tail,
        # far below the TTL.
        assert dedup.admit(("p1", 1), "g01", now_local=2 * SECOND) is True
        assert dedup.winner(("p1", 1)) == "g01"

    def test_live_entries_survive_sweep(self):
        dedup = RosDeduplicator(ttl_ns=1 * SECOND)
        dedup.admit(("p1", 1), "g00", now_local=0)
        dedup.admit(("p1", 2), "g00", now_local=int(0.9 * SECOND))
        assert dedup.admit(("p1", 1), "g01", now_local=int(0.95 * SECOND)) is False
        assert len(dedup) == 2

    def test_sweep_bounds_memory(self):
        dedup = RosDeduplicator(ttl_ns=SECOND)
        for i in range(1_000):
            dedup.admit(("p", i), "g", now_local=i * 10_000_000)  # 10 ms apart
        assert len(dedup) <= SECOND // 10_000_000 + 1

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            RosDeduplicator(ttl_ns=0)


class TestResultReplay:
    """Confirmation replay for retries (repro.chaos crash recovery)."""

    def test_result_roundtrip(self):
        dedup = RosDeduplicator()
        dedup.admit(("p1", 1), "g00", now_local=0)
        dedup.record_result(("p1", 1), "confirmation")
        assert dedup.result(("p1", 1)) == "confirmation"

    def test_result_absent_until_recorded(self):
        dedup = RosDeduplicator()
        dedup.admit(("p1", 1), "g00", now_local=0)
        assert dedup.result(("p1", 1)) is None

    def test_result_unknown_key_none(self):
        assert RosDeduplicator().result(("p", 9)) is None

    def test_record_after_sweep_is_noop(self):
        dedup = RosDeduplicator(ttl_ns=1 * SECOND)
        dedup.admit(("p1", 1), "g00", now_local=0)
        dedup.admit(("p1", 2), "g00", now_local=3 * SECOND)  # sweeps key 1
        dedup.record_result(("p1", 1), "too-late")
        assert dedup.result(("p1", 1)) is None

    def test_sweep_drops_result_with_entry(self):
        dedup = RosDeduplicator(ttl_ns=1 * SECOND)
        dedup.admit(("p1", 1), "g00", now_local=0)
        dedup.record_result(("p1", 1), "confirmation")
        dedup.admit(("p1", 2), "g00", now_local=3 * SECOND)
        assert dedup.result(("p1", 1)) is None
        # A retry arriving after the sweep is re-admitted: the
        # duplicate-execution invariant checker is what catches the
        # resulting double execution (see tests/chaos).
        assert dedup.admit(("p1", 1), "g01", now_local=3 * SECOND) is True
