"""Tests for CPU accounting and core pools."""

import pytest

from repro.sim.cpu import CorePool, CpuAccountant
from repro.sim.engine import Simulator
from repro.sim.timeunits import SECOND


class TestCpuAccountant:
    def test_charges_accumulate(self):
        acct = CpuAccountant()
        acct.charge(1_000)
        acct.charge(2_000)
        acct.charge(500)
        assert acct.total_busy_ns == 3_500

    def test_cores_used_with_baseline(self):
        acct = CpuAccountant(baseline_cores=2.0)
        acct.charge(SECOND // 2)
        assert acct.cores_used(SECOND) == pytest.approx(2.5)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CpuAccountant().charge(-1)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            CpuAccountant().cores_used(0)

    def test_reset_clears_counters(self):
        acct = CpuAccountant(baseline_cores=1.0)
        acct.charge(100)
        acct.reset()
        assert acct.total_busy_ns == 0
        assert acct.cores_used(SECOND) == pytest.approx(1.0)


class TestCorePool:
    def test_single_core_serializes(self):
        sim = Simulator()
        pool = CorePool(sim, 1)
        done = []
        pool.submit(100, done.append, "a")
        pool.submit(100, done.append, "b")
        sim.run()
        assert done == ["a", "b"]
        assert sim.now == 200  # second job queued behind the first

    def test_two_cores_parallelize(self):
        sim = Simulator()
        pool = CorePool(sim, 2)
        pool.submit(100, lambda: None)
        pool.submit(100, lambda: None)
        sim.run()
        assert sim.now == 100

    def test_queue_delay_recorded(self):
        sim = Simulator()
        pool = CorePool(sim, 1)
        pool.submit(1_000, lambda: None)
        pool.submit(1_000, lambda: None)
        sim.run()
        assert pool.total_queue_ns == 1_000
        assert pool.mean_queue_us() == pytest.approx(0.5)

    def test_backlog_reflects_commitments(self):
        sim = Simulator()
        pool = CorePool(sim, 1)
        pool.submit(5_000, lambda: None)
        assert pool.backlog_ns() == 5_000

    def test_utilization(self):
        sim = Simulator()
        pool = CorePool(sim, 2)
        pool.submit(1_000, lambda: None)
        sim.run(until=1_000)
        assert pool.utilization() == pytest.approx(0.5)

    def test_idle_core_runs_job_immediately_after_gap(self):
        sim = Simulator()
        pool = CorePool(sim, 1)
        pool.submit(10, lambda: None)
        sim.run()
        start = sim.now
        done = []
        sim.schedule(100, lambda: pool.submit(10, done.append, sim.now))
        sim.run()
        # The job starts at submit time (110 != old core free time 10).
        assert sim.now == start + 100 + 10

    def test_zero_service_allowed(self):
        sim = Simulator()
        pool = CorePool(sim, 1)
        done = []
        pool.submit(0, done.append, 1)
        sim.run()
        assert done == [1]

    def test_invalid_params_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CorePool(sim, 0)
        with pytest.raises(ValueError):
            CorePool(sim, 1).submit(-1, lambda: None)
