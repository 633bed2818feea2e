"""Tests for drifting, disciplinable host clocks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.clock import HostClock
from repro.sim.engine import Simulator
from repro.sim.timeunits import SECOND
from tests.sim import reference


def make_clock(drift_ppb=0, offset_ns=0, at=0):
    sim = Simulator()
    if at:
        sim.schedule(at, lambda: None)
        sim.run()
    return sim, HostClock(sim, drift_ppb=drift_ppb, offset_ns=offset_ns)


class TestRawClock:
    def test_perfect_clock_reads_true_time(self):
        sim, clock = make_clock()
        sim.schedule(12_345, lambda: None)
        sim.run()
        assert clock.now() == 12_345
        assert clock.error_ns() == 0

    def test_offset_shifts_reading(self):
        _, clock = make_clock(offset_ns=500)
        assert clock.now() == 500

    def test_drift_accumulates_with_time(self):
        sim, clock = make_clock(drift_ppb=1_000)  # 1 us per second
        sim.schedule(10 * SECOND, lambda: None)
        sim.run()
        assert clock.error_ns() == 10_000

    def test_negative_drift(self):
        sim, clock = make_clock(drift_ppb=-2_000)
        sim.schedule(SECOND, lambda: None)
        sim.run()
        assert clock.error_ns() == -2_000

    def test_raw_local_at_explicit_time(self):
        _, clock = make_clock(drift_ppb=1_000, offset_ns=100)
        assert clock.raw_local(SECOND) == SECOND + 100 + 1_000


class TestRawLocalColumn:
    """``raw_local_many`` against ``raw_local``, where int64 would wrap:
    ``drift * t`` reaches 10**23 at the corners, 2**63 is ~9.2 * 10**18."""

    @settings(max_examples=300, deadline=None)
    @given(
        drift_ppb=st.integers(-1_000_000, 1_000_000),
        offset_ns=st.integers(-10**10, 10**10),
        times=st.lists(st.integers(-(10**17), 10**17), min_size=0, max_size=20),
    )
    def test_column_equals_scalar_entry_by_entry(self, drift_ppb, offset_ns, times):
        _, clock = make_clock(drift_ppb=drift_ppb, offset_ns=offset_ns)
        column = clock.raw_local_many(np.array(times, dtype=np.int64))
        assert column.dtype == np.int64
        assert column.tolist() == [clock.raw_local(t) for t in times]

    @pytest.mark.parametrize("drift_ppb", [-1_000_000, -1, 0, 1, 1_000_000])
    def test_corners_and_the_second_boundary(self, drift_ppb):
        _, clock = make_clock(drift_ppb=drift_ppb, offset_ns=-7)
        times = [-(10**17), -SECOND - 1, -SECOND, -1, 0, 1, SECOND - 1, SECOND, 10**17]
        column = clock.raw_local_many(np.array(times, dtype=np.int64))
        assert column.tolist() == [clock.raw_local(t) for t in times]

    def test_a_fresh_column_is_returned(self):
        # The sync service adds stamp noise in place.
        _, clock = make_clock()
        times = np.array([5, 6], dtype=np.int64)
        clock.raw_local_many(times)[0] += 1
        assert times.tolist() == [5, 6]


class TestDiscipline:
    def test_offset_correction_removes_error(self):
        _, clock = make_clock(offset_ns=7_777)
        clock.set_linear_correction(7_777, 0, clock.raw_local())
        assert clock.now() == 0
        assert clock.error_ns() == 0

    def test_linear_correction_tracks_drift(self):
        sim, clock = make_clock(drift_ppb=50_000, offset_ns=1_000_000)
        # Perfect correction: offset at raw_ref, growing at the drift rate.
        clock.set_linear_correction(
            offset_ns=1_000_000, rate_ppb=50_000, ref_raw_ns=clock.raw_local()
        )
        sim.schedule(5 * SECOND, lambda: None)
        sim.run()
        # Residual error is second-order (drift acting on the raw-time
        # x-axis), far below the uncorrected 250 us.
        assert abs(clock.error_ns()) < 100

    def test_correction_ns_reports_current_value(self):
        sim, clock = make_clock(drift_ppb=0, offset_ns=0)
        clock.set_linear_correction(offset_ns=10, rate_ppb=1_000, ref_raw_ns=0)
        sim.schedule(SECOND, lambda: None)
        sim.run()
        assert clock.correction_ns == 10 + 1_000


    def test_corrected_readings_sum(self):
        """A fixed workload whose result a faster clock must leave unchanged."""
        sim = Simulator()
        clock = HostClock(sim, drift_ppb=42_000, offset_ns=1_500_000)
        clock.set_linear_correction(1_200, 37_000, clock.raw_local())
        total = 0
        for i in range(150_000):
            sim.now = i * 1_000
            total += clock.now()
        assert total == 11_474_801_232_297


class TestLocalScheduling:
    def test_schedule_at_local_perfect_clock(self):
        sim, clock = make_clock()
        hits = []
        clock.schedule_at_local(1_000, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [1_000]

    def test_schedule_at_local_with_offset(self):
        sim, clock = make_clock(offset_ns=500)
        hits = []
        # Local reads 500 at true 0; local deadline 1_500 -> true 1_000.
        clock.schedule_at_local(1_500, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [1_000]

    def test_past_local_deadline_fires_immediately(self):
        sim, clock = make_clock(at=1_000)
        hits = []
        clock.schedule_at_local(10, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [1_000]

    def test_schedule_after_local(self):
        sim, clock = make_clock(drift_ppb=0)
        hits = []
        clock.schedule_after_local(2_000, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [2_000]

    @given(
        drift=st.integers(-100_000, 100_000),
        offset=st.integers(-10_000_000, 10_000_000),
        local=st.integers(0, 10 * SECOND),
    )
    @settings(max_examples=200, deadline=None)
    def test_local_to_true_round_trip(self, drift, offset, local):
        """local_to_true inverts the clock map to within a nanosecond."""
        _, clock = make_clock(drift_ppb=drift, offset_ns=offset)
        true_time = clock.local_to_true(local)
        assert abs(clock.discipline(clock.raw_local(true_time)) - local) <= 1

    @given(
        drift=st.integers(-100_000, 100_000),
        offset=st.integers(-10_000_000, 10_000_000),
        corr0=st.integers(-1_000_000, 1_000_000),
        rate=st.integers(-100_000, 100_000),
        local=st.integers(0, 10 * SECOND),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_with_linear_correction(self, drift, offset, corr0, rate, local):
        _, clock = make_clock(drift_ppb=drift, offset_ns=offset)
        clock.set_linear_correction(corr0, rate, ref_raw_ns=offset)
        true_time = clock.local_to_true(local)
        assert abs(clock.discipline(clock.raw_local(true_time)) - local) <= 2

    @given(
        drift=st.integers(-1_000_000, 1_000_000),
        offset=st.integers(-10**10, 10**10),
        corr0=st.integers(-10**9, 10**9),
        rate=st.integers(-1_000_000, 1_000_000),
        ref=st.integers(-10**13, 10**13),
        local=st.integers(-10**13, 10**13),
    )
    @example(drift=0, offset=0, corr0=0, rate=0, ref=0, local=-1)
    @example(drift=1_000_000, offset=-5, corr0=7, rate=0, ref=3, local=-SECOND)
    @example(drift=0, offset=5, corr0=-7, rate=-1_000_000, ref=-3, local=-SECOND)
    @example(drift=-1_000_000, offset=0, corr0=0, rate=1_000_000, ref=0, local=10**13)
    @settings(max_examples=500, deadline=None)
    def test_local_to_true_is_exactly_the_per_round_reference(
        self, drift, offset, corr0, rate, ref, local
    ):
        _, clock = make_clock(drift_ppb=drift, offset_ns=offset)
        clock.set_linear_correction(corr0, rate, ref_raw_ns=ref)
        assert clock.local_to_true(local) == reference.local_to_true(clock, local)
