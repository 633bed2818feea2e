"""Tests for declarative fault schedules."""

import pytest

from repro.chaos.schedule import (
    ClockStep,
    FaultSchedule,
    HostCrash,
    LinkDegradation,
    Partition,
    StragglerEpisode,
)
from repro.sim.timeunits import SECOND


class TestFaultValidation:
    def test_negative_activation_rejected(self):
        with pytest.raises(ValueError):
            HostCrash("g00", at_s=-0.1)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            HostCrash("g00", at_s=0.0, duration_s=0.0)

    def test_crash_without_restart_allowed(self):
        assert HostCrash("g00", at_s=1.0).duration_s is None

    def test_degradation_needs_an_effect(self):
        with pytest.raises(ValueError):
            LinkDegradation("a", "b", at_s=0.0, duration_s=1.0)

    def test_degradation_submultiplier_rejected(self):
        with pytest.raises(ValueError):
            LinkDegradation("a", "b", at_s=0.0, duration_s=1.0, multiplier=0.5)

    def test_partition_groups_must_not_overlap(self):
        with pytest.raises(ValueError):
            Partition(("a", "b"), ("b", "c"), at_s=0.0, duration_s=1.0)

    def test_partition_groups_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Partition((), ("a",), at_s=0.0, duration_s=1.0)

    def test_zero_clock_step_rejected(self):
        with pytest.raises(ValueError):
            ClockStep("g00", at_s=0.0, step_us=0.0)

    def test_straggler_multiplier_must_slow(self):
        with pytest.raises(ValueError):
            StragglerEpisode("g00", at_s=0.0, duration_s=1.0, multiplier=1.0)

    def test_unsupported_fault_type_rejected(self):
        with pytest.raises(TypeError):
            FaultSchedule(("not-a-fault",))


class TestSchedule:
    def _schedule(self):
        return FaultSchedule((
            HostCrash("g00", at_s=1.0, duration_s=0.5),
            ClockStep("g01", at_s=0.2, step_us=50.0),
            Partition(("p00",), ("g00",), at_s=2.0, duration_s=1.0),
        ))

    def test_iteration_and_len(self):
        schedule = self._schedule()
        assert len(schedule) == 3
        assert [type(f).__name__ for f in schedule] == [
            "HostCrash", "ClockStep", "Partition",
        ]

    def test_empty_schedule_is_truthy(self):
        # An armed empty schedule must still count as "chaos configured"
        # (the zero-overhead baseline tests/chaos/test_injector.py compares).
        assert bool(FaultSchedule(()))
        assert len(FaultSchedule(())) == 0

    def test_end_time_covers_windows(self):
        schedule = self._schedule()
        assert schedule.end_s() == pytest.approx(3.0)
        assert schedule.end_ns() == 3 * SECOND

    def test_to_dicts_round_trips_fields(self):
        dicts = self._schedule().to_dicts()
        assert dicts[0] == {
            "fault": "HostCrash", "host": "g00", "at_s": 1.0, "duration_s": 0.5,
        }
        assert dicts[2]["group_a"] == ["p00"]  # tuples become lists

    def test_describe_is_activation_ordered(self):
        lines = self._schedule().describe().splitlines()
        assert lines[0].startswith("t=0.200s ClockStep")
        assert lines[1].startswith("t=1.000s HostCrash")
        assert lines[2].startswith("t=2.000s Partition")

    def test_faults_coerced_to_tuple(self):
        schedule = FaultSchedule([HostCrash("g00", at_s=0.5)])
        assert isinstance(schedule.faults, tuple)
