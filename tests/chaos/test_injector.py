"""Tests for the chaos injector: transitions, priority, determinism."""

import pytest

from repro.chaos.schedule import (
    ClockStep,
    FaultSchedule,
    HostCrash,
    LinkDegradation,
    Partition,
    StragglerEpisode,
)
from repro.core.cluster import CloudExCluster
from repro.core.config import CloudExConfig
from repro.sim.engine import Simulator


def _config(schedule, **overrides):
    kwargs = dict(
        seed=5,
        n_participants=2,
        n_gateways=2,
        n_symbols=2,
        subscriptions_per_participant=1,
        clock_sync="perfect",
        persist_trades=False,
        chaos=schedule,
    )
    kwargs.update(overrides)
    return CloudExConfig(**kwargs)


class TestFaultPriority:
    def test_fault_precedes_ordinary_event_at_same_instant(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1_000, order.append, "delivery")
        sim.schedule_fault(1_000, order.append, "fault")
        sim.run()
        # The fault was scheduled later but runs first: a crash at T is
        # visible to every delivery at T.
        assert order == ["fault", "delivery"]


class TestInjector:
    def test_all_transitions_apply_and_unwind(self):
        schedule = FaultSchedule((
            HostCrash("g00", at_s=0.1, duration_s=0.2),
            ClockStep("g01", at_s=0.3, step_us=50.0),
            StragglerEpisode("g01", at_s=0.4, duration_s=0.1, multiplier=2.0),
            LinkDegradation("p00", "g00", at_s=0.5, duration_s=0.1, extra_us=100.0),
            Partition(("p01",), ("g01",), at_s=0.6, duration_s=0.1),
        ))
        cluster = CloudExCluster(_config(schedule))
        cluster.run(duration_s=1.0)

        snapshot = cluster.metrics.counts()
        assert snapshot["chaos.crashes"] == 1
        assert snapshot["chaos.restarts"] == 1
        assert snapshot["chaos.clock_steps"] == 1
        assert snapshot["chaos.link_faults"] == 2  # straggler + degradation
        assert snapshot["chaos.partitions"] == 1

        # Transition log is ordered and complete:
        # crash/restart/step/straggle/unstraggle/degrade/restore/partition/heal.
        assert len(cluster.chaos.injected) == 9
        times = [t for t, _ in cluster.chaos.injected]
        assert times == sorted(times)

        # Everything unwound at window end.
        assert cluster.network.host("g00").up
        assert cluster.gateways[0].restarts == 1
        assert cluster.network.link("p00", "g00")._fault is None
        assert not cluster.network.link("p01", "g01").blocked
        # Perfect-sync clocks have no sync service to undo the step:
        # the injected offset is exactly what remains.
        assert cluster.network.host("g01").clock.offset_ns == 50_000

        # Fault transitions are also structured obs events.
        kinds = [e.kind for e in cluster.events.events(component="chaos")]
        assert "chaos.crash" in kinds and "chaos.heal" in kinds

    def test_unknown_host_fails_at_arm_time(self):
        schedule = FaultSchedule((HostCrash("g99", at_s=0.5),))
        cluster = CloudExCluster(_config(schedule))
        with pytest.raises(KeyError):
            cluster.run(duration_s=1.0)

    def test_arm_is_idempotent(self):
        schedule = FaultSchedule((HostCrash("g00", at_s=0.1, duration_s=0.1),))
        cluster = CloudExCluster(_config(schedule))
        cluster.chaos.arm()
        cluster.run(duration_s=0.5)  # run() arms again
        assert cluster.metrics.counts()["chaos.crashes"] == 1

    def test_repeated_partition_windows_heal_in_order(self):
        fault = Partition(("p00",), ("g00",), at_s=0.1, duration_s=0.05)
        again = Partition(("p00",), ("g00",), at_s=0.3, duration_s=0.05)
        cluster = CloudExCluster(_config(FaultSchedule((fault, again))))
        cluster.run(duration_s=0.6)
        assert cluster.metrics.counts()["chaos.partitions"] == 2
        assert not cluster.network.link("p00", "g00").blocked

    def test_same_seed_same_schedule_is_deterministic(self):
        def run():
            schedule = FaultSchedule((
                HostCrash("g00", at_s=0.1, duration_s=0.2),
                StragglerEpisode("g01", at_s=0.2, duration_s=0.2),
            ))
            cluster = CloudExCluster(_config(schedule, clock_sync="huygens"))
            cluster.add_default_workload(rate_per_participant=100.0)
            cluster.run(duration_s=0.8)
            return (
                cluster.sim.events_processed,
                cluster.chaos.injected,
                cluster.metrics.counts(),
            )

        assert run() == run()
