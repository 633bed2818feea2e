"""A run allocates no cyclic garbage, and ``collector_paused`` keeps its
contract.

Reference counting frees everything a simulation drops, which is what
lets ``Simulator.run`` and ``ShardProgram.run_window`` pause the cyclic
collector (DESIGN.md §4.12): with the collector off for the whole run,
``gc.collect()`` afterwards finds nothing on every execution path.
"""

import gc

import pytest

from repro.chaos import available_scenarios, run_scenario
from repro.core import CloudExCluster, CloudExConfig
from repro.core.shardrun import ShardProgram, ShardRunConfig
from repro.sim.engine import Simulator, collector_paused

SMALL = dict(
    n_participants=4, n_gateways=4, n_symbols=4, subscriptions_per_participant=2,
    orders_per_participant_per_s=300.0,
)


def cyclic_garbage(run) -> int:
    """Objects only the cyclic collector can free, left by ``run()``
    executed with the collector off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        dict(tracing=True),
        dict(
            replication_factor=3, cancel_fraction=0.2, ddp_inbound_target=0.01,
            ddp_outbound_target=0.01, straggler_gateways=1, persist_trades=True,
        ),
        dict(fairness_policy="cloudex"),
        dict(fairness_policy="dbo"),
        dict(fairness_policy="pfo"),
        dict(fairness_policy="noop"),
        dict(clock_sync="ntp"),
    ],
    ids=[
        "default", "tracing", "ros-ddp-cancels-stragglers", "cloudex", "dbo", "pfo", "noop", "ntp",
    ],
)
def test_a_cluster_run_leaves_no_cyclic_garbage(overrides):
    cluster = CloudExCluster(CloudExConfig(seed=3, **SMALL, **overrides))
    cluster.add_default_workload()
    assert cyclic_garbage(lambda: cluster.run(0.3)) == 0
    assert cluster.metrics.orders_released > 0


@pytest.mark.parametrize("scenario", [name for name, _ in available_scenarios()])
def test_a_chaos_scenario_leaves_no_cyclic_garbage(scenario):
    results = []  # the result holds the cluster, which is itself cyclic
    assert cyclic_garbage(lambda: results.append(run_scenario(scenario, seed=11))) == 0


def test_shard_windows_leave_no_cyclic_garbage():
    config = ShardRunConfig(n_participants=20_000, n_symbols=4, n_shards=2, duration_s=0.1)
    program = ShardProgram(config, 0)
    window = config.lookahead_ns()

    def windows():
        for index in range(4):
            feedback = {"index": config.initial_price} if index else None
            program.run_window(index, (index + 1) * window, feedback)

    assert cyclic_garbage(windows) == 0
    assert program.stats.trades > 0


@pytest.fixture
def collector_on():
    assert gc.isenabled()
    yield
    gc.enable()


@pytest.fixture
def young_passes():
    """Generations of the collector passes started while the test runs."""
    passes = []
    gc.collect()  # a fresh count: no automatic pass before the test's own

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(record)
    yield passes
    gc.callbacks.remove(record)


class TestCollectorPaused:
    def test_enabled_stays_enabled(self, collector_on):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_stays_disabled_and_is_not_collected(self, collector_on, young_passes):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        assert young_passes == []

    def test_nesting_does_not_re_enable_early(self, collector_on):
        with collector_paused():
            with collector_paused():
                pass
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_raising_handler_restores_the_collector(self, collector_on):
        sim = Simulator()
        sim.schedule(5, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert gc.isenabled()
        gc.disable()
        sim.schedule(5, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert not gc.isenabled()

    def test_a_run_makes_one_young_pass_at_exit(self, collector_on, young_passes):
        sim = Simulator()
        seen = []
        for i in range(5_000):  # allocations far past the gen-0 threshold
            sim.schedule(i, lambda i=i: seen.append([i]))
        gc.collect()
        young_passes.clear()
        sim.run()
        assert len(seen) == 5_000
        assert young_passes == [0]

    def test_step_pauses_around_one_event(self, collector_on):
        sim = Simulator()
        states = []
        sim.schedule(1, lambda: states.append(gc.isenabled()))
        sim.schedule(2, lambda: states.append(gc.isenabled()))
        assert sim.step() is True
        assert gc.isenabled()
        assert sim.step() is True
        assert sim.step() is False
        assert states == [False, False]
        assert sim.now == 2
        assert sim.events_processed == 2
