"""Chaos-off overhead guard + smoke scenario benchmark.

Not a paper figure: guards the ``repro.chaos`` integration contract.
Like tracing, fault injection must be free when disabled -- every hook
on the hot path (participant ack timers, engine confirmation replay,
link fault multipliers, partition blocks) is gated behind a single
``is not None``/flag test.  The first benchmark proves it behaviourally:
a run with no chaos config and a run with an *armed but empty* fault
schedule must be event-for-event identical, with identical metrics and
counters.  The second times the CI smoke scenario end to end and
asserts it stays invariant-clean.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit, run_once

from repro.chaos import FaultSchedule, run_scenario
from repro.core.cluster import CloudExCluster
from repro.core.config import CloudExConfig


def _cluster(chaos) -> CloudExCluster:
    config = CloudExConfig(
        seed=7,
        n_participants=8,
        n_gateways=4,
        n_symbols=8,
        orders_per_participant_per_s=300.0,
        subscriptions_per_participant=2,
        chaos=chaos,
    )
    cluster = CloudExCluster(config)
    cluster.add_default_workload()
    cluster.run(duration_s=1.0)
    return cluster


def test_chaos_off_pays_only_a_none_check(benchmark):
    def run_pair():
        t0 = time.perf_counter()
        off = _cluster(chaos=None)
        t1 = time.perf_counter()
        armed = _cluster(chaos=FaultSchedule(()))
        t2 = time.perf_counter()
        return off, armed, t1 - t0, t2 - t1

    off, armed, off_s, armed_s = run_once(benchmark, run_pair)

    # Bit-for-bit behavioural equality: same event count, same released
    # orders, same counters (modulo the chaos.* counters the armed
    # injector registers at zero).
    assert off.sim.events_processed == armed.sim.events_processed
    assert off.metrics.orders_released == armed.metrics.orders_released
    armed_counters = {
        name: value
        for name, value in armed.metrics.counts().items()
        if not name.startswith("chaos.")
    }
    assert armed_counters == off.metrics.counts()

    emit(
        "Chaos-off overhead (no-chaos run vs armed empty schedule)",
        ["variant", "events", "orders released", "wall (s)"],
        [
            ["chaos=None", off.sim.events_processed,
             off.metrics.orders_released, f"{off_s:.2f}"],
            ["empty schedule", armed.sim.events_processed,
             armed.metrics.orders_released, f"{armed_s:.2f}"],
        ],
    )


def test_chaos_smoke_scenario(benchmark):
    result = run_once(benchmark, lambda: run_scenario("smoke", seed=11))
    report = result.report
    assert report.ok, [f.message for f in report.findings]
    assert report.stats["gateway_restarts"] == 1

    emit(
        "Chaos smoke scenario (gateway crash under RF=2 + failover)",
        ["stat", "value"],
        sorted([name, value] for name, value in report.stats.items()),
    )
