"""Ablation: clock-sync precision vs probe rate.

Design-choice ablation for the synchronization substrate (DESIGN.md
§4): the minimum-envelope estimator sharpens with the number of probes
per window (the min of N samples approaches the propagation floor like
the 1/N-th quantile).  Not a paper figure; it justifies the probe rate
the reproduction's calibration depends on.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import bench_scale, emit, sync_testbed
from repro.sim.timeunits import MILLISECOND, SECOND

PROBE_INTERVALS_MS = (40.0, 20.0, 10.0, 5.0)  # 25..200 probes/s/direction
SKIP_S = 3.0


def run_sync(probe_interval_ms: float):
    sim, service = sync_testbed(
        5, 8, "clocks", probe_interval_ns=int(probe_interval_ms * MILLISECOND)
    )
    service.warm_start()
    service.start()
    sim.run(until=int(12 * SECOND * bench_scale()))
    # Steady state only: the warm-up window (shared between compared
    # configurations) would otherwise dominate the tail.  It shrinks with
    # the run, so a small scale still leaves samples to rank.
    skip = int(SKIP_S * bench_scale() * SECOND / (probe_interval_ms * MILLISECOND))
    errors = np.abs(
        np.concatenate([service._state[c.name].error_samples_ns[skip:] for c in service.clients])
    )
    return float(np.percentile(errors, 50)), float(np.percentile(errors, 99))


def test_precision_vs_probe_rate():
    results = {interval: run_sync(interval) for interval in PROBE_INTERVALS_MS}
    emit(
        "Ablation: Huygens residual error vs probe rate (8 gateways)",
        ["probes/s/dir", "p50 (ns)", "p99 (ns)"],
        [
            [f"{1000/interval:.0f}", f"{p50:.0f}", f"{p99:.0f}"]
            for interval, (p50, p99) in results.items()
        ],
    )
    # More probes -> sharper envelope: the slowest rate is measurably
    # worse than the fastest at the median.
    slowest = results[PROBE_INTERVALS_MS[0]]
    fastest = results[PROBE_INTERVALS_MS[-1]]
    assert fastest[0] < slowest[0]
    # Everything stays far below NTP's millisecond regime.
    assert all(p99 < 100_000 for _, p99 in results.values())
