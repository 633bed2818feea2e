"""Reproduce §4 'Clock Synchronization'.

Paper numbers:
- Huygens: 99th-percentile clock offsets average ~159 ns over a 3-hour
  run.
- NTP: ~10 ms offsets between gateways, unusable for sequencing.
- Without the inbound resequencing mechanism (free-running clocks),
  the inbound unfairness ratio is 24.6%; with clock synchronization,
  even a static d_s = 0 achieves 8.4%.
"""

from __future__ import annotations

from benchmarks.conftest import (
    bench_scale,
    emit,
    paper_testbed_config,
    run_measured,
    sync_testbed,
)
from repro.clocksync.ntp import NtpEstimator
from repro.sim.latency import GammaLatency
from repro.sim.timeunits import MILLISECOND, SECOND


def test_clock_offset_percentiles():
    """Huygens vs NTP residual offsets (paper: ~159 ns vs ~10 ms), 16
    gateway clocks each."""
    duration = int(20 * SECOND * bench_scale())
    sim, huygens = sync_testbed(2021, 16, "bench:clocks")
    huygens.warm_start()
    huygens.start()
    sim.run(until=duration)
    h99 = huygens.error_percentile_ns(99)
    h50 = huygens.error_percentile_ns(50)

    sim2, ntp = sync_testbed(
        2021,
        16,
        "bench:clocks",
        estimator=NtpEstimator(),
        path_override=(
            GammaLatency(2 * MILLISECOND, 2.0, 2 * MILLISECOND),
            GammaLatency(2 * MILLISECOND, 2.0, 12 * MILLISECOND),
        ),
    )
    ntp.warm_start(2)
    ntp.start()
    sim2.run(until=duration)
    n99 = ntp.error_percentile_ns(99)
    n50 = ntp.error_percentile_ns(50)
    emit(
        "§4 Clock synchronization: residual clock offsets (16 gateways)",
        ["sync", "p50", "p99", "paper p99"],
        [
            ["huygens", f"{h50:.0f} ns", f"{h99:.0f} ns", "~159 ns"],
            ["ntp", f"{n50/1e6:.1f} ms", f"{n99/1e6:.1f} ms", "~10 ms"],
        ],
    )
    assert h99 < 2_000  # nanosecond regime
    assert n99 > 1_000_000  # millisecond regime


def test_unfairness_with_and_without_sync():
    """Inbound unfairness at static d_s = 0 (paper: 24.6% -> 8.4%)."""
    results = {}
    for mode in ("none", "huygens"):
        cluster = run_measured(
            paper_testbed_config(clock_sync=mode, sequencer_delay_us=0.0),
            warmup_s=0.3,
            measure_s=1.0,
        )
        payload = cluster.result_payload()
        results[mode] = (payload["inbound_unfairness"], payload["inbound_unfairness_true"])
    emit(
        "§4 Inbound unfairness at static d_s = 0",
        ["clocks", "measured", "ground truth", "paper"],
        [
            [
                "free-running (no resequencing basis)",
                f"{results['none'][0]:.1%}",
                f"{results['none'][1]:.1%}",
                "24.6%",
            ],
            [
                "huygens-synchronized",
                f"{results['huygens'][0]:.1%}",
                f"{results['huygens'][1]:.1%}",
                "8.4%",
            ],
        ],
    )
    # Shape: synchronization cuts true unfairness by a large factor.
    assert results["none"][1] > 2 * results["huygens"][1]
