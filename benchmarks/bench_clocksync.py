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

import numpy as np
import pytest

from benchmarks.conftest import bench_scale, emit, paper_testbed_config, run_measured
from repro.clocksync.ntp import NtpEstimator
from repro.clocksync.service import ClockSyncService
from repro.core.config import CLOCK_DRIFT_PPB_MAX, CLOCK_OFFSET_NS_MAX, CloudExConfig
from repro.sim.engine import Simulator
from repro.sim.latency import GammaLatency
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.timeunits import MILLISECOND, SECOND


def _sync_testbed(estimator=None, path_override=None):
    """One reference plus 16 gateway clocks over calibrated cloud links."""
    sim = Simulator()
    rngs = RngRegistry(2021)
    network = Network(sim, rngs)
    reference = network.add_host("engine")
    clients = []
    clock_rng = rngs.stream("bench:clocks")
    link = CloudExConfig().link_model("gateway_engine")
    for i in range(16):
        client = network.add_host(
            f"g{i:02d}",
            drift_ppb=int(clock_rng.integers(-CLOCK_DRIFT_PPB_MAX, CLOCK_DRIFT_PPB_MAX + 1)),
            offset_ns=int(clock_rng.integers(-CLOCK_OFFSET_NS_MAX, CLOCK_OFFSET_NS_MAX + 1)),
        )
        network.connect_bidirectional("engine", client.name, link)
        clients.append(client)
    service = ClockSyncService(
        sim,
        network,
        reference,
        clients,
        rngs,
        estimator=estimator,
        path_override=path_override,
    )
    return sim, service


def test_clock_offset_percentiles(benchmark):
    """Huygens vs NTP residual offsets (paper: ~159 ns vs ~10 ms)."""

    def run():
        duration = int(20 * SECOND * bench_scale())
        sim, huygens = _sync_testbed()
        huygens.warm_start()
        huygens.start()
        sim.run(until=duration)
        huygens_p99 = huygens.error_percentile_ns(99)
        huygens_p50 = huygens.error_percentile_ns(50)

        sim2, ntp = _sync_testbed(
            estimator=NtpEstimator(),
            path_override=(
                GammaLatency(2 * MILLISECOND, 2.0, 2 * MILLISECOND),
                GammaLatency(2 * MILLISECOND, 2.0, 12 * MILLISECOND),
            ),
        )
        ntp.warm_start(2)
        ntp.start()
        sim2.run(until=duration)
        ntp_p99 = ntp.error_percentile_ns(99)
        ntp_p50 = ntp.error_percentile_ns(50)
        return huygens_p50, huygens_p99, ntp_p50, ntp_p99

    h50, h99, n50, n99 = benchmark.pedantic(run, rounds=1, iterations=1)
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


def test_unfairness_with_and_without_sync(benchmark):
    """Inbound unfairness at static d_s = 0 (paper: 24.6% -> 8.4%)."""

    def run():
        results = {}
        for mode in ("none", "huygens"):
            cluster = run_measured(
                paper_testbed_config(clock_sync=mode, sequencer_delay_us=0.0),
                warmup_s=0.3,
                measure_s=1.0,
            )
            results[mode] = (
                cluster.metrics.inbound_unfairness_ratio(),
                cluster.metrics.inbound_unfairness_ratio_true(),
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
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
