"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation (§4) and prints the measured rows next to the paper's
values.  Absolute numbers come from the calibrated simulator; the
reproduction target is the *shape* (who wins, rough factors, where
crossovers fall) -- see EXPERIMENTS.md.

Scaling
-------
The paper ran each experiment for 5 minutes on a 65-node cluster; a
pure-Python discrete-event simulation of the same 22k orders/s costs
roughly 10 s of wall time per simulated second, so benchmarks default
to a few simulated seconds -- enough for stable percentiles and many
DDP windows.  Set ``CLOUDEX_BENCH_SCALE`` to stretch or shrink every
duration (e.g. ``CLOUDEX_BENCH_SCALE=0.3`` for a quick smoke pass,
``3`` for tighter tails).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.clocksync.service import ClockSyncService
from repro.core.cluster import CloudExCluster
from repro.core.config import CLOCK_DRIFT_PPB_MAX, CLOCK_OFFSET_NS_MAX, CloudExConfig
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry


def bench_scale() -> float:
    """Global duration multiplier from CLOUDEX_BENCH_SCALE."""
    return float(os.environ.get("CLOUDEX_BENCH_SCALE", "1.0"))


def bench_jobs() -> int:
    """Sweep worker processes from CLOUDEX_BENCH_JOBS (default 1).

    The measured trajectories are identical for any value (see
    repro.exp); more jobs just finishes a multi-point benchmark
    sooner on a multi-core machine.
    """
    return int(os.environ.get("CLOUDEX_BENCH_JOBS", "1"))


#: The §4 testbed shape shared by every benchmark.  The seed is what
#: every historical benchmark run used; sweeps pass it explicitly via
#: ``SweepSpec(seeds=[PAPER_SEED])`` so trajectories stay unchanged.
PAPER_SEED = 2021


def paper_testbed_overrides(**overrides) -> dict:
    """The §4 testbed as a plain override dict (for sweep specs):
    48 participants, 16 gateways, 100 symbols, ~22k orders/s, one
    shard unless overridden."""
    defaults = dict(
        n_participants=48,
        n_gateways=16,
        n_symbols=100,
        n_shards=1,
        orders_per_participant_per_s=450.0,
        subscriptions_per_participant=2,
        snapshot_interval_ms=100.0,
        market_order_fraction=0.05,
        cancel_fraction=0.05,
    )
    defaults.update(overrides)
    return defaults


def paper_testbed_config(**overrides) -> CloudExConfig:
    """The §4 testbed as a built config (see paper_testbed_overrides)."""
    seed = overrides.pop("seed", PAPER_SEED)
    return CloudExConfig(seed=seed, **paper_testbed_overrides(**overrides))


def run_measured(
    config: CloudExConfig,
    warmup_s: float,
    measure_s: float,
    rate_per_participant: Optional[float] = None,
) -> CloudExCluster:
    """Build a cluster and run the standard measurement protocol on it,
    both durations stretched by :func:`bench_scale`."""
    scale = bench_scale()
    cluster = CloudExCluster(config)
    cluster.measured_run(warmup_s * scale, measure_s * scale, rate_per_participant)
    return cluster


def emit(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print one reproduced table/figure, flush-through pytest capture."""
    banner = "=" * max(len(title), 8)
    print(f"\n{banner}\n{title}\n{banner}")
    print(format_table(headers, rows))


def sync_testbed(
    seed: int, n_clients: int, clock_stream: str, **service_options
) -> Tuple[Simulator, ClockSyncService]:
    """The §4 clock-sync testbed: an ``engine`` reference plus
    ``n_clients`` gateway clocks, each booted with a drift and offset
    drawn off ``clock_stream``, over the calibrated gateway-engine link.
    ``service_options`` go to :class:`ClockSyncService`."""
    sim = Simulator()
    rngs = RngRegistry(seed)
    network = Network(sim, rngs)
    reference = network.add_host("engine")
    clock_rng = rngs.stream(clock_stream)
    link = CloudExConfig().link_model("gateway_engine")
    clients = []
    for i in range(n_clients):
        client = network.add_host(
            f"g{i:02d}",
            drift_ppb=int(clock_rng.integers(-CLOCK_DRIFT_PPB_MAX, CLOCK_DRIFT_PPB_MAX + 1)),
            offset_ns=int(clock_rng.integers(-CLOCK_OFFSET_NS_MAX, CLOCK_OFFSET_NS_MAX + 1)),
        )
        network.connect_bidirectional("engine", client.name, link)
        clients.append(client)
    return sim, ClockSyncService(sim, network, reference, clients, rngs, **service_options)
