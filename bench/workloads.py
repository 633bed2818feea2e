"""The three simulation workloads: inputs, one repetition, its checks.

A *repetition* builds a new system from ``seed``, runs it once, checks
conservation / integrity, and hashes the simulated statistics to a
``sim_digest``.  Host time is what the benchmark measures; the simulated
statistics must repeat exactly and are the correctness check.  The
program only ever sees the generated config, never the workload name.

The caller passes ``timed`` and so chooses the clock: the end-to-end runs
time every piece of a repetition between two calibration slices
(:class:`bench.calibrate.Clock`), the traced runs use the raw host
clock.  The cluster is run in :data:`CLUSTER_STEPS` consecutive
``cluster.run()`` calls so that no timed piece is longer than a few
tenths of a second; the batched kernel is one call and one piece.

Sizes give a repetition of 0.6 to 1.4 s on the 2-core reference box (see
``bench/README.md``).  ``scale`` shrinks the simulated duration only.
"""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import CloudExCluster, CloudExConfig
from repro.core.shardrun import ShardRunConfig, run_shardrun

from bench.calibrate import raw_timed
from bench.trace import Region, Tracer

#: ``cluster.run()`` calls one cluster repetition is timed in.
CLUSTER_STEPS = 6


@dataclass
class Repetition:
    build_s: float  # constructing the system (0 where the timed call builds it)
    run_s: float  # the timed calls: cluster.run() / run_shardrun()
    region: Optional[Region]  # traced runs: the layer totals of those calls
    orders: int  # simulated orders the engine fully processed
    attempted: int
    failed: int
    problems: List[str]  # violated conservation / integrity checks
    sim_digest: str
    #: Simulated statistics and exact counts the per-layer metrics use.
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return self.build_s + self.run_s


#: ``timed(piece) -> (piece(), its host seconds)``; see bench.calibrate.
Timed = Callable[[Callable[[], object]], tuple]


def _collect_previous_system() -> None:
    """The previous repetition's system is cyclic garbage; collecting it
    outside the timed region starts every repetition from the same heap
    instead of charging one repetition for another's leftovers."""
    gc.collect()


def digest(document: object) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Event-driven cluster
# ----------------------------------------------------------------------
def _build_cluster(seed: int, config: Dict[str, object]) -> CloudExCluster:
    cluster = CloudExCluster(CloudExConfig(seed=seed, **config))
    cluster.add_default_workload()
    return cluster


def _cluster_problems(cluster: CloudExCluster, cash_before: int) -> List[str]:
    problems = []
    cash = cluster.portfolio.total_cash()
    if cash != cash_before:
        problems.append(f"total cash moved by {cash - cash_before}")
    for symbol in cluster.config.symbols:
        net = cluster.portfolio.total_shares(symbol)
        if net != 0:
            problems.append(f"net shares of {symbol} is {net}")
    for shard in cluster.exchange.shards:
        for symbol, book in shard.core.books.items():
            bid, ask = book.best_bid(), book.best_ask()
            if bid is not None and ask is not None and bid >= ask:
                problems.append(f"{symbol} book is crossed: bid {bid} >= ask {ask}")
    return problems


def _region(tracer: Optional[Tracer]):
    return Region(tracer) if tracer is not None else nullcontext()


def _cluster_repetition(
    seed: int,
    scale: float,
    tracer: Optional[Tracer],
    timed: Timed,
    duration_s: float,
    config: Dict[str, object],
) -> Repetition:
    _collect_previous_system()
    cluster, build_s = timed(lambda: _build_cluster(seed, config))
    cash_before = cluster.portfolio.total_cash()
    step_s = duration_s * scale / CLUSTER_STEPS
    with _region(tracer) as region:
        run_s = sum(timed(lambda: cluster.run(step_s))[1] for _ in range(CLUSTER_STEPS))
    payload = cluster.result_payload()
    orders = int(payload["orders_matched"])
    dropped = int(payload["messages_dropped"])
    problems = _cluster_problems(cluster, cash_before)
    replicas = payload["replicas_received"]
    return Repetition(
        build_s=build_s,
        run_s=run_s,
        region=region,
        orders=orders,
        attempted=orders + dropped,
        failed=orders + dropped if problems else dropped,
        problems=problems,
        sim_digest=digest(payload),
        stats={
            "events": payload["events_processed"],
            "trades": payload["trades_executed"],
            "dup_ratio": payload["duplicates_dropped"] / replicas if replicas else 0.0,
            "queue_wait_sim_us": payload["mean_queuing_delay_us"],
            "hold_sim_us": payload["mean_releasing_delay_us"],
            "late_ratio": payload["hr_late_ratio"],
        },
    )


# ----------------------------------------------------------------------
# Batched shard kernel
# ----------------------------------------------------------------------
def _shardrun_repetition(
    seed: int,
    scale: float,
    tracer: Optional[Tracer],
    timed: Timed,
    duration_s: float,
    config: Dict[str, object],
) -> Repetition:
    run_config = ShardRunConfig(seed=seed, duration_s=duration_s * scale, **config)
    _collect_previous_system()
    with _region(tracer) as region:
        report, run_s = timed(lambda: run_shardrun(run_config, jobs=1))
    totals = report["totals"]
    conservation = report["conservation"]
    problems = []
    if conservation["net_position"] != 0 or conservation["net_cash"] != 0:
        problems.append(f"conservation violated: {conservation}")
    orders = int(totals["orders"])
    return Repetition(
        build_s=0.0,
        run_s=run_s,
        region=region,
        orders=orders,
        attempted=orders,
        failed=orders if problems else 0,
        problems=problems,
        sim_digest=digest(report),
        stats={
            # Every arrival is one bulk-scheduled delivery event.
            "events": totals["arrivals"] - totals["unprocessed"],
            "trades": totals["trades"],
            "shard_windows": report["windows"] * run_config.n_shards,
        },
    )


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimWorkload:
    name: str
    #: ``repetition(seed, scale, tracer, timed)``
    repetition: Callable[..., Repetition]
    #: What a fresh process builds before its first timed instant.
    setup: Callable[[int], object]


_TABLE1 = dict(
    n_participants=48, n_gateways=16, n_symbols=100, n_shards=4,
    orders_per_participant_per_s=1700.0, replication_factor=1,
    cancel_fraction=0.0, clock_sync="huygens",
)
_ROS_DDP = dict(
    n_shards=1, replication_factor=3, cancel_fraction=0.2,
    ddp_inbound_target=0.01, ddp_outbound_target=0.01,
    straggler_gateways=2, persist_trades=True,
)


def _cluster_workload(name: str, duration_s: float, config: Dict[str, object]) -> SimWorkload:
    def repetition(seed, scale=1.0, tracer=None, timed=raw_timed):
        return _cluster_repetition(seed, scale, tracer, timed, duration_s, config)

    return SimWorkload(name, repetition, lambda seed: _build_cluster(seed, config))


def _shardrun_workload(name: str, duration_s: float, config: Dict[str, object]) -> SimWorkload:
    def repetition(seed, scale=1.0, tracer=None, timed=raw_timed):
        return _shardrun_repetition(seed, scale, tracer, timed, duration_s, config)

    # Shards are constructed inside run_shardrun(), i.e. in the timed
    # wall; set-up is the imports alone.
    return SimWorkload(name, repetition, lambda seed: None)


SIM_WORKLOADS = {
    w.name: w
    for w in (
        _cluster_workload("cluster_table1", 0.1, _TABLE1),
        _cluster_workload("cluster_ros_ddp", 0.26, _ROS_DDP),
        _shardrun_workload("shardrun_1m", 0.16, {}),
    )
}


def setup_probe(name: str, seed: int) -> None:
    """Run by a fresh interpreter to sample ``setup_s`` (see bench.run)."""
    SIM_WORKLOADS[name].setup(seed)
    print("ready", flush=True)
