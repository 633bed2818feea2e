"""The chaos scenario library.

Each scenario pairs a small deterministic cluster with a declarative
:class:`~repro.chaos.schedule.FaultSchedule` and the invariant bounds it
is expected to respect.  :func:`run_scenario` builds the cluster, taps
it with a :class:`~repro.chaos.invariants.ChaosMonitor`, drives a fully
deterministic order workload, and returns a
:class:`~repro.chaos.report.ChaosReport` -- same seed, same schedule,
bit-for-bit identical report.

The headline pair reproduces the paper's §3 fault-tolerance claim:

- ``gateway-crash-rf2-failover``: two gateways crash mid-run while
  participants submit through RF=2 with ack-timeout retries and gateway
  failover -- every order survives, zero invariant violations;
- ``gateway-crash-rf1``: the same crash with RF=1 and no reaction path
  -- the orders submitted into the dead gateway vanish, and the report
  says so (``order_loss`` violations) instead of staying silent.

The workload is an :class:`OrderPump`, not the ZI traders: alternating
buy/sell limit orders at the seeded mid so the book self-balances and
order-loss accounting stays exact (every submitted order either trades,
rests, or was demonstrably dropped by a fault).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.chaos.invariants import ChaosMonitor, InvariantBounds, check_invariants
from repro.chaos.report import ChaosReport
from repro.chaos.schedule import (
    ClockStep,
    FaultSchedule,
    HostCrash,
    LinkDegradation,
    Partition,
    StragglerEpisode,
)
from repro.core.types import Side
from repro.sim.timeunits import SECOND


class OrderPump:
    """Deterministic order workload for chaos runs.

    Submits one limit order every ``interval`` tick, rotating through
    participants and symbols and alternating buy/sell at the seeded
    initial price.  A buy at the mid rests (the seeded ask is one tick
    above); the next sell at the mid crosses it -- so the book hovers
    around its seed and supply never runs out.  No randomness anywhere:
    the submission sequence is a pure function of the tick counter.
    """

    def __init__(self, cluster, rate_per_s: float, stop_at_s: float, quantity: int = 10) -> None:
        self.cluster = cluster
        self.quantity = quantity
        self._interval_ns = int(SECOND / rate_per_s)
        self._stop_ns = int(stop_at_s * SECOND)
        self._tick = 0
        self.orders_sent = 0

    def start(self) -> None:
        self.cluster.sim.schedule(self._interval_ns, self._fire)

    def _fire(self) -> None:
        if self.cluster.sim.now > self._stop_ns:
            return
        participants = self.cluster.participants
        symbols = self.cluster.config.symbols
        # One "pass" covers every symbol once; passes alternate side, so
        # each pass's resting orders are crossed by the next, and the
        # participant offset rotates so the trades cross accounts.
        passes = self._tick // len(symbols)
        participant = participants[(self._tick + passes) % len(participants)]
        symbol = symbols[self._tick % len(symbols)]
        side = Side.BUY if passes % 2 == 0 else Side.SELL
        participant.submit_limit(
            symbol, side, self.quantity, self.cluster.config.initial_price
        )
        self._tick += 1
        self.orders_sent += 1
        self.cluster.sim.schedule(self._interval_ns, self._fire)


@dataclass(frozen=True)
class ScenarioSpec:
    """One entry in the scenario library."""

    name: str
    description: str
    schedule: FaultSchedule
    #: CloudExConfig overrides applied on top of the chaos base config.
    config: Dict[str, object] = field(default_factory=dict)
    bounds: InvariantBounds = InvariantBounds()
    duration_s: float = 3.0
    #: Quiet tail after the pump stops so retries and confirmations drain.
    settle_s: float = 0.75
    rate_per_s: float = 200.0


@dataclass
class ChaosRunResult:
    """A finished chaos run: the report plus the cluster for inspection."""

    report: ChaosReport
    cluster: object


def _base_config(**overrides) -> Dict[str, object]:
    """Small deterministic cluster shared by every scenario.

    ``sequencer_delay_us`` is doubled and spikes are disabled so the
    only reordering and loss in a run is what the schedule injects --
    findings then attribute cleanly to faults.
    """
    kwargs: Dict[str, object] = dict(
        n_participants=4,
        n_gateways=4,
        n_shards=1,
        n_symbols=4,
        sequencer_delay_us=1000.0,
        spike_prob=0.0,
        persist_trades=False,
        subscriptions_per_participant=1,
    )
    kwargs.update(overrides)
    return kwargs


_RESILIENT = dict(
    replication_factor=2,
    ack_timeout_ms=40.0,
    ack_retry_backoff=1.5,
    ack_max_retries=4,
    gateway_failover=True,
    failover_after_timeouts=2,
)


def _spec_smoke() -> ScenarioSpec:
    return ScenarioSpec(
        name="smoke",
        description="CI-sized run: one gateway crash under RF=2 with failover",
        schedule=FaultSchedule((
            HostCrash("g00", at_s=0.5, duration_s=0.4),
        )),
        config=_base_config(**_RESILIENT),
        duration_s=1.8,
        settle_s=0.5,
        rate_per_s=150.0,
    )


def _spec_crash_rf2() -> ScenarioSpec:
    return ScenarioSpec(
        name="gateway-crash-rf2-failover",
        description=(
            "g00 and g01 crash mid-run; RF=2 + retries + failover keep "
            "every order alive (expect zero violations)"
        ),
        schedule=FaultSchedule((
            HostCrash("g00", at_s=1.0, duration_s=0.8),
            HostCrash("g01", at_s=1.0, duration_s=0.8),
        )),
        config=_base_config(**_RESILIENT),
    )


def _spec_crash_rf1() -> ScenarioSpec:
    return ScenarioSpec(
        name="gateway-crash-rf1",
        description=(
            "the same g00 crash with RF=1 and no reaction path: orders "
            "submitted into the dead gateway are lost, and the report "
            "must say so (expect order_loss violations)"
        ),
        schedule=FaultSchedule((
            HostCrash("g00", at_s=1.0, duration_s=0.8),
        )),
        config=_base_config(replication_factor=1),
    )


def _spec_latency_storm() -> ScenarioSpec:
    return ScenarioSpec(
        name="latency-storm",
        description=(
            "p00's access links degrade 4x for a second: slower but "
            "lossless (expect zero violations)"
        ),
        schedule=FaultSchedule((
            LinkDegradation("p00", "g00", at_s=1.0, duration_s=1.0,
                            multiplier=4.0, extra_us=500.0),
            LinkDegradation("g00", "p00", at_s=1.0, duration_s=1.0,
                            multiplier=4.0, extra_us=500.0),
        )),
        config=_base_config(),
    )


def _spec_partition() -> ScenarioSpec:
    return ScenarioSpec(
        name="partition",
        description=(
            "p03 is partitioned from its RF=2 gateway set; failover "
            "routes around the cut (expect zero violations)"
        ),
        schedule=FaultSchedule((
            Partition(("p03",), ("g03", "g00"), at_s=1.0, duration_s=0.8),
        )),
        config=_base_config(**_RESILIENT),
    )


def _spec_clock_step() -> ScenarioSpec:
    return ScenarioSpec(
        name="clock-step",
        description=(
            "g02's clock steps +100us then -60us; Huygens re-disciplines "
            "within a sync round (expect zero violations, d_s absorbs it)"
        ),
        schedule=FaultSchedule((
            ClockStep("g02", at_s=1.0, step_us=100.0),
            ClockStep("g02", at_s=1.7, step_us=-60.0),
        )),
        config=_base_config(),
    )


def _spec_straggler() -> ScenarioSpec:
    return ScenarioSpec(
        name="straggler",
        description=(
            "g03 straggles 2x on every link for a second (bounded "
            "reordering allowed, no loss)"
        ),
        schedule=FaultSchedule((
            StragglerEpisode("g03", at_s=1.0, duration_s=1.0, multiplier=2.0),
        )),
        config=_base_config(),
        bounds=InvariantBounds(max_out_of_sequence=5),
    )


_SCENARIOS: Dict[str, Callable[[], ScenarioSpec]] = {
    spec().name: spec
    for spec in (
        _spec_smoke,
        _spec_crash_rf2,
        _spec_crash_rf1,
        _spec_latency_storm,
        _spec_partition,
        _spec_clock_step,
        _spec_straggler,
    )
}


def available_scenarios() -> List[Tuple[str, str]]:
    """``(name, description)`` for every scenario, sorted by name."""
    return sorted(
        (name, builder().description) for name, builder in _SCENARIOS.items()
    )


def scenario_spec(name: str) -> ScenarioSpec:
    """The library entry called ``name`` (ValueError lists the known ones)."""
    try:
        return _SCENARIOS[name]()
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise ValueError(f"unknown chaos scenario {name!r} (known: {known})") from None


def run_scenario(name: str, seed: int = 11, tracing: bool = False) -> ChaosRunResult:
    """Build, fault, run, and check one scenario deterministically.

    ``tracing=True`` additionally records per-order lifecycle traces
    (``result.cluster.tracer``) for evidence packs.  Trace sampling is
    seed-independent and touches no RNG stream, so the report -- stats,
    findings, counters -- is byte-identical with tracing on or off
    (pinned by the serve test suite).
    """
    spec = scenario_spec(name)
    from repro.core.cluster import CloudExCluster
    from repro.core.config import CloudExConfig

    config = CloudExConfig(seed=seed, chaos=spec.schedule, tracing=tracing, **spec.config)
    cluster = CloudExCluster(config)
    monitor = ChaosMonitor(cluster)
    for index, participant in enumerate(cluster.participants):
        participant.subscribe([config.symbols[index % len(config.symbols)]])
    pump = OrderPump(
        cluster,
        rate_per_s=spec.rate_per_s,
        stop_at_s=spec.duration_s - spec.settle_s,
    )
    pump.start()
    cluster.run(spec.duration_s)
    md_finalized_at_end = cluster.finalize_metrics()
    findings = check_invariants(cluster, monitor, spec.bounds)
    participants = cluster.participants
    stats = {
        "orders_submitted": sum(p.orders_submitted for p in participants),
        "confirmations_received": sum(p.confirmations_received for p in participants),
        "trades_received": sum(p.trades_received for p in participants),
        "retries_sent": sum(p.retries_sent for p in participants),
        "failovers": sum(p.failovers for p in participants),
        "orders_abandoned": sum(p.orders_abandoned for p in participants),
        "gateway_restarts": sum(g.restarts for g in cluster.gateways),
        "orders_released": cluster.metrics.orders_released,
        "out_of_sequence": cluster.metrics.out_of_sequence,
        "unconfirmed_orders": len(cluster.metrics.unconfirmed_orders()),
        "events_processed": cluster.sim.events_processed,
        "md_pieces_partial": cluster.metrics.md_pieces_partial,
        "md_pieces_unreported": cluster.metrics.md_pieces_unreported,
        "md_pieces_finalized_at_end": md_finalized_at_end,
    }
    report = ChaosReport(
        scenario=spec.name,
        seed=seed,
        duration_s=spec.duration_s,
        schedule=spec.schedule,
        injected=list(cluster.chaos.injected),
        findings=findings,
        stats=stats,
        counters=cluster.metrics.counts(),
    )
    return ChaosRunResult(report=report, cluster=cluster)
