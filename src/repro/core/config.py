"""CloudEx cluster configuration.

One :class:`CloudExConfig` describes a whole deployment: topology,
fairness delays, DDP targets, ROS replication, network latency models,
clock behaviour, the engine's service-time model, and CPU accounting
constants.  Defaults reproduce the paper's testbed shape (48
participants, 16 gateways, 100 symbols, ~22k orders/s aggregate).

Calibration notes (see DESIGN.md §3)
------------------------------------
- *Network*: each link is a hard floor + gamma jitter + rare spikes
  (participant<->gateway 115 us + gamma(0.7, 33 us); gateway<->engine
  178 us + gamma(0.7, 92 us); spikes p=0.003 x<=11).  The composed
  submission path measures ~370 / ~705 / ~990 us at p50/p99/p99.9 vs
  the paper's 365 / 678 / 1096 (Fig. 6a, RF=1).
- *Engine service model*: 8 us ingress per replica on one ingress core
  (dedup work -- its queue heating up past RF=3 at 22k orders/s is
  Fig. 6a's degradation), 29 us mean book work per order within a
  shard (gamma, CV 0.8), 16.4 us mean in the global portfolio critical
  section (caps aggregate throughput at ~61k orders/s; measured Table 1
  curve 22k/41k/59k/61k/61k vs paper 22k/40k/49k/61k/61k).
- *CPU accounting* (Fig. 6b): VM-level core usage is dominated by
  messaging/polling overheads, so accounted per-message costs are much
  larger than critical-path service times.  Engine: 529 us/order +
  61 us/replica.  Gateway: baseline 2.05 cores + 254 us/replica.
  Participant: baseline 0.3 cores + 222 us/replica.  Measured across
  RF = 1..5: engine 12.8 -> 18.1 cores (paper 13.0 -> 18.4), gateway
  2.39 -> 3.77 (2.4 -> 3.8), participant 0.40 -> 0.80 (0.4 -> 0.8).
- *Clocks*: drift up to +-50 ppm, boot offsets up to +-5 ms; Huygens
  sync at 1 Hz with 100 probe pairs/s yields ~50 ns median / ~250 ns
  p99 residual (paper: 159 ns p99); NTP through a distant asymmetric
  path yields ~10 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.chaos.schedule import FaultSchedule
from repro.sim.latency import LatencyModel, cloud_link
from repro.sim.timeunits import MICROSECOND, MILLISECOND, SECOND

#: Known fairness backends.  Kept as a literal (rather than imported
#: from repro.fairness.base.POLICY_NAMES) so the config layer stays
#: import-light; tests/fairness pins the two tuples equal.
_FAIRNESS_POLICIES = ("cloudex", "dbo", "pfo", "noop")


def default_symbols(count: int) -> List[str]:
    """SYM000, SYM001, ... -- deterministic symbol universe."""
    if count < 1:
        raise ValueError(f"need at least one symbol, got {count}")
    return [f"SYM{index:03d}" for index in range(count)]


@dataclass
class CloudExConfig:
    """Everything needed to build a :class:`repro.core.cluster.CloudExCluster`."""

    # ------------------------------------------------------------------
    # Reproducibility
    # ------------------------------------------------------------------
    seed: int = 1

    # ------------------------------------------------------------------
    # Topology (paper §4: 48 participants, 16 gateways, 1 engine VM)
    # ------------------------------------------------------------------
    n_participants: int = 48
    n_gateways: int = 16
    n_shards: int = 1
    n_symbols: int = 100
    symbols: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------
    initial_cash: int = 1_000_000_00  # $1M in cents
    initial_price: int = 100_00  # $100.00
    initial_book_depth: int = 5  # seeded resting levels per side
    initial_book_qty: int = 500  # shares per seeded level

    # ------------------------------------------------------------------
    # Fairness delays (paper §2.2)
    # ------------------------------------------------------------------
    sequencer_delay_us: float = 500.0  # d_s
    holdrelease_delay_us: float = 1000.0  # d_h

    # ------------------------------------------------------------------
    # Fairness policy (repro.fairness): which mechanism answers the
    # inbound-ordering and outbound-release questions.  "cloudex" (the
    # default) is the paper's d_s sequencer + d_h hold/release, wired
    # bit-identically to the pre-policy code.  "dbo" orders by measured
    # per-gateway delay bounds with no clock sync, "pfo" holds for a
    # latency-model quantile chosen from a miss-probability threshold,
    # "noop" is the unfair passthrough baseline.
    # ------------------------------------------------------------------
    fairness_policy: str = "cloudex"
    #: DBO: sliding-window length (per gateway) for the lag bounds.
    dbo_window: int = 128
    #: DBO: upper bound on the adaptive release guard.
    dbo_guard_cap_us: float = 250.0
    #: PFO: target posterior probability that no earlier-sent message
    #: is still in flight at release time.
    pfo_threshold: float = 0.9
    #: PFO: Monte-Carlo samples used to calibrate the hold quantiles.
    pfo_calibration_draws: int = 512

    # ------------------------------------------------------------------
    # DDP (paper §3): None = static delay parameter
    # ------------------------------------------------------------------
    ddp_inbound_target: Optional[float] = None
    ddp_outbound_target: Optional[float] = None
    ddp_window: int = 1000
    ddp_step_us: float = 5.0
    ddp_update_every: int = 50
    ddp_max_delay_us: float = 5000.0

    # ------------------------------------------------------------------
    # ROS (paper §3)
    # ------------------------------------------------------------------
    replication_factor: int = 1
    #: Engine-side dedup-table entry lifetime.  Retries make this load-
    #: bearing: an entry swept before a retry arrives would let the
    #: same order execute twice (see repro.chaos invariant checks).
    ros_dedup_ttl_s: float = 5.0

    # ------------------------------------------------------------------
    # Fault tolerance (repro.chaos): ack-timeout detection, retry with
    # backoff, and gateway failover.  ``ack_timeout_ms = None`` disables
    # the whole reaction path -- participants then pay nothing and seed
    # behaviour is bit-for-bit unchanged.
    # ------------------------------------------------------------------
    ack_timeout_ms: Optional[float] = None
    ack_retry_backoff: float = 2.0
    ack_max_retries: int = 2
    #: Promote a replica gateway to primary after repeated ack timeouts
    #: (requires the participant to be wired to >= 2 gateways).
    gateway_failover: bool = False
    failover_after_timeouts: int = 2
    #: Declarative fault schedule armed by the cluster on first run()
    #: (None = no chaos; see repro.chaos.schedule.FaultSchedule).
    chaos: Optional[FaultSchedule] = None

    # ------------------------------------------------------------------
    # Network latency models (one-way): hard floor + gamma jitter +
    # rare spikes (see repro.sim.latency.cloud_link)
    # ------------------------------------------------------------------
    participant_gateway_base_us: float = 115.0
    participant_gateway_jitter_shape: float = 0.7
    participant_gateway_jitter_scale_us: float = 33.0
    gateway_engine_base_us: float = 178.0
    gateway_engine_jitter_shape: float = 0.7
    gateway_engine_jitter_scale_us: float = 92.0
    spike_prob: float = 0.006
    spike_scale: float = 5.0
    straggler_gateways: int = 0
    straggler_multiplier: float = 2.0
    #: Fig. 5: extra delays injected on gateway->engine links, cycling
    #: every ``injected_phase_seconds`` (e.g. (0.0, 400.0, 200.0)).
    injected_delay_phases_us: Optional[Tuple[float, ...]] = None
    injected_phase_seconds: float = 6.0
    #: Fraction of gateways whose engine link gets the injection.  The
    #: paper injects on "the gateway-engine link" (not all of them);
    #: delaying a subset creates the sustained cross-gateway asymmetry
    #: that reorders traffic, whereas delaying every link equally
    #: shifts all timestamps together and barely reorders anything.
    injected_gateway_fraction: float = 0.25

    # ------------------------------------------------------------------
    # Clocks and synchronization
    # ------------------------------------------------------------------
    clock_drift_ppb_max: int = 50_000
    clock_offset_ms_max: float = 5.0
    #: "huygens" | "ntp" | "none" (free-running clocks) | "perfect"
    clock_sync: str = "huygens"
    sync_interval_ms: float = 1000.0
    probe_interval_ms: float = 10.0
    sync_warm_start_rounds: int = 3
    #: Huygens "network effect": gateways probe each other too, and a
    #: mesh-wide least-squares fit reconciles the estimates (cuts the
    #: residual-error tail at extra probing cost).
    sync_use_mesh: bool = False

    # ------------------------------------------------------------------
    # Engine critical-path service model
    # ------------------------------------------------------------------
    ingress_service_us: float = 8.0
    book_service_us: float = 29.0
    #: Coefficient of variation of per-order book work.  Matching cost
    #: varies with fills and book depth; the variability also breaks
    #: the phase-locking a deterministic closed system would exhibit
    #: around the portfolio lock, producing Table 1's gradual ramp.
    book_service_cv: float = 0.8
    lock_service_us: float = 16.4
    lock_service_cv: float = 0.3
    gateway_service_us: float = 5.0

    # ------------------------------------------------------------------
    # CPU accounting (Fig. 6b; cores = baseline + rate * per-message)
    # ------------------------------------------------------------------
    engine_cpu_baseline_cores: float = 0.0
    engine_cpu_per_order_us: float = 529.0
    engine_cpu_per_replica_us: float = 61.0
    gateway_cpu_baseline_cores: float = 2.05
    gateway_cpu_per_replica_us: float = 254.0
    participant_cpu_baseline_cores: float = 0.3
    participant_cpu_per_replica_us: float = 222.0

    # ------------------------------------------------------------------
    # Market data dissemination
    # ------------------------------------------------------------------
    snapshot_interval_ms: float = 100.0
    snapshot_depth: int = 5
    subscriptions_per_participant: int = 3

    # ------------------------------------------------------------------
    # Pre-trade risk (None = unconstrained, the course-deployment mode)
    # ------------------------------------------------------------------
    risk_max_position: Optional[int] = None
    risk_max_order_notional: Optional[int] = None
    #: Cancel a resting order rather than let it trade against the same
    #: participant's incoming order ("cancel resting" STP).
    self_trade_prevention: bool = False
    #: Circuit breaker: halt a symbol when its price moves more than
    #: this fraction within ``halt_window_ms`` (None = disabled).
    halt_threshold: Optional[float] = None
    halt_window_ms: float = 1000.0
    halt_duration_ms: float = 2000.0

    # ------------------------------------------------------------------
    # Storage: the market-data table.  Persisted trades are the trade
    # tape -- with the lifecycle tracer below, the per-order record
    # (paper §6); there is no second per-order log.
    # ------------------------------------------------------------------
    persist_trades: bool = True
    persist_snapshots: bool = False

    # ------------------------------------------------------------------
    # Observability (repro.obs): per-order lifecycle tracing and the
    # structured event log.  Tracing off is the production default;
    # operational counts are always on (plain ints on their components).
    # ------------------------------------------------------------------
    tracing: bool = False
    #: Fraction of orders traced (deterministic per-order hash, so the
    #: same orders are sampled across runs regardless of seed).
    trace_sample_rate: float = 1.0
    event_log_capacity: int = 4096

    # ------------------------------------------------------------------
    # Workload (traders attached by the cluster builder)
    # ------------------------------------------------------------------
    orders_per_participant_per_s: float = 450.0
    market_order_fraction: float = 0.10
    cancel_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.symbols is None:
            self.symbols = default_symbols(self.n_symbols)
        else:
            self.n_symbols = len(self.symbols)
        self.validate()

    # ------------------------------------------------------------------
    # Derived values (integer nanoseconds)
    # ------------------------------------------------------------------
    @property
    def sequencer_delay_ns(self) -> int:
        return int(self.sequencer_delay_us * MICROSECOND)

    @property
    def holdrelease_delay_ns(self) -> int:
        return int(self.holdrelease_delay_us * MICROSECOND)

    @property
    def ddp_step_ns(self) -> int:
        return int(self.ddp_step_us * MICROSECOND)

    @property
    def ddp_max_delay_ns(self) -> int:
        return int(self.ddp_max_delay_us * MICROSECOND)

    @property
    def snapshot_interval_ns(self) -> int:
        return int(self.snapshot_interval_ms * MILLISECOND)

    @property
    def sync_interval_ns(self) -> int:
        return int(self.sync_interval_ms * MILLISECOND)

    @property
    def probe_interval_ns(self) -> int:
        return int(self.probe_interval_ms * MILLISECOND)

    @property
    def injected_phase_ns(self) -> int:
        return int(self.injected_phase_seconds * SECOND)

    @property
    def ack_timeout_ns(self) -> Optional[int]:
        if self.ack_timeout_ms is None:
            return None
        return int(self.ack_timeout_ms * MILLISECOND)

    @property
    def ros_dedup_ttl_ns(self) -> int:
        return int(self.ros_dedup_ttl_s * SECOND)

    @property
    def aggregate_order_rate(self) -> float:
        """Offered orders/second across all participants."""
        return self.n_participants * self.orders_per_participant_per_s

    def link_model(self, leg: str, scale: float = 1.0) -> LatencyModel:
        """One-way latency model of a ``"participant_gateway"`` or
        ``"gateway_engine"`` link: hard floor + gamma jitter + rare
        spikes.  ``scale`` shortens floor and jitter together (the
        gateway<->gateway probe mesh is a shorter hop of the same
        fabric)."""
        return cloud_link(
            getattr(self, f"{leg}_base_us") * scale,
            getattr(self, f"{leg}_jitter_shape"),
            getattr(self, f"{leg}_jitter_scale_us") * scale,
            self.spike_prob,
            self.spike_scale,
        )

    # ------------------------------------------------------------------
    # Validation and variants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject configurations the builder cannot realize."""
        if self.n_participants < 1:
            raise ValueError("need at least one participant")
        if self.n_gateways < 1:
            raise ValueError("need at least one gateway")
        if not 1 <= self.replication_factor <= self.n_gateways:
            raise ValueError(
                f"replication factor {self.replication_factor} must be in "
                f"[1, n_gateways={self.n_gateways}]"
            )
        if self.n_shards < 1:
            raise ValueError("need at least one shard")
        if self.n_shards > self.n_symbols:
            raise ValueError(
                f"{self.n_shards} shards cannot each own a symbol "
                f"(only {self.n_symbols} symbols)"
            )
        if self.straggler_gateways > self.n_gateways:
            raise ValueError("more straggler gateways than gateways")
        if self.straggler_gateways > 0 and self.straggler_multiplier < 1.0:
            raise ValueError(
                f"straggler_multiplier must be >= 1, got {self.straggler_multiplier}"
            )
        for leg in ("participant_gateway", "gateway_engine"):
            # cloud_link states the base/jitter/spike ranges; building
            # the model here is the check.
            try:
                self.link_model(leg)
            except ValueError as exc:
                raise ValueError(f"{leg}_* / spike_* link latency fields: {exc}") from None
        if self.injected_delay_phases_us is not None:
            if not self.injected_delay_phases_us:
                raise ValueError("injected_delay_phases_us must be non-empty (or None)")
            if self.injected_phase_seconds <= 0:
                raise ValueError("injected_phase_seconds must be positive")
            if min(self.injected_delay_phases_us) < 0:
                raise ValueError(
                    f"injected_delay_phases_us must be non-negative, got "
                    f"{self.injected_delay_phases_us}"
                )
        if not 0.0 < self.injected_gateway_fraction <= 1.0:
            raise ValueError("injected_gateway_fraction must be in (0, 1]")
        if self.clock_sync not in ("huygens", "ntp", "none", "perfect"):
            raise ValueError(f"unknown clock_sync mode {self.clock_sync!r}")
        for name in (
            "clock_drift_ppb_max", "clock_offset_ms_max", "sync_warm_start_rounds",
            "ingress_service_us", "book_service_us", "lock_service_us", "gateway_service_us",
            "book_service_cv", "lock_service_cv", "straggler_gateways",
            "initial_cash", "initial_book_depth", "snapshot_interval_ms", "snapshot_depth",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in (
            "sync_interval_ms", "probe_interval_ms", "orders_per_participant_per_s",
            "initial_price", "initial_book_qty",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.initial_book_depth >= self.initial_price:
            # The seeded bids sit at initial_price - 1 ... - depth.
            raise ValueError(
                f"initial_book_depth={self.initial_book_depth} would seed bids at or "
                f"below price 0 around initial_price={self.initial_price}"
            )
        if self.halt_threshold is not None:
            for name in ("halt_threshold", "halt_window_ms", "halt_duration_ms"):
                if getattr(self, name) <= 0:
                    raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.sequencer_delay_us < 0 or self.holdrelease_delay_us < 0:
            raise ValueError("delay parameters must be non-negative")
        if self.fairness_policy not in _FAIRNESS_POLICIES:
            raise ValueError(
                f"unknown fairness_policy {self.fairness_policy!r}; "
                f"expected one of {_FAIRNESS_POLICIES}"
            )
        if self.fairness_policy != "cloudex" and (
            self.ddp_inbound_target is not None or self.ddp_outbound_target is not None
        ):
            # DDP tunes d_s/d_h, which only the cloudex backend has;
            # "adjusting" a policy that ignores the knob would report
            # controller trajectories that never took effect.
            raise ValueError(
                f"DDP targets require fairness_policy='cloudex' "
                f"(got {self.fairness_policy!r})"
            )
        for name, initial_us in (
            ("ddp_inbound_target", self.sequencer_delay_us),
            ("ddp_outbound_target", self.holdrelease_delay_us),
        ):
            target = getattr(self, name)
            if target is None:
                continue
            if not 0.0 <= target <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {target}")
            if self.ddp_window < 1 or self.ddp_step_us <= 0 or self.ddp_update_every < 1:
                raise ValueError(
                    "ddp_window, ddp_step_us and ddp_update_every must be positive"
                )
            if initial_us > self.ddp_max_delay_us:
                raise ValueError(
                    f"{name}: the delay it tunes starts at {initial_us} us, "
                    f"above ddp_max_delay_us={self.ddp_max_delay_us}"
                )
        if self.dbo_window < 1:
            raise ValueError("dbo_window must be >= 1")
        if self.dbo_guard_cap_us < 0:
            raise ValueError("dbo_guard_cap_us must be non-negative")
        if not 0.0 < self.pfo_threshold < 1.0:
            raise ValueError(f"pfo_threshold must be in (0,1), got {self.pfo_threshold}")
        if self.pfo_calibration_draws < 1:
            raise ValueError("pfo_calibration_draws must be >= 1")
        if not 0 <= self.subscriptions_per_participant <= self.n_symbols:
            raise ValueError("subscriptions_per_participant outside [0, n_symbols]")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0,1], got {self.trace_sample_rate}"
            )
        if self.event_log_capacity < 1:
            raise ValueError("event_log_capacity must be positive")
        if self.ros_dedup_ttl_s <= 0:
            raise ValueError("ros_dedup_ttl_s must be positive")
        if self.ack_timeout_ms is not None and self.ack_timeout_ms <= 0:
            raise ValueError("ack_timeout_ms must be positive (or None to disable)")
        if self.ack_retry_backoff < 1.0:
            raise ValueError("ack_retry_backoff must be >= 1")
        if self.ack_max_retries < 0:
            raise ValueError("ack_max_retries must be non-negative")
        if self.failover_after_timeouts < 1:
            raise ValueError("failover_after_timeouts must be >= 1")
        if self.gateway_failover and self.ack_timeout_ms is None:
            raise ValueError("gateway_failover requires ack_timeout_ms to be set")
        if self.gateway_failover and self.n_gateways < 2:
            raise ValueError("gateway_failover requires at least two gateways")
        if self.chaos is not None and not isinstance(self.chaos, FaultSchedule):
            raise ValueError(f"chaos must be a FaultSchedule, got {type(self.chaos).__name__}")
        for name in ("market_order_fraction", "cancel_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {value}")

    def with_overrides(self, **kwargs) -> "CloudExConfig":
        """A copy with fields replaced (dataclasses.replace + validation)."""
        return replace(self, **kwargs)
