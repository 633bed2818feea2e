"""CloudEx cluster configuration.

One :class:`CloudExConfig` describes a whole deployment: topology,
fairness delays, DDP targets, ROS replication, workload, and the
options a run varies.  Defaults reproduce the paper's testbed shape
(48 participants, 16 gateways, 100 symbols, ~22k orders/s aggregate).

The testbed calibration is not configurable: it is the module
constants below, each with the paper number it was fitted to (DESIGN.md
§3 "Calibration constants" names them).  The comments on those
constants are the one statement of the calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.chaos.schedule import FaultSchedule
from repro.sim.latency import LatencyModel, cloud_link
from repro.sim.timeunits import MICROSECOND, MILLISECOND, SECOND

#: Known fairness backends.  Kept as a literal (rather than imported
#: from repro.fairness.base.POLICY_NAMES) so the config layer stays
#: import-light; tests/fairness pins the two tuples equal.
_FAIRNESS_POLICIES = ("cloudex", "dbo", "pfo", "noop")

#: Clock-sync modes: Huygens, the NTP baseline, free-running clocks,
#: or clocks that read true time.
CLOCK_SYNC_MODES = ("huygens", "ntp", "none", "perfect")

# ----------------------------------------------------------------------
# Calibration constants
# ----------------------------------------------------------------------
# Book seeding: the operator's opening liquidity, every symbol a
# two-sided market around INITIAL_PRICE (shardrun opens there too).
INITIAL_CASH = 1_000_000_00  # $1M per account, in cents
INITIAL_PRICE = 100_00  # $100.00, in cents
INITIAL_BOOK_DEPTH = 5  # seeded resting levels per side
INITIAL_BOOK_QTY = 500  # shares per seeded level

# Network (one-way, repro.sim.latency.cloud_link): hard floor + gamma
# jitter + spikes that multiply the jitter term by U(2, SPIKE_SCALE) with
# probability ``CloudExConfig.spike_prob`` (0.006).  leg -> (base_us,
# jitter_shape, jitter_scale_us).  The composed submission path of the
# default config (seed 2021, RF=1, 0.3 s warm-up + 1.5 s measured)
# measures 394 / 773 / 1154 us at p50/p99/p99.9 vs the paper's
# 365 / 678 / 1096 (Fig. 6a); the mass near the floor is what lets the
# Huygens minimum envelope reach ns precision.
LINK_SHAPES = {
    "participant_gateway": (115.0, 0.7, 33.0),
    "gateway_engine": (178.0, 0.7, 92.0),
}
SPIKE_SCALE = 5.0

# Clocks: boot drift up to +-50 ppm and offsets up to +-5 ms.  Huygens
# (ClockSyncService's defaults: 1 Hz rounds, 100 probe pairs/s, 3
# warm-start rounds) leaves ~250 ns steady-state p99 residual (paper §4:
# 159 ns); NTP through a distant asymmetric path ~10 ms.
CLOCK_DRIFT_PPB_MAX = 50_000
CLOCK_OFFSET_NS_MAX = 5 * MILLISECOND

# Engine critical path.  Ingress dedup costs 8 us per replica on one
# core (its queue heating up past RF=3 at 22k orders/s is Fig. 6a's
# degradation).  Book work is 29 us mean per order within a shard
# (gamma, CV 0.8: the variability breaks the phase-locking a
# deterministic closed system would show around the lock, giving
# Table 1's gradual ramp).  The global portfolio critical section is
# 16.4 us mean (CV 0.3), capping throughput at ~61k orders/s: Table 1
# measures 22k/41k/59k/61k/61k vs the paper's 22k/40k/49k/61k/61k.  A
# gateway spends 5 us on each order before forwarding it.
INGRESS_SERVICE_US = 8.0
BOOK_SERVICE_US = 29.0
BOOK_SERVICE_CV = 0.8
LOCK_SERVICE_US = 16.4
LOCK_SERVICE_CV = 0.3
GATEWAY_SERVICE_US = 5.0

# CPU accounting (Fig. 6b; cores = baseline + rate * per-message cost).
# VM core usage is dominated by messaging/polling overheads, so these
# are far larger than the critical-path service times.  Fitted to the
# RF=1 and RF=5 endpoints of the paper's engine 13.0 -> 18.4 cores,
# gateway 2.4 -> 3.8 and participant 0.4 -> 0.8 (EXPERIMENTS.md Fig. 6b
# has the measured curve, within 5 % at every RF).  The engine host has
# no baseline term (Network.add_host's default of 0 cores).
ENGINE_CPU_PER_ORDER_US = 529.0
ENGINE_CPU_PER_REPLICA_US = 61.0
GATEWAY_CPU_BASELINE_CORES = 2.05
GATEWAY_CPU_PER_REPLICA_US = 254.0
PARTICIPANT_CPU_BASELINE_CORES = 0.3
PARTICIPANT_CPU_PER_REPLICA_US = 222.0

# DDP (paper §3): the controller moves a delay in DdpController's
# default 5 us steps, never above 5 ms.
DDP_MAX_DELAY_US = 5000.0

# Failover (repro.chaos): a participant rotates to a replica gateway
# after this many consecutive ack timeouts.
FAILOVER_AFTER_TIMEOUTS = 2

# PFO: Monte-Carlo samples of the gateway->engine model behind each
# calibrated hold quantile.
PFO_CALIBRATION_DRAWS = 512

# Zero-intelligence order shape (repro.traders.zi, both feeds): uniform
# ZI_MIN_QTY..ZI_MAX_QTY shares; a limit order is priced 1-3 ticks
# through the touch with probability ZI_AGGRESSION, else 1 + |N(0,
# ZI_PRICE_SIGMA_TICKS)| ticks behind it.  Trades per order track
# aggression + the market-order share: the paper's second deployment
# saw ~8 % (4.2M orders, 330k trades), course-bot flow far more.
ZI_MIN_QTY = 1
ZI_MAX_QTY = 100
ZI_AGGRESSION = 0.18
ZI_PRICE_SIGMA_TICKS = 15.0

# Batched feed (repro.core.shardrun): 5 % market orders and no cancels
# (Table-1 economics: 12 283 orders, 3 459 trades in
# tests/core/golden/shardrun_table1.json); the gateway stamps an order
# 80 us + gamma(0.7, 30 us) after it arrives, a lighter participant ->
# gateway leg than LINK_SHAPES'; market data is published every 10 ms,
# so a conservative-sync window is 10 ms + twice the 80 us floor;
# trades settle into 64 participant buckets; arrivals are drawn 4096
# rows a chunk.
SHARDRUN_MARKET_ORDER_FRACTION = 0.05
SHARDRUN_GATEWAY_BASE_US = 80.0
SHARDRUN_GATEWAY_JITTER_SHAPE = 0.7
SHARDRUN_GATEWAY_JITTER_SCALE_US = 30.0
SHARDRUN_PUBLISH_INTERVAL_MS = 10.0
SHARDRUN_PORTFOLIO_BUCKETS = 64
SHARDRUN_CHUNK = 4096


def check_seed(seed: int) -> None:
    """Refuse a negative seed (numpy's generators take none) with the one
    message every door gives: the cluster, the batched kernel, a job."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def check_positive_finite(name: str, value: float) -> None:
    """Refuse a rate or duration that is not positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


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

    # ------------------------------------------------------------------
    # DDP (paper §3): None = static delay parameter
    # ------------------------------------------------------------------
    ddp_inbound_target: Optional[float] = None
    ddp_outbound_target: Optional[float] = None
    ddp_window: int = 1000
    ddp_update_every: int = 50

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
    #: Declarative fault schedule armed by the cluster on first run()
    #: (None = no chaos; see repro.chaos.schedule.FaultSchedule).
    chaos: Optional[FaultSchedule] = None

    # ------------------------------------------------------------------
    # Network latency models (one-way; shapes in LINK_SHAPES)
    # ------------------------------------------------------------------
    #: Probability that a delay's jitter term spikes (x U(2, SPIKE_SCALE)).
    spike_prob: float = 0.006
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
    # Clock synchronization
    # ------------------------------------------------------------------
    #: One of :data:`CLOCK_SYNC_MODES`.
    clock_sync: str = "huygens"

    # ------------------------------------------------------------------
    # Market data dissemination
    # ------------------------------------------------------------------
    snapshot_interval_ms: float = 100.0
    subscriptions_per_participant: int = 3

    # ------------------------------------------------------------------
    # Matching rules
    # ------------------------------------------------------------------
    #: Cancel a resting order rather than let it trade against the same
    #: participant's incoming order ("cancel resting" STP).
    self_trade_prevention: bool = False

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
    def snapshot_interval_ns(self) -> int:
        return int(self.snapshot_interval_ms * MILLISECOND)

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

    def link_model(self, leg: str) -> LatencyModel:
        """One-way latency model of a ``"participant_gateway"`` or
        ``"gateway_engine"`` link: hard floor + gamma jitter + rare
        spikes."""
        return cloud_link(*LINK_SHAPES[leg], self.spike_prob, SPIKE_SCALE)

    # ------------------------------------------------------------------
    # Validation and variants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject configurations the builder cannot realize."""
        check_seed(self.seed)
        if self.n_participants < 1:
            raise ValueError("need at least one participant")
        if self.n_gateways < 1:
            raise ValueError("need at least one gateway")
        if not 1 <= self.replication_factor <= self.n_gateways:
            raise ValueError(
                f"replication factor {self.replication_factor} must be in "
                f"[1, n_gateways={self.n_gateways}]"
            )
        for symbol in self.symbols:
            if "#" in symbol:
                raise ValueError(f"symbol {symbol!r} contains '#', the storage row-key separator")
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
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError(f"spike_prob must be in [0,1], got {self.spike_prob}")
        phases = self.injected_delay_phases_us
        if phases is not None:
            if not (
                isinstance(phases, (list, tuple))
                and phases
                and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in phases)
            ):
                raise ValueError(
                    "injected_delay_phases_us must be a non-empty list of numbers "
                    f"in JSON form, e.g. [0,400,200]; got {phases!r}"
                )
            if self.injected_phase_seconds <= 0:
                raise ValueError("injected_phase_seconds must be positive")
            if min(phases) < 0:
                raise ValueError(f"injected_delay_phases_us must be non-negative, got {phases}")
        if not 0.0 < self.injected_gateway_fraction <= 1.0:
            raise ValueError("injected_gateway_fraction must be in (0, 1]")
        if self.clock_sync not in CLOCK_SYNC_MODES:
            raise ValueError(f"unknown clock_sync mode {self.clock_sync!r}")
        for name in ("straggler_gateways", "snapshot_interval_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        check_positive_finite("orders_per_participant_per_s", self.orders_per_participant_per_s)
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
            if self.ddp_window < 1 or self.ddp_update_every < 1:
                raise ValueError("ddp_window and ddp_update_every must be positive")
            if initial_us > DDP_MAX_DELAY_US:
                raise ValueError(
                    f"{name}: the delay it tunes starts at {initial_us} us, "
                    f"above DDP_MAX_DELAY_US={DDP_MAX_DELAY_US}"
                )
        if self.dbo_window < 1:
            raise ValueError("dbo_window must be >= 1")
        if self.dbo_guard_cap_us < 0:
            raise ValueError("dbo_guard_cap_us must be non-negative")
        if not 0.0 < self.pfo_threshold < 1.0:
            raise ValueError(f"pfo_threshold must be in (0,1), got {self.pfo_threshold}")
        if not 0 <= self.subscriptions_per_participant <= self.n_symbols:
            raise ValueError("subscriptions_per_participant outside [0, n_symbols]")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0,1], got {self.trace_sample_rate}"
            )
        if self.ros_dedup_ttl_s <= 0:
            raise ValueError("ros_dedup_ttl_s must be positive")
        if self.ack_timeout_ms is not None and self.ack_timeout_ms <= 0:
            raise ValueError("ack_timeout_ms must be positive (or None to disable)")
        if self.ack_retry_backoff < 1.0:
            raise ValueError("ack_retry_backoff must be >= 1")
        if self.ack_max_retries < 0:
            raise ValueError("ack_max_retries must be non-negative")
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
