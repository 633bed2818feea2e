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
import numbers
from dataclasses import dataclass, fields, replace
from dataclasses import field as dataclass_field
from typing import Any, Callable, List, Optional, Tuple

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


# ----------------------------------------------------------------------
# Input ceilings, each far above every value a test, bench or example
# uses.
# ----------------------------------------------------------------------
# A time field's nanosecond form: half of int64 (146 years), as a time
# is added to a clock reading and the sum must still fit.
MAX_TIME_NS = 2**62
# A rate's mean gap SECOND / rate: one day.  Gaps are cast to int64 and
# summed SHARDRUN_CHUNK at a time (~3.5e17 ns at one day).
MAX_MEAN_GAP_NS = 86_400 * SECOND
# A straggler's slow-down: 1000x the testbed's link is a dead link (a
# chaos partition); far above it a delay wraps int64 and turns fastest.
MAX_STRAGGLER_MULTIPLIER = 1000.0
# Symbols, whose list is built with the config -- for a served sweep,
# inside the request handler, once per point.  US equities list ~8k.
MAX_SYMBOLS = 10_000
# The (point, seed) tasks of one sweep, which SweepSpec.expand builds at
# submission.  The fairness study's default is 24.
MAX_TASKS = 10_000
# The symbols of a sweep's points, summed: validation builds one config
# per point, inside the request handler (~1 us a symbol).
MAX_SWEEP_SYMBOLS = 100 * MAX_TASKS

# ----------------------------------------------------------------------
# Field checks: ``check(name, value)`` accepts or raises a ValueError
# naming the field (quoted for a wrong type).  Checks never coerce.
# ----------------------------------------------------------------------
Check = Callable[[str, object], None]


def _is_number(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_number(name: str, value: object) -> None:
    if not _is_number(value):
        raise ValueError(f"{name!r} must be a number, got {value!r}")


def check_finite(name: str, value: object) -> None:
    if not (_is_number(value) and math.isfinite(value)):
        raise ValueError(f"{name!r} must be a finite number, got {value!r}")


def check_bool(name: str, value: object) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name!r} must be true or false, got {value!r}")


def in_range(low: float, high: float, ends: str = "[]", wants: str = "") -> Check:
    """A number from ``low`` to ``high``, each end included (``[``, ``]``)
    or excluded (``(``, ``)``); ``wants`` words the range for a refusal."""
    wants = wants or f"in {ends[0]}{low:g},{high:g}{ends[1]}"

    def check(name: str, value: object) -> None:
        check_number(name, value)
        above = low < value if ends[0] == "(" else low <= value
        if not (above and (value < high if ends[1] == ")" else value <= high)):
            raise ValueError(f"{name} must be {wants}, got {value}")

    return check


check_positive_finite = in_range(0, math.inf, "()", "positive and finite")
#: An arrival rate per second, with a mean gap of at most MAX_MEAN_GAP_NS.
check_rate = in_range(
    SECOND / MAX_MEAN_GAP_NS, math.inf, "[)",
    f"positive and finite, at least {SECOND / MAX_MEAN_GAP_NS:.3g}",
)


def duration(unit: int, positive: bool = False) -> Check:
    """A time counted in ``unit`` ns (``MICROSECOND`` for a ``_us``
    field): non-negative -- or ``positive``, at least 1 ns -- with a
    nanosecond form of at most :data:`MAX_TIME_NS`."""
    low, high = (1 / unit if positive else 0), MAX_TIME_NS / unit
    sign = "positive" if positive else "non-negative"
    return in_range(low, high, wants=f"{sign} and finite, in [{low:g},{high:g}]")


def integer(low: int, high: float = math.inf) -> Check:
    """An integer (``bool`` refused) from ``low`` to ``high``."""
    wants = "non-negative" if low == 0 else f">= {low}"
    within = in_range(low, high, wants=wants if high == math.inf else f"{wants} and <= {high}")

    def check(name: str, value: object) -> None:
        if not is_integer(value):
            raise ValueError(f"{name!r} must be an integer, got {value!r}")
        within(name, value)

    return check


#: numpy's generators take no negative seed.
check_seed = integer(0)


def one_of(choices: Tuple[str, ...]) -> Check:
    def check(name: str, value: object) -> None:
        if value not in choices:
            raise ValueError(f"unknown {name} {value!r}; expected one of {choices}")

    return check


def optional(check: Check) -> Check:
    """``check``, or None."""
    return lambda name, value: None if value is None else check(name, value)


def checked(default: object, check: Check) -> Any:
    """A dataclass field with its default and the one check its value
    must pass (run by :func:`check_fields`)."""
    return dataclass_field(default=default, metadata={"check": check})


def check_fields(instance: object) -> None:
    """Run every field's declared check on its value."""
    for spec in fields(instance):
        spec.metadata["check"](spec.name, getattr(instance, spec.name))


check_symbol_count = integer(1, MAX_SYMBOLS)


def default_symbols(count: int) -> List[str]:
    """SYM000, SYM001, ... -- deterministic symbol universe."""
    check_symbol_count("n_symbols", count)
    return [f"SYM{index:03d}" for index in range(count)]


def _symbol_list(name: str, symbols: object) -> None:
    if not isinstance(symbols, (list, tuple)) or not all(isinstance(s, str) for s in symbols):
        raise ValueError(f"{name!r} must be a list of symbol names, got {symbols!r}")
    for symbol in symbols:
        if "#" in symbol:
            raise ValueError(f"symbol {symbol!r} contains '#', the storage row-key separator")


_phase_us = duration(MICROSECOND)


def _phase_list(name: str, phases: object) -> None:
    if not (isinstance(phases, (list, tuple)) and phases and all(map(_is_number, phases))):
        raise ValueError(
            f"{name} must be a non-empty list of numbers in JSON form, e.g. [0,400,200]; "
            f"got {phases!r}"
        )
    for phase in phases:
        _phase_us(name, phase)


def _fault_schedule(name: str, value: object) -> None:
    if not isinstance(value, FaultSchedule):
        raise ValueError(f"{name} must be a FaultSchedule, got {type(value).__name__}")


@dataclass
class CloudExConfig:
    """Everything needed to build a :class:`repro.core.cluster.CloudExCluster`."""

    # ------------------------------------------------------------------
    # Reproducibility
    # ------------------------------------------------------------------
    seed: int = checked(1, check_seed)

    # ------------------------------------------------------------------
    # Topology (paper §4: 48 participants, 16 gateways, 1 engine VM)
    # ------------------------------------------------------------------
    n_participants: int = checked(48, integer(1))
    n_gateways: int = checked(16, integer(1))
    n_shards: int = checked(1, integer(1))
    n_symbols: int = checked(100, check_symbol_count)
    symbols: Optional[List[str]] = checked(None, _symbol_list)

    # ------------------------------------------------------------------
    # Fairness delays (paper §2.2)
    # ------------------------------------------------------------------
    sequencer_delay_us: float = checked(500.0, duration(MICROSECOND))  # d_s
    holdrelease_delay_us: float = checked(1000.0, duration(MICROSECOND))  # d_h

    # ------------------------------------------------------------------
    # Fairness policy (repro.fairness): which mechanism answers the
    # inbound-ordering and outbound-release questions.  "cloudex" (the
    # default) is the paper's d_s sequencer + d_h hold/release, wired
    # bit-identically to the pre-policy code.  "dbo" orders by measured
    # per-gateway delay bounds with no clock sync, "pfo" holds for a
    # latency-model quantile chosen from a miss-probability threshold,
    # "noop" is the unfair passthrough baseline.
    # ------------------------------------------------------------------
    fairness_policy: str = checked("cloudex", one_of(_FAIRNESS_POLICIES))
    #: DBO: sliding-window length (per gateway) for the lag bounds.
    dbo_window: int = checked(128, integer(1))
    #: DBO: upper bound on the adaptive release guard.
    dbo_guard_cap_us: float = checked(250.0, duration(MICROSECOND))
    #: PFO: target posterior probability that no earlier-sent message
    #: is still in flight at release time.
    pfo_threshold: float = checked(0.9, in_range(0, 1, "()"))

    # ------------------------------------------------------------------
    # DDP (paper §3): None = static delay parameter
    # ------------------------------------------------------------------
    ddp_inbound_target: Optional[float] = checked(None, optional(in_range(0, 1)))
    ddp_outbound_target: Optional[float] = checked(None, optional(in_range(0, 1)))
    ddp_window: int = checked(1000, integer(1))
    ddp_update_every: int = checked(50, integer(1))

    # ------------------------------------------------------------------
    # ROS (paper §3)
    # ------------------------------------------------------------------
    replication_factor: int = checked(1, integer(1))
    #: Engine-side dedup-table entry lifetime.  Retries make this load-
    #: bearing: an entry swept before a retry arrives would let the
    #: same order execute twice (see repro.chaos invariant checks).
    ros_dedup_ttl_s: float = checked(5.0, duration(SECOND, positive=True))

    # ------------------------------------------------------------------
    # Fault tolerance (repro.chaos): ack-timeout detection, retry with
    # backoff, and gateway failover.  ``ack_timeout_ms = None`` disables
    # the whole reaction path -- participants then pay nothing and seed
    # behaviour is bit-for-bit unchanged.
    # ------------------------------------------------------------------
    ack_timeout_ms: Optional[float] = checked(None, optional(duration(MILLISECOND, positive=True)))
    ack_retry_backoff: float = checked(2.0, in_range(1, math.inf, "[)"))
    ack_max_retries: int = checked(2, integer(0))
    #: Promote a replica gateway to primary after repeated ack timeouts
    #: (requires the participant to be wired to >= 2 gateways).
    gateway_failover: bool = checked(False, check_bool)
    #: Declarative fault schedule armed by the cluster on first run()
    #: (None = no chaos; see repro.chaos.schedule.FaultSchedule).
    chaos: Optional[FaultSchedule] = checked(None, optional(_fault_schedule))

    # ------------------------------------------------------------------
    # Network latency models (one-way; shapes in LINK_SHAPES)
    # ------------------------------------------------------------------
    #: Probability that a delay's jitter term spikes (x U(2, SPIKE_SCALE)).
    spike_prob: float = checked(0.006, in_range(0, 1))
    straggler_gateways: int = checked(0, integer(0))
    straggler_multiplier: float = checked(2.0, in_range(1, MAX_STRAGGLER_MULTIPLIER))
    #: Fig. 5: extra delays injected on gateway->engine links, cycling
    #: every ``injected_phase_seconds`` (e.g. (0.0, 400.0, 200.0)).
    injected_delay_phases_us: Optional[Tuple[float, ...]] = checked(None, optional(_phase_list))
    injected_phase_seconds: float = checked(6.0, duration(SECOND, positive=True))
    #: Fraction of gateways whose engine link gets the injection.  The
    #: paper injects on "the gateway-engine link" (not all of them);
    #: delaying a subset creates the sustained cross-gateway asymmetry
    #: that reorders traffic, whereas delaying every link equally
    #: shifts all timestamps together and barely reorders anything.
    injected_gateway_fraction: float = checked(0.25, in_range(0, 1, "(]"))

    # ------------------------------------------------------------------
    # Clock synchronization
    # ------------------------------------------------------------------
    #: One of :data:`CLOCK_SYNC_MODES`.
    clock_sync: str = checked("huygens", one_of(CLOCK_SYNC_MODES))

    # ------------------------------------------------------------------
    # Market data dissemination
    # ------------------------------------------------------------------
    snapshot_interval_ms: float = checked(100.0, duration(MILLISECOND))
    subscriptions_per_participant: int = checked(3, integer(0))

    # ------------------------------------------------------------------
    # Matching rules
    # ------------------------------------------------------------------
    #: Cancel a resting order rather than let it trade against the same
    #: participant's incoming order ("cancel resting" STP).
    self_trade_prevention: bool = checked(False, check_bool)

    # ------------------------------------------------------------------
    # Storage: the market-data table.  Persisted trades are the trade
    # tape -- with the lifecycle tracer below, the per-order record
    # (paper §6); there is no second per-order log.
    # ------------------------------------------------------------------
    persist_trades: bool = checked(True, check_bool)
    persist_snapshots: bool = checked(False, check_bool)

    # ------------------------------------------------------------------
    # Observability (repro.obs): per-order lifecycle tracing and the
    # structured event log.  Tracing off is the production default;
    # operational counts are always on (plain ints on their components).
    # ------------------------------------------------------------------
    tracing: bool = checked(False, check_bool)
    #: Fraction of orders traced (deterministic per-order hash, so the
    #: same orders are sampled across runs regardless of seed).
    trace_sample_rate: float = checked(1.0, in_range(0, 1))

    # ------------------------------------------------------------------
    # Workload (traders attached by the cluster builder)
    # ------------------------------------------------------------------
    orders_per_participant_per_s: float = checked(450.0, check_rate)
    market_order_fraction: float = checked(0.10, in_range(0, 1))
    cancel_fraction: float = checked(0.05, in_range(0, 1))

    def __post_init__(self) -> None:
        if self.symbols is None:
            self.symbols = default_symbols(self.n_symbols)
        elif isinstance(self.symbols, (list, tuple)):
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
        """Reject configurations the builder cannot realize: each field's
        own check (declared with the field), then the rules between
        fields."""
        check_fields(self)
        if self.replication_factor > self.n_gateways:
            raise ValueError(
                f"replication factor {self.replication_factor} must be in "
                f"[1, n_gateways={self.n_gateways}]"
            )
        if self.n_shards > self.n_symbols:
            raise ValueError(
                f"{self.n_shards} shards cannot each own a symbol "
                f"(only {self.n_symbols} symbols; n_shards must be <= n_symbols)"
            )
        if self.straggler_gateways > self.n_gateways:
            raise ValueError("more straggler gateways than gateways")
        if self.subscriptions_per_participant > self.n_symbols:
            raise ValueError("subscriptions_per_participant outside [0, n_symbols]")
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
            if getattr(self, name) is not None and initial_us > DDP_MAX_DELAY_US:
                raise ValueError(
                    f"{name}: the delay it tunes starts at {initial_us} us, "
                    f"above DDP_MAX_DELAY_US={DDP_MAX_DELAY_US}"
                )
        if self.market_order_fraction + self.cancel_fraction > 1.0:
            raise ValueError(
                f"market_order_fraction + cancel_fraction must be <= 1, got "
                f"{self.market_order_fraction} + {self.cancel_fraction}"
            )
        if self.gateway_failover and self.ack_timeout_ms is None:
            raise ValueError("gateway_failover requires ack_timeout_ms to be set")
        if self.gateway_failover and self.n_gateways < 2:
            raise ValueError("gateway_failover requires at least two gateways")

    def with_overrides(self, **kwargs) -> "CloudExConfig":
        """A copy with fields replaced (dataclasses.replace + validation)."""
        return replace(self, **kwargs)
