"""The boundary table: which calls into the program count as entering
which layer.

A layer is a module (or sub-package) of ``repro``; a boundary is one
callable the tracer wraps *from outside* (:mod:`bench.trace`).  Each row
names its target as ``"module:attr[.attr]"``.  For a function that
another module imported by name (``from x import f``), the target is the
importing module's attribute, because that is the reference the caller
resolves.

Every row is optional.  A target that no longer resolves -- a later PR
merged the two matching loops, folded ``MetricsCollector`` into ``obs``,
renamed a callback -- is skipped with one warning line, and a layer left
with no resolvable row reports ``null`` metrics.  Nothing here is needed
by the untraced end-to-end runs.

Where a layer's hot-path entry is a callback the simulator dispatches
(agent ticks, service-completion timers, H/R release timers, clock-sync
probes) the row names that callback: left unwrapped, its time would be
booked as ``sim.engine`` self time, which is meant to be the heap loop.

``span`` rows are coarse units (a shard window, a serve-job stage): the
tracer keeps a full span per call for them.  ``ident`` extracts the
identifier the spans of one window / one job share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

#: Layer names in reporting order; each yields ``<layer>.self_share``
#: and ``<layer>.calls``.
LAYERS = (
    "traders",
    "core.participant",
    "sim.network",
    "sim.latency",
    "sim.engine",
    "sim.clock",
    "clocksync",
    "core.gateway",
    "core.ros",
    "core.sequencer",
    "core.exchange",
    "core.matching",  # includes core.book: only matching calls into it
    "core.portfolio",
    "core.holdrelease",
    "core.metrics",  # includes obs
    "storage",
    "core.shardrun",
    "sim.parallel",
    "exp",
    "serve.api",
    "serve.store",
    "serve.executor",
    "serve.runners",
    "serve.evidence",
)


@dataclass(frozen=True)
class Boundary:
    layer: str
    target: str
    span: bool = False
    ident: Optional[Callable[..., object]] = None


def _window_ident(self, index, *rest, **kwargs):
    return f"w{index}"


def _arg1_ident(self, run_id, *rest, **kwargs):
    return run_id


def _record_ident(self, record, *rest, **kwargs):
    return record["run_id"]


def _kw_run_id(*args, **kwargs):
    return kwargs["run_id"]


def _methods(layer: str, owner: str, *names: str):
    """Rows for several methods of one class (``owner`` = ``module:Class``)."""
    return [Boundary(layer, f"{owner}.{name}") for name in names]


BOUNDARIES = (
    # -- workload generation -------------------------------------------
    *_methods("traders", "repro.traders.base:TradingAgent", "_tick"),
    *_methods("traders", "repro.traders.workload:BulkOrderStream", "take_until"),
    # -- participant ---------------------------------------------------
    *_methods(
        "core.participant", "repro.core.participant:Participant",
        "submit_order", "cancel", "on_message", "_on_ack_timeout",
    ),
    # -- simulated network: link preparation, fanout, delivery ---------
    *_methods("sim.network", "repro.sim.network:Network", "send", "send_many"),
    *_methods("sim.network", "repro.sim.network:Link", "send", "prepare"),
    *_methods("sim.network", "repro.sim.network:Host", "deliver"),
    # -- link latency sampling -----------------------------------------
    *_methods("sim.latency", "repro.sim.latency:CloudLinkLatency", "sample"),
    *_methods("sim.latency", "repro.sim.latency:StragglerLatency", "sample"),
    *_methods("sim.latency", "repro.sim.latency:PeriodicInjectedDelay", "sample"),
    *_methods("sim.latency", "repro.sim.latency:GammaLatency", "sample"),
    # -- event heap: Simulator.run's self time is the heap loop ---------
    *_methods(
        "sim.engine", "repro.sim.engine:Simulator",
        "run", "schedule", "schedule_at", "schedule_message", "schedule_message_bulk",
    ),
    # -- host clocks ---------------------------------------------------
    *_methods(
        "sim.clock", "repro.sim.clock:HostClock",
        "now", "local_to_true", "schedule_at_local", "schedule_after_local",
    ),
    # -- clock synchronisation (probe/sync timers are sim callbacks) ----
    *_methods(
        "clocksync", "repro.clocksync.service:ClockSyncService",
        "warm_start", "start", "_probe_tick", "_sync_round",
    ),
    # -- gateway -------------------------------------------------------
    *_methods(
        "core.gateway", "repro.core.gateway:Gateway",
        "on_message", "_forward_order", "_release_held",
    ),
    # -- ROS dedup -----------------------------------------------------
    *_methods("core.ros", "repro.core.ros:RosDeduplicator", "admit", "record_result", "result"),
    # -- sequencer -----------------------------------------------------
    *_methods(
        "core.sequencer", "repro.core.sequencer:Sequencer",
        "enqueue", "pop_eligible", "set_delay", "_fire",
    ),
    # -- central exchange server + engine shards ------------------------
    *_methods(
        "core.exchange", "repro.core.exchange:CentralExchangeServer",
        "start", "on_message", "_ingress_done", "_cancel_ingress_done", "_snapshot_tick",
    ),
    *_methods(
        "core.exchange", "repro.core.exchange:EngineShard",
        "_maybe_start", "_book_done", "_finalize",
    ),
    # -- matching (+ book) ---------------------------------------------
    *_methods(
        "core.matching", "repro.core.matching:MatchingEngineCore",
        "process_order", "process_cancel", "process_batch",
    ),
    # -- settlement ----------------------------------------------------
    *_methods("core.portfolio", "repro.core.portfolio:PortfolioMatrix", "apply_trade"),
    # -- hold/release (release timers are sim callbacks) ---------------
    *_methods(
        "core.holdrelease", "repro.core.holdrelease:HoldReleaseBuffer",
        "offer", "flush", "_release",
    ),
    # -- metrics / observability ---------------------------------------
    *_methods(
        "core.metrics", "repro.core.metrics:MetricsCollector",
        "record_submission", "record_engine_receipt", "record_confirmation",
        "record_sequencer_sample", "register_md_piece", "record_md_report",
    ),
    *_methods("core.metrics", "repro.obs.events:EventLog", "emit"),
    # -- storage -------------------------------------------------------
    *_methods("storage", "repro.storage.bigtable:Bigtable", "write", "write_row"),
    # -- batched shard program -----------------------------------------
    Boundary("core.shardrun", "repro.core.shardrun:ShardProgram.__init__"),
    Boundary(
        "core.shardrun", "repro.core.shardrun:ShardProgram.run_window",
        span=True, ident=_window_ident,
    ),
    *_methods("core.shardrun", "repro.core.shardrun:ShardProgram", "_build_orders", "_on_trade", "finish"),
    # -- conservative-sync runner (coordinator side) --------------------
    Boundary(
        "sim.parallel", "repro.sim.parallel:ConservativeShardRunner.window",
        span=True, ident=_window_ident,
    ),
    *_methods(
        "sim.parallel", "repro.sim.parallel:ConservativeShardRunner",
        "__init__", "finish", "close", "_recover",
    ),
    # -- sweep harness: pool, cache, aggregation -----------------------
    Boundary("exp", "repro.exp.runner:run_sweep", span=True),
    Boundary("exp", "repro.exp.runner:run_parallel", span=True),
    *_methods("exp", "repro.exp.cache:ResultCache", "get", "put"),
    # -- control plane -------------------------------------------------
    *_methods("serve.api", "repro.serve.api:_Handler", "do_GET", "do_POST"),
    Boundary("serve.store", "repro.serve.store:RunStore.submit", span=True, ident=_arg1_ident),
    Boundary("serve.store", "repro.serve.store:RunStore.mark_done", span=True, ident=_arg1_ident),
    *_methods(
        "serve.store", "repro.serve.store:RunStore",
        "claim_next", "mark_failed", "get", "counts", "list_runs",
    ),
    Boundary(
        "serve.executor", "repro.serve.executor:JobExecutor._execute",
        span=True, ident=_record_ident,
    ),
    Boundary("serve.runners", "repro.serve.executor:execute_job", span=True),
    Boundary("serve.evidence", "repro.serve.executor:write_pack", span=True, ident=_kw_run_id),
    Boundary("serve.evidence", "repro.serve.evidence:verify_pack", span=True),
)
