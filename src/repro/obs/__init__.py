"""Observability: per-order tracing, structured events, dispatch profiling.

The paper's argument is about *where* an order spends its time --
gateway ingress, sequencer hold (``d_s``), matching, H/R hold
(``d_h``), confirmation delivery -- but aggregate metrics cannot
attribute a p99.9 spike or an unfairness event to a pipeline stage.
This package adds that attribution:

- :mod:`repro.obs.tracing` -- one :class:`OrderTrace` per (sampled)
  order, built from typed spans that carry both true simulator time
  and the recording component's synced-clock estimate, so clock error
  is itself observable.
- :mod:`repro.obs.events` -- a bounded structured event log with JSONL
  export, for replayable evidence of rare events (late releases,
  crashes, DDP moves).
- :mod:`repro.obs.profiler` -- an event-dispatch profiler for the
  simulator's hot loop.
- :mod:`repro.obs.breakdown` -- analysis turning traces into per-stage
  latency decomposition tables and ROS critical-path attribution.

Operational counts (messages dropped, ROS duplicates, DDP moves, ...)
are not stored here: each lives on the component that observes the
fact, and the cluster's :class:`~repro.core.metrics.MetricsCollector`
names and windows them (``metrics.count`` / ``metrics.counts``).

Tracing is off by default (``CloudExConfig.tracing``); when disabled,
components hold a ``None`` tracer and the hot path pays a single
``is not None`` test.
"""

from repro.obs.events import EventLog, ObsEvent, Severity
from repro.obs.profiler import DispatchProfiler
from repro.obs.tracing import (
    CANCEL,
    CONFIRM_DELIVERY,
    GW_INGRESS,
    HR_HOLD,
    MATCH,
    MD_RELEASE,
    ROS_DEDUP,
    SEQ_HOLD,
    SPAN_KINDS,
    SUBMIT,
    OrderTrace,
    Span,
    Tracer,
)

__all__ = [
    "DispatchProfiler",
    "EventLog",
    "ObsEvent",
    "OrderTrace",
    "Severity",
    "Span",
    "Tracer",
    "SPAN_KINDS",
    "SUBMIT",
    "GW_INGRESS",
    "ROS_DEDUP",
    "SEQ_HOLD",
    "MATCH",
    "CANCEL",
    "HR_HOLD",
    "MD_RELEASE",
    "CONFIRM_DELIVERY",
]
