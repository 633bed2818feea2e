"""Deterministic fault injection and invariant checking (``repro.chaos``).

The paper sells ROS as CloudEx's answer to cloud unreliability --
"replicated order submission for tail latency *and fault tolerance*"
(§3, Fig. 6) -- but a claim like that is only worth what it survives.
This package turns faults into data:

- :mod:`repro.chaos.schedule` -- declarative, seed-reproducible fault
  schedules (host crash windows, latency storms, partitions, clock
  steps, straggler episodes) as frozen dataclasses.
- :mod:`repro.chaos.injector` -- applies a schedule to a running
  :class:`~repro.core.cluster.CloudExCluster` via simulator-scheduled
  events: no wall clock, fully replayable.
- :mod:`repro.chaos.invariants` -- the checker layer: cash/share
  conservation, no duplicate executions despite retries, book
  integrity, monotone sequencer release, bounded fairness degradation,
  and order-loss accounting.
- :mod:`repro.chaos.report` -- structured findings + run summary.
- :mod:`repro.chaos.scenarios` -- the named scenario library backing
  ``python -m repro chaos``.

Only :mod:`~repro.chaos.schedule` is imported eagerly:
``repro.core.config`` imports it for the ``chaos`` field, and the
scenario library imports ``repro.core`` back, so everything touching
the core is resolved lazily (PEP 562) to keep the import graph acyclic.
"""

from repro.chaos.schedule import (
    ClockStep,
    FaultSchedule,
    HostCrash,
    LinkDegradation,
    Partition,
    StragglerEpisode,
)

_LAZY = {
    "ChaosInjector": "repro.chaos.injector",
    "ChaosMonitor": "repro.chaos.invariants",
    "Finding": "repro.chaos.invariants",
    "InvariantBounds": "repro.chaos.invariants",
    "check_books": "repro.chaos.invariants",
    "check_invariants": "repro.chaos.invariants",
    "ChaosReport": "repro.chaos.report",
    "ChaosRunResult": "repro.chaos.scenarios",
    "available_scenarios": "repro.chaos.scenarios",
    "run_scenario": "repro.chaos.scenarios",
    "scenario_spec": "repro.chaos.scenarios",
}

__all__ = [
    "ClockStep",
    "FaultSchedule",
    "HostCrash",
    "LinkDegradation",
    "Partition",
    "StragglerEpisode",
    *_LAZY,
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
