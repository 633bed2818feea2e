"""Event-dispatch profiler for the simulator's hot loop.

:class:`DispatchProfiler` hooks the simulator's event loop
(:attr:`repro.sim.engine.Simulator.dispatch_hook`) and counts events
per callback, answering "what is the event loop actually doing" --
counts only, so profiling never perturbs determinism.
"""

from __future__ import annotations

from typing import Dict, List

# NOTE: repro.analysis is imported lazily inside as_table; a top-level
# import would cycle (core modules import repro.obs, and
# repro.analysis.__init__ imports repro.core.cluster).


class DispatchProfiler:
    """Counts simulator events per callback qualname.

    Install with ``sim.dispatch_hook = profiler``; the profiler is
    callable and receives each event just before it runs.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.total = 0

    def __call__(self, event) -> None:
        name = getattr(event.fn, "__qualname__", repr(event.fn))
        self.counts[name] = self.counts.get(name, 0) + 1
        self.total += 1

    def top(self, n: int = 10) -> List[tuple]:
        """The ``n`` most dispatched callbacks as (name, count, share)."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        return [(name, count, count / self.total if self.total else 0.0) for name, count in ranked]

    def as_table(self, n: int = 10) -> str:
        from repro.analysis.tables import format_table

        rows = [
            [name, f"{count:,}", f"{share:.1%}"] for name, count, share in self.top(n)
        ]
        return format_table(["event callback", "dispatches", "share"], rows)

    def __repr__(self) -> str:
        return f"DispatchProfiler(total={self.total}, callbacks={len(self.counts)})"
