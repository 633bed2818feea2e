"""Structured result of a chaos run.

A :class:`ChaosReport` bundles what was injected, what the cluster did,
and what the invariant checker concluded.  Everything in it derives
from simulation state only (no wall clock, no environment), so two runs
with the same seed and schedule serialize to byte-identical JSON --
that property is itself pinned by the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.chaos.invariants import VIOLATION, Finding
from repro.chaos.schedule import FaultSchedule


@dataclass
class ChaosReport:
    """Outcome of one fault-injection scenario run."""

    scenario: str
    seed: int
    duration_s: float
    schedule: FaultSchedule
    #: (t_ns, description) transition log from the injector.
    injected: List[Tuple[int, str]]
    findings: List[Finding]
    #: Scalar run statistics (orders submitted/confirmed, retries, ...).
    stats: Dict[str, object] = field(default_factory=dict)
    #: Final operational counts (``cluster.metrics.counts()``).
    counters: Dict[str, object] = field(default_factory=dict)

    @property
    def violations(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == VIOLATION]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity != VIOLATION]

    @property
    def ok(self) -> bool:
        """True when no invariant was violated (warnings allowed)."""
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "schedule": self.schedule.to_dicts(),
            "injected": [[t_ns, message] for t_ns, message in self.injected],
            "findings": [f.to_dict() for f in self.findings],
            "violations": len(self.violations),
            "ok": self.ok,
            "stats": self.stats,
            "counters": self.counters,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def as_text(self) -> str:
        """Human-readable report for the CLI."""
        from repro.analysis.tables import format_table

        lines = [
            f"chaos scenario: {self.scenario}  (seed={self.seed}, "
            f"duration={self.duration_s:g}s)",
            "",
            "injected faults:",
        ]
        if self.injected:
            lines.extend(
                f"  t={t_ns / 1e9:10.6f}s  {message}" for t_ns, message in self.injected
            )
        else:
            lines.append("  (none)")
        if self.stats:
            lines.append("")
            lines.append(
                format_table(
                    ["stat", "value"],
                    [[name, str(value)] for name, value in sorted(self.stats.items())],
                )
            )
        lines.append("")
        if self.findings:
            lines.append("invariant findings:")
            for finding in self.findings:
                lines.append(f"  [{finding.severity}] {finding.invariant}: {finding.message}")
        else:
            lines.append("invariant findings: none")
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        lines.append("")
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)
