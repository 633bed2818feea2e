"""Declarative sweep grids and their expansion into tasks.

A :class:`SweepSpec` is the unit of experiment description: a list of
grid *points* (each a dict of :class:`~repro.core.config.CloudExConfig`
overrides, plus a few reserved workload keys), crossed with seeds.
:meth:`SweepSpec.expand` turns it into concrete :class:`SweepTask`
items whose seeds depend only on ``(master_seed, point identity,
replicate index)`` -- so re-ordering the grid, adding points, or
changing the worker count never changes any task's trajectory.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.config import (
    MAX_SWEEP_SYMBOLS, MAX_TASKS, CloudExConfig, check_rate, check_seed, duration, integer,
)
from repro.sim.rng import derive_seed
from repro.sim.timeunits import SECOND

#: Point keys consumed by the sweep worker rather than passed to
#: ``CloudExConfig``: the offered rate and per-point measurement
#: windows.  Everything else in a point must be a config field.
RESERVED_KEYS = ("rate_per_participant", "warmup_s", "duration_s")

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(CloudExConfig))

_seconds = duration(SECOND, positive=True)
_warmup = duration(SECOND)


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace variation."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _check_point(point: Dict[str, object], where: str) -> None:
    for key, value in point.items():
        if key in RESERVED_KEYS:
            continue
        if key not in _CONFIG_FIELDS:
            raise ValueError(
                f"{where}: {key!r} is not a CloudExConfig field or reserved "
                f"sweep key {RESERVED_KEYS}"
            )
        if key == "seed":
            raise ValueError(
                f"{where}: set seeds via SweepSpec.seeds, not a point override"
            )
        if key == "chaos" and value is not None:
            raise ValueError(
                f"{where}: chaos schedules are not JSON-serializable; sweeps "
                "cover fault-free runs (use repro.chaos scenarios for faults)"
            )


@dataclass(frozen=True)
class SweepTask:
    """One (config point, seed) cell of an expanded sweep."""

    #: Position in the expansion (aggregation order).
    index: int
    #: Stable identity string: the canonical point JSON plus the seed
    #: label.  Cache keys and derived seeds both hang off this.
    key: str
    #: The original grid point (reserved keys included), for labeling.
    point: Dict[str, object]
    #: The resolved config seed for this task.
    seed: int
    #: Full CloudExConfig overrides (base + point + seed).
    overrides: Dict[str, object]
    #: Workload parameters for the measured run.
    rate_per_participant: Optional[float]
    warmup_s: float
    duration_s: float

    def worker_payload(self) -> Dict[str, object]:
        """The JSON-able dict a pool worker needs to execute this task."""
        return {
            "overrides": self.overrides,
            "rate_per_participant": self.rate_per_participant,
            "warmup_s": self.warmup_s,
            "duration_s": self.duration_s,
        }

    def build_config(self) -> CloudExConfig:
        """Materialize (and validate) the task's configuration."""
        return CloudExConfig(**self.overrides)


@dataclass
class SweepSpec:
    """A grid of config points x seeds, ready to expand into tasks.

    Parameters
    ----------
    name:
        Label recorded in the aggregated document.
    grid:
        One dict of overrides per point.  Keys are either
        ``CloudExConfig`` field names or the reserved workload keys
        ``rate_per_participant`` / ``warmup_s`` / ``duration_s``
        (which override the spec-level defaults for that point).
    seeds:
        Either an integer ``N`` -- run each point with ``N`` replicate
        seeds derived from ``(master_seed, point, replicate index)``
        via :func:`repro.sim.rng.derive_seed` -- or an explicit seed
        sequence used verbatim (what the benchmarks need to preserve
        their historical seed-2021 trajectories).
    base:
        Overrides applied to every point (a point wins on conflict).
    """

    name: str
    grid: Sequence[Dict[str, object]]
    seeds: Union[int, Sequence[int]] = 1
    master_seed: int = 0
    warmup_s: float = 0.5
    duration_s: float = 1.0
    rate_per_participant: Optional[float] = None
    base: Dict[str, object] = field(default_factory=dict)

    def seed_labels(self) -> List[str]:
        """One stable label per replicate (independent of seed values)."""
        if isinstance(self.seeds, int):
            integer(1)("seeds", self.seeds)
            return [f"rep{i}" for i in range(self.seeds)]
        return [f"seed{int(s)}" for s in self.seeds]

    def validate(self) -> None:
        """Expand the grid, check every task's seed and build each point's
        config once (its replicates differ only in their seed), checking
        its rate, duration (positive) and warmup (non-negative) -- what a
        front door (``python -m repro sweep``, a submitted job) checks
        before it runs anything.  The points' symbols are counted as
        their configs are built, up to ``MAX_SWEEP_SYMBOLS`` in all.
        :func:`~repro.exp.runner.run_sweep` itself does not: there a point
        that cannot be built is one failed task."""
        tasks = self.expand()
        for task in tasks:
            check_seed("seed", task.seed)
        symbols = 0
        for task in tasks[:: len(tasks) // len(self.grid)]:  # each point's first task
            symbols += len(task.build_config().symbols)
            if symbols > MAX_SWEEP_SYMBOLS:
                raise ValueError(f"{len(self.grid)} grid points list more than "
                                 f"MAX_SWEEP_SYMBOLS={MAX_SWEEP_SYMBOLS} symbols in all")
            try:
                if task.rate_per_participant is not None:
                    check_rate("rate_per_participant", task.rate_per_participant)
                _seconds("duration_s", task.duration_s)
                _warmup("warmup_s", task.warmup_s)
            except ValueError as exc:
                raise ValueError(f"grid point {task.point}: {exc}") from None

    def expand(self) -> List[SweepTask]:
        """The full task list, in deterministic grid-major order."""
        if not self.grid:
            raise ValueError("sweep grid is empty")
        _check_point(self.base, "base overrides")
        derived = isinstance(self.seeds, int)
        replicates = self.seeds if derived else len(self.seeds)
        if len(self.grid) * replicates > MAX_TASKS:
            raise ValueError(
                f"{len(self.grid)} grid points x {replicates} seeds exceeds MAX_TASKS={MAX_TASKS}"
            )
        tasks: List[SweepTask] = []
        seed_values: Sequence[int] = [] if derived else [int(s) for s in self.seeds]
        labels = self.seed_labels()
        for p_index, point in enumerate(self.grid):
            _check_point(point, f"grid point {p_index}")
            merged = dict(self.base)
            merged.update(point)
            rate = merged.pop("rate_per_participant", self.rate_per_participant)
            warmup_s = merged.pop("warmup_s", self.warmup_s)
            duration_s = merged.pop("duration_s", self.duration_s)
            # Identity covers everything that shapes the trajectory
            # except the seed itself, so replicates of one point share
            # a prefix and distinct points never collide.
            point_id = canonical_json(
                {
                    "overrides": merged,
                    "rate": rate,
                    "warmup_s": warmup_s,
                    "duration_s": duration_s,
                }
            )
            for r_index, label in enumerate(labels):
                key = f"{self.name}|{point_id}|{label}"
                if derived:
                    seed = derive_seed(self.master_seed, key)
                else:
                    seed = seed_values[r_index]
                overrides = dict(merged)
                overrides["seed"] = seed
                tasks.append(
                    SweepTask(
                        index=len(tasks),
                        key=key,
                        point=dict(point),
                        seed=seed,
                        overrides=overrides,
                        rate_per_participant=rate,
                        warmup_s=float(warmup_s),
                        duration_s=float(duration_s),
                    )
                )
        return tasks
