"""Execute a sweep: cache lookup, parallel fan-out, aggregation.

:func:`run_sweep` is the one entry point.  The aggregated *document*
it produces is a pure function of the :class:`~repro.exp.spec.SweepSpec`
and the simulator's code -- byte-identical for any worker count,
cache state, or retry history.  Everything execution-dependent (wall
time, cache hit counts, failure tracebacks) lives in the surrounding
:class:`SweepOutcome` instead, so callers can both assert determinism
on the document and report how the run went.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.exp.cache import ResultCache, code_version_hash
from repro.exp.pool import WorkerPool, run_parallel
from repro.exp.spec import SweepSpec, SweepTask


def _execute_task(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry: one measured cluster run (module-level so it can
    cross the process boundary)."""
    # Imports inside the worker keep pool.py importable without the
    # whole simulator (and keep spawn-context startup lean).
    from repro.core.cluster import CloudExCluster
    from repro.core.config import CloudExConfig

    config = CloudExConfig(**payload["overrides"])
    cluster = CloudExCluster(config)
    cluster.measured_run(
        warmup_s=payload["warmup_s"],
        duration_s=payload["duration_s"],
        rate_per_participant=payload["rate_per_participant"],
    )
    return cluster.result_payload()


@dataclass
class SweepOutcome:
    """A finished sweep: the deterministic document plus run stats."""

    #: Deterministic aggregation (see module docstring): identical for
    #: any pool size; serialize with ``sort_keys=True`` to get
    #: byte-identical JSON.
    document: Dict[str, object]
    #: Tasks actually run in this invocation.
    executed: int = 0
    #: Tasks served from the on-disk cache.
    from_cache: int = 0
    #: ``(task key, error text)`` for tasks that exhausted retries.
    failures: List[Tuple[str, str]] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_sweep(
    spec: SweepSpec, pool: WorkerPool, cache: Optional[ResultCache] = None
) -> SweepOutcome:
    """Expand ``spec``, run what the cache can't answer on ``pool`` (under
    its policy), aggregate.

    Results are read from and written to ``cache`` when one is given;
    without one nothing touches the disk.  The pool and the cache belong
    to the caller, so the pool's workers and counters, and the cache's
    prune cadence and hit/miss/evict counts, span every sweep the caller
    runs through them.
    """
    tasks = spec.expand()
    start = monotonic()

    results: Dict[int, Dict[str, object]] = {}
    keys: Dict[int, str] = {}
    to_run: List[SweepTask] = []
    for task in tasks:
        if cache is not None:
            key = cache.key_for(task.worker_payload())
            keys[task.index] = key
            cached = cache.get(key)
            if cached is not None:
                results[task.index] = cached
                continue
        to_run.append(task)

    pool_results = run_parallel(
        _execute_task, [task.worker_payload() for task in to_run], pool=pool
    )

    failures: List[Tuple[str, str]] = []
    for task, result in zip(to_run, pool_results):
        if result.ok:
            results[task.index] = result.value
            if cache is not None:
                cache.put(keys[task.index], result.value)
        else:
            failures.append((task.key, result.error))

    document = {
        "sweep": spec.name,
        "master_seed": spec.master_seed,
        "code_version": code_version_hash(),
        "points": [
            {
                "point": task.point,
                "seed": task.seed,
                "rate_per_participant": task.rate_per_participant,
                "warmup_s": task.warmup_s,
                "duration_s": task.duration_s,
                "failed": task.index not in results,
                "result": results.get(task.index),
            }
            for task in tasks
        ],
    }
    return SweepOutcome(
        document=document,
        executed=len(to_run),
        from_cache=len(tasks) - len(to_run),
        failures=failures,
        wall_s=monotonic() - start,
    )


def _format_cell(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return value


def sweep_table(
    document: Dict[str, object],
    columns: Sequence[str] = ("throughput_per_s", "submission_p50_us", "submission_p99_us"),
) -> str:
    """Render a sweep document as the project's standard aligned table.

    One row per (point, seed); ``columns`` name keys of the per-run
    result payload (see :meth:`CloudExCluster.result_payload`).
    """
    points: List[Dict[str, object]] = document["points"]  # type: ignore[assignment]
    point_keys = sorted({key for entry in points for key in entry["point"]})
    headers = point_keys + ["seed"] + list(columns)
    rows = []
    for entry in points:
        row = [_format_cell(entry["point"].get(key, "")) for key in point_keys]
        row.append(entry["seed"])
        result = entry["result"]
        for column in columns:
            if result is None:
                row.append("FAILED")
            else:
                row.append(_format_cell(result.get(column, "")))
        rows.append(row)
    return format_table(headers, rows)
