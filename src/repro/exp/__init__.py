"""Parallel experiment sweeps (the evaluation harness).

Every result the project reproduces -- Table 1's shard scaling, the
DDP convergence figures, Fig. 6's ROS tail -- is a *sweep*: the same
measured cluster run repeated over a grid of config points and seeds.
This package turns those hand-rolled sequential loops into a single
declarative harness:

- :class:`~repro.exp.spec.SweepSpec` declares the grid (config
  overrides x seeds) and expands it into :class:`SweepTask` items with
  per-task seeds derived from the task's *identity*
  (:func:`repro.sim.rng.derive_seed`), never from enumeration or
  execution order.
- :func:`~repro.exp.runner.run_sweep` fans tasks out over a
  crash-tolerant pool of warm worker processes
  (:class:`~repro.exp.pool.WorkerPool`) with per-task timeouts and,
  when the caller passes one, a content-hashed on-disk result cache
  (:class:`~repro.exp.cache.ResultCache`), then aggregates the results
  into one deterministic JSON document.

The aggregated document is byte-identical for any ``--jobs`` value:
workers only compute pure functions of their task, and everything
execution-dependent (wall time, cache hits, failures' tracebacks)
lives in the surrounding :class:`~repro.exp.runner.SweepOutcome`, not
the document.  See DESIGN.md for the determinism model.
"""

from repro.exp.cache import ResultCache, code_version_hash
from repro.exp.pool import TaskResult, WorkerPool, run_parallel
from repro.exp.runner import SweepOutcome, run_sweep, sweep_table
from repro.exp.spec import SweepSpec, SweepTask

__all__ = [
    "ResultCache",
    "SweepOutcome",
    "SweepSpec",
    "SweepTask",
    "TaskResult",
    "WorkerPool",
    "code_version_hash",
    "run_parallel",
    "run_sweep",
    "sweep_table",
]
