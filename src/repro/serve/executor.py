"""The background worker that turns queued runs into evidence packs.

One (or more) :class:`JobExecutor` threads poll the
:class:`~repro.serve.store.RunStore` for queued runs.  The store's
guarded claim (queued -> running, exactly once) is the concurrency
story: executors never coordinate with each other or with the API
threads beyond that one atomic transition, so deduped submissions can
never double-execute even with several executors racing.

A claimed run either completes into a pack directory
(``<packs>/<run_id>/``, content-addressed like everything else) and is
marked ``done``, or fails with its traceback recorded and is marked
``failed`` -- an executor never dies with a run in limbo short of the
whole process going down, and :meth:`RunStore.requeue_interrupted`
recovers even that at the next startup.

The executor keeps one :class:`~repro.exp.pool.WorkerPool` for its
lifetime and runs every job's tasks on it.  The pool is created in the
constructor -- before the server starts any thread, so steady state
never forks from a threaded process -- and from ``start()`` on belongs
to the executor thread, which closes it on its way out.
"""

from __future__ import annotations

import threading
import traceback
from pathlib import Path
from typing import Dict, Optional

from repro.exp.cache import ResultCache
from repro.exp.pool import WorkerPool
from repro.serve.evidence import write_pack
from repro.serve.runners import execute_job
from repro.serve.store import RunStore


class JobExecutor(threading.Thread):
    """Daemon thread draining the run store's queue."""

    def __init__(
        self,
        store: RunStore,
        packs_dir,
        secret: str,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        poll_interval_s: float = 0.25,
    ) -> None:
        super().__init__(name="repro-serve-executor", daemon=True)
        self.store = store
        self.packs_dir = Path(packs_dir)
        self.secret = secret
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.poll_interval_s = poll_interval_s
        self.runs_executed = 0
        self.runs_failed = 0
        self.pool = WorkerPool(jobs)
        # One cache for every job, like the pool: its prune cadence and
        # hit/miss/evict counts span the executor's lifetime.
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self._wake = threading.Event()
        # Not named ``_stop``: threading.Thread has a private ``_stop()``
        # method its join() internals call; shadowing it breaks joins.
        self._halt = threading.Event()

    # ------------------------------------------------------------------
    def notify(self) -> None:
        """Hint that the queue may be non-empty (called on submission)."""
        self._wake.set()

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop after the in-flight run (if any) finishes, waiting up to
        ``timeout_s`` for it.  A run still going after that is abandoned:
        it keeps the pool until it ends or the process exits (workers are
        daemons and exit on their owner's death), and is re-queued by
        :meth:`RunStore.requeue_interrupted` at the next startup."""
        self._halt.set()
        self._wake.set()
        if self.is_alive():
            self.join(timeout=timeout_s)
        else:  # never started: run() will not close the pool
            self.pool.close()

    # ------------------------------------------------------------------
    def run(self) -> None:
        try:
            while not self._halt.is_set():
                record = self.store.claim_next()
                if record is None:
                    self._wake.wait(self.poll_interval_s)
                    self._wake.clear()
                    continue
                self._execute(record)
        finally:
            self.pool.close()

    def _execute(self, record: Dict[str, object]) -> None:
        run_id: str = record["run_id"]  # type: ignore[assignment]
        spec: Dict[str, object] = record["spec"]  # type: ignore[assignment]
        try:
            artifacts = execute_job(
                spec,
                jobs=self.jobs,
                cache=self.cache,
                timeout_s=self.timeout_s,
                retries=self.retries,
                pool=self.pool,
            )
            pack_dir = self.packs_dir / run_id
            write_pack(
                pack_dir,
                run_id=run_id,
                kind=spec["kind"],  # type: ignore[arg-type]
                spec=spec,
                code_version=record["code_version"],  # type: ignore[arg-type]
                report=artifacts.report,
                trace=artifacts.trace,
                clean=artifacts.clean,
                violations=artifacts.violations,
                secret=self.secret,
            )
        except Exception:
            self.runs_failed += 1
            self.store.mark_failed(run_id, traceback.format_exc())
            return
        self.runs_executed += 1
        self.store.mark_done(run_id, str(pack_dir), certified=artifacts.clean)

    # ------------------------------------------------------------------
    def drain(self, timeout_s: float = 60.0) -> bool:
        """Test/CLI helper: block until nothing is queued or running."""
        import time

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            counts = self.store.counts()
            if counts["queued"] == 0 and counts["running"] == 0:
                return True
            time.sleep(0.02)
        return False
