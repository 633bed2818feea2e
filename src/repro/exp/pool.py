"""A crash-tolerant pool of warm worker processes for sweep tasks.

:class:`WorkerPool` starts ``jobs`` workers once (each a
:class:`repro.sim.worker.Worker` on its own pipe) and feeds them tasks
for as long as it lives, so a sweep -- or a server executing sweep
after sweep -- pays one fork per worker rather than one per task, and
every task after a worker's first runs on a heap that is already
faulted in.  The owner re-queues a task whose worker crashed or ran
past its deadline up to ``retries`` extra attempts, replaces that
worker, and reports the task failed after that instead of sinking the
sweep.

Tasks are pure functions of their item: a result never depends on
which worker ran it or on what ran there before.  ``jobs=1`` has no
workers and executes inline in the calling process -- the baseline
that pooled runs must reproduce byte-for-byte, and already every task
of a sweep in one process.  Per-task timeouts are only enforced in
worker processes; the inline path has no one to interrupt it.
"""

from __future__ import annotations

import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from time import monotonic
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.worker import Worker, WorkerDown, check_jobs


@dataclass
class TaskResult:
    """What happened to one task: a value, or why there isn't one."""

    ok: bool
    value: Any = None
    error: str = ""
    attempts: int = 1
    timed_out: bool = False


@dataclass
class _InFlight:
    index: int
    attempt: int
    deadline: Optional[float]


def _call(worker: Callable[[Any], Any], item: Any) -> TaskResult:
    try:
        return TaskResult(ok=True, value=worker(item))
    except Exception:
        return TaskResult(ok=False, error=traceback.format_exc())


def _serve_tasks(conn) -> None:
    """Worker loop: ``(worker, item)`` in, :class:`TaskResult` out, until
    the owner closes its end of the pipe (or dies)."""
    while True:
        try:
            worker, item = conn.recv()
        except EOFError:
            return
        result = _call(worker, item)
        try:
            conn.send(result)
        except OSError:  # the owner is gone
            return
        except Exception:  # the value does not pickle: report, keep serving
            conn.send(TaskResult(ok=False, error=traceback.format_exc()))


class WorkerPool:
    """``jobs`` warm worker processes (none when ``jobs == 1``).

    A pool has one owner thread at a time: the thread that calls
    :meth:`map` and :meth:`close`.  Other threads may read
    :attr:`stats`; only the owner writes it.
    """

    def __init__(self, jobs: int) -> None:
        check_jobs(jobs)
        self.jobs = jobs
        #: What the workers did, for ``/healthz``.
        self.stats: Dict[str, int] = {
            "spawned": 0,  # worker processes started, replacements included
            "respawned": 0,  # of those, replacements for a crashed or hung worker
            "tasks": 0,  # task attempts run (inline or handed to a worker)
            "crashes": 0,  # workers found dead (EOF on the pipe), mid-task or idle
            "timeouts": 0,  # attempts whose worker was terminated at the deadline
        }
        self._workers: List[Worker] = []
        if jobs > 1:
            for _ in range(jobs):
                self._workers.append(self._spawn())

    def _spawn(self) -> Worker:
        self.stats["spawned"] += 1
        return Worker(_serve_tasks, siblings=self._workers)

    def _replace(self, worker: Worker) -> Worker:
        """Stop ``worker`` (it is joined: its exit code is now final) and
        start a fresh one in its place."""
        slot = self._workers.index(worker)
        del self._workers[slot]
        worker.stop()
        self.stats["respawned"] += 1
        fresh = self._spawn()
        self._workers.insert(slot, fresh)
        return fresh

    def map(
        self,
        worker: Callable[[Any], Any],
        items: Sequence[Any],
        timeout_s: Optional[float] = None,
        retries: int = 1,
    ) -> List[TaskResult]:
        """Run ``worker(item)`` for every item; results align with items.

        ``worker`` must be a module-level callable and items and values
        picklable (they cross a process boundary when ``jobs > 1``).
        Item order in the result list is item order in the input,
        regardless of completion order.
        """
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if self.jobs == 1:
            self.stats["tasks"] += len(items)
            return [_call(worker, item) for item in items]
        if not self._workers:
            raise RuntimeError("pool is closed")

        results: List[Optional[TaskResult]] = [None] * len(items)
        pending = deque((index, 0) for index in range(len(items)))
        busy: Dict[Worker, _InFlight] = {}

        def settle(flight: _InFlight, result: TaskResult) -> None:
            result.attempts = flight.attempt + 1
            if result.ok or flight.attempt >= retries:
                results[flight.index] = result
            else:
                pending.append((flight.index, flight.attempt + 1))

        try:
            while pending or busy:
                for handle in [w for w in self._workers if w not in busy]:
                    if not pending:
                        break
                    index, attempt = pending.popleft()
                    message = (worker, items[index])
                    try:
                        handle.send(message)
                    except WorkerDown:  # died while idle: not this task's fault
                        self.stats["crashes"] += 1
                        handle = self._replace(handle)
                        handle.send(message)
                    self.stats["tasks"] += 1
                    deadline = monotonic() + timeout_s if timeout_s is not None else None
                    busy[handle] = _InFlight(index, attempt, deadline)

                poll: Optional[float] = None
                if timeout_s is not None:
                    poll = max(0.0, min(f.deadline for f in busy.values()) - monotonic())
                ready = connection_wait([handle.conn for handle in busy], timeout=poll)

                for handle in [w for w in busy if w.conn in ready]:
                    flight = busy.pop(handle)
                    try:
                        result = handle.recv(0)
                    except WorkerDown:
                        self.stats["crashes"] += 1
                        self._replace(handle)
                        result = TaskResult(
                            ok=False,
                            error=(
                                "worker crashed without a result "
                                f"(exit code {handle.exitcode})"
                            ),
                        )
                    settle(flight, result)

                if timeout_s is not None:
                    now = monotonic()
                    for handle in [w for w, f in busy.items() if now >= f.deadline]:
                        flight = busy.pop(handle)
                        self.stats["timeouts"] += 1
                        self._replace(handle)
                        settle(
                            flight,
                            TaskResult(
                                ok=False, error=f"timed out after {timeout_s}s", timed_out=True
                            ),
                        )
        except BaseException:
            # A task abandoned in flight would answer the next map().
            for handle in busy:
                self._replace(handle)
            raise
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Stop every worker and wait for it (idempotent)."""
        while self._workers:
            self._workers.pop().stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_parallel(
    worker: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    pool: Optional[WorkerPool] = None,
) -> List[TaskResult]:
    """:meth:`WorkerPool.map` on ``pool``; without one, on a
    ``WorkerPool(jobs)`` opened for this call and closed after it."""
    if pool is not None:
        return pool.map(worker, items, timeout_s=timeout_s, retries=retries)
    with WorkerPool(jobs) as own:
        return own.map(worker, items, timeout_s=timeout_s, retries=retries)
