"""Conservative-synchronization process runner for in-run sharding.

Classic parallel discrete-event simulation splits the model into
logical processes and lets each run ahead only as far as causality
provably allows -- the *conservative* (Chandy-Misra style) protocol.
Here the logical processes are engine-shard programs
(:mod:`repro.core.shardrun`), the lookahead is the minimum cross-shard
influence latency, and synchronization is a barrier every window:

1. the coordinator broadcasts ``(window, t_end, feedback)``;
2. every shard advances its local simulation to ``t_end`` and returns
   a window result;
3. the coordinator merges results **in shard-id order** and computes
   the next window's feedback.

Because a shard's computation depends only on ``(config, shard_id,
feedback history)`` -- never on scheduling, process placement, or
worker count -- the ``jobs=1`` inline run and any ``jobs>=2`` process
run produce byte-identical results.  ``jobs=1`` executes the *same*
windowed protocol in-process, so it stays the golden baseline rather
than a separate code path.

Workers are the same supervised :class:`repro.sim.worker.Worker`
processes the :mod:`repro.exp.pool` uses (one pipe per worker, EOF =
crash, timeout -> terminate); what differs is what a *stateful* worker
needs when it goes down: a shard program carries books and RNG state
across windows, so recovery is respawn + deterministic replay of the
recorded ``(window, t_end, feedback)`` history rather than simple task
re-issue.  Replay reproduces the lost state exactly -- determinism is
what makes cheap recovery possible.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.worker import Worker, WorkerDown, check_jobs


class ShardWorkerError(RuntimeError):
    """A shard worker failed repeatedly (crash or timeout after replay)."""


def _worker_main(conn, factory, factory_args, shard_ids) -> None:
    """Run a set of shard programs, one command at a time.

    Commands: ``("window", index, t_end, feedback)`` -> list of window
    results in local shard order; ``("finish",)`` -> list of final
    summaries; EOF (the coordinator closed its end, or died) -> return.
    Exceptions propagate as ``("error", repr)`` so the coordinator can
    distinguish a model bug (raise immediately) from a process crash
    (respawn + replay).
    """
    try:
        shards = [factory(*factory_args, shard_id) for shard_id in shard_ids]
        while True:
            command = conn.recv()
            if command[0] == "window":
                _, index, t_end, feedback = command
                results = [shard.run_window(index, t_end, feedback) for shard in shards]
                conn.send(("ok", results))
            else:  # "finish"
                conn.send(("ok", [shard.finish() for shard in shards]))
    except EOFError:  # coordinator went away
        pass
    except Exception as exc:  # model bug: report, don't crash silently
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass


class ConservativeShardRunner:
    """Drive ``n_shards`` shard programs through barrier-synchronized
    windows, inline (``jobs=1``) or across persistent worker processes.

    Parameters
    ----------
    factory, factory_args:
        ``factory(*factory_args, shard_id)`` builds shard ``shard_id``.
        Must be a module-level callable with picklable args (spawn
        fallback; fork does not care).
    n_shards, jobs:
        Shards are assigned round-robin to ``min(jobs, n_shards)``
        workers: worker ``w`` owns every shard ``s`` with
        ``s % jobs == w``.
    timeout_s:
        Per-barrier timeout before a worker is declared hung.
    max_restarts:
        Total crash/timeout recoveries allowed across the run.
    """

    def __init__(
        self,
        factory: Callable[..., Any],
        factory_args: Tuple,
        n_shards: int,
        jobs: int = 1,
        timeout_s: float = 600.0,
        max_restarts: int = 2,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self._factory = factory
        self._factory_args = factory_args
        self.n_shards = n_shards
        check_jobs(jobs)
        self.jobs = min(jobs, n_shards)
        self.timeout_s = timeout_s
        self.max_restarts = max_restarts
        self.restarts = 0
        self._history: List[Tuple[int, int, Any]] = []
        self._finished = False
        if self.jobs == 1:
            self._shards = [factory(*factory_args, shard_id) for shard_id in range(n_shards)]
            self._workers: List[Optional[Worker]] = []
        else:
            self._shards = None
            self._assignment = [
                [s for s in range(n_shards) if s % self.jobs == w] for w in range(self.jobs)
            ]
            self._workers = [None] * self.jobs
            for worker_id in range(self.jobs):
                self._start(worker_id)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _start(self, worker_id: int) -> Worker:
        worker = Worker(
            _worker_main,
            (self._factory, self._factory_args, self._assignment[worker_id]),
            siblings=[other for other in self._workers if other is not None],
        )
        self._workers[worker_id] = worker
        return worker

    def _recover(self, worker_id: int, reason: str) -> None:
        """Respawn a dead/hung worker and deterministically replay the
        recorded window history to rebuild its shard state."""
        self.restarts += 1
        if self.restarts > self.max_restarts:
            raise ShardWorkerError(
                f"shard worker {worker_id} failed ({reason}) and the restart "
                f"budget ({self.max_restarts}) is exhausted"
            )
        self._workers[worker_id].stop()
        self._workers[worker_id] = None
        worker = self._start(worker_id)
        for index, t_end, feedback in self._history:
            try:
                worker.send(("window", index, t_end, feedback))
                status, payload = worker.recv(self.timeout_s)
            except WorkerDown as down:
                verb = "hung" if down.reason == "timeout" else "crashed"
                raise ShardWorkerError(
                    f"shard worker {worker_id} {verb} during replay"
                ) from down
            if status != "ok":
                raise ShardWorkerError(
                    f"shard worker {worker_id} failed again during replay: {payload}"
                )
            # Replay results are discarded: the originals were already
            # merged.  Determinism guarantees they are identical anyway.

    def _broadcast(self, command: tuple) -> Dict[int, Any]:
        """Send ``command`` to every worker, then collect every reply --
        the two phases are split so workers genuinely run the window
        concurrently.  A worker that crashes or hangs is recovered once
        (respawn + replay) and the command re-issued to it."""
        for worker_id in range(self.jobs):
            while True:
                try:
                    self._workers[worker_id].send(command)
                    break
                except WorkerDown as down:
                    # _recover raises once the restart budget is spent,
                    # so these loops always terminate.
                    self._recover(worker_id, down.reason)
        payloads: Dict[int, Any] = {}
        for worker_id in range(self.jobs):
            while True:
                try:
                    status, payload = self._workers[worker_id].recv(self.timeout_s)
                    break
                except WorkerDown as down:
                    self._recover(worker_id, down.reason)
                    self._workers[worker_id].send(command)
            if status != "ok":
                raise ShardWorkerError(f"shard worker {worker_id} raised: {payload}")
            payloads[worker_id] = payload
        return payloads

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def window(self, index: int, t_end: int, feedback: Any) -> List[Any]:
        """Run one conservative window on every shard; results are
        returned in shard-id order regardless of worker layout."""
        if self._finished:
            raise RuntimeError("runner already finished")
        if self._shards is not None:
            return [shard.run_window(index, t_end, feedback) for shard in self._shards]
        by_shard: Dict[int, Any] = {}
        payloads = self._broadcast(("window", index, t_end, feedback))
        # Recorded only *after* the barrier: recovery replays completed
        # windows and then re-issues the in-flight command, so the
        # window a worker died in is never run twice on the replacement.
        self._history.append((index, t_end, feedback))
        for worker_id, results in payloads.items():
            for shard_id, result in zip(self._assignment[worker_id], results):
                by_shard[shard_id] = result
        return [by_shard[shard_id] for shard_id in range(self.n_shards)]

    def finish(self) -> List[Any]:
        """Collect final per-shard summaries and shut workers down."""
        self._finished = True
        if self._shards is not None:
            return [shard.finish() for shard in self._shards]
        by_shard: Dict[int, Any] = {}
        payloads = self._broadcast(("finish",))
        for worker_id, results in payloads.items():
            for shard_id, result in zip(self._assignment[worker_id], results):
                by_shard[shard_id] = result
        self.close()
        return [by_shard[shard_id] for shard_id in range(self.n_shards)]

    def close(self) -> None:
        """Stop every worker and wait for it (idempotent)."""
        for worker_id, worker in enumerate(self._workers):
            if worker is not None:
                worker.stop()
                self._workers[worker_id] = None

    def __enter__(self) -> "ConservativeShardRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
