"""One supervised worker process on a duplex pipe.

The process-supervision primitive shared by the sweep pool
(:mod:`repro.exp.pool`, stateless tasks) and the shard runner
(:mod:`repro.sim.parallel`, stateful shard programs): this module is
the one place that picks the multiprocessing context, starts a child,
closes pipe ends the child must not hold, reads a dead or hung worker
as :class:`WorkerDown`, and terminates + joins.  What to do about a
worker that is down -- re-queue the task, respawn and replay history --
stays with the caller.

Each worker has a dedicated pipe, deliberately *not* a shared queue, so
a worker dying mid-write (segfault, OOM kill, ``terminate()`` on
timeout) can corrupt nothing shared and surfaces as a plain EOF on its
own pipe.  The same holds in the other direction: a worker whose owner
closes its end, or dies, reads EOF and its loop is expected to return.

Stdlib only: ``repro.exp`` imports ``repro.core`` imports ``repro.sim``,
so this is the lowest layer both users can reach without a cycle.
"""

from __future__ import annotations

import multiprocessing
import signal
from typing import Any, Callable, Optional, Sequence, Tuple


class WorkerDown(Exception):
    """The worker cannot answer: ``reason`` is ``"crash"`` (EOF or a
    broken pipe) or ``"timeout"`` (nothing arrived by the deadline)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def check_jobs(jobs: int) -> None:
    """A worker count below 1 is an error everywhere it is accepted --
    the pool, the shard runner and the ``--jobs`` flags in front of
    them -- never a request to run inline."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def _mp_context():
    """Prefer fork (cheap, inherits the parent image, no pickling of the
    target); fall back to spawn on platforms without it."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _child_main(conn, inherited, target: Callable[..., None], args: Tuple) -> None:
    # First thing: drop the owner-side pipe ends fork copied into this
    # process.  While a copy is open here, the owner's death never reads
    # as EOF on that pipe and its worker would live forever.
    for end in inherited:
        end.close()
    # The owner decides when a worker stops: Ctrl-C reaches the whole
    # process group and must not kill workers under an owner that is
    # shutting down in order, and terminate() must not run a SIGTERM
    # handler inherited from the owner (``repro serve`` installs one).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        target(conn, *args)
    finally:
        conn.close()


class Worker:
    """A daemon child process running ``target(conn, *args)``.

    ``target`` must be a module-level callable (spawn fallback pickles
    it) that loops on ``conn.recv()`` and returns on :class:`EOFError`.
    ``siblings`` are the owner's other live workers: under fork the new
    child inherits their owner-side pipe ends and closes them at once.
    """

    def __init__(
        self,
        target: Callable[..., None],
        args: Tuple = (),
        siblings: Sequence["Worker"] = (),
    ) -> None:
        ctx = _mp_context()
        self.conn, child_conn = ctx.Pipe()
        inherited = (
            [self.conn, *(sibling.conn for sibling in siblings)]
            if ctx.get_start_method() == "fork"
            else []  # spawn inherits nothing; don't ship the ends over
        )
        self.process = ctx.Process(
            target=_child_main, args=(child_conn, inherited, target, args), daemon=True
        )
        self.process.start()
        # Our copy of the child's end goes immediately: a worker death
        # must read as EOF here, and later forks must not inherit it.
        child_conn.close()

    @property
    def exitcode(self) -> Optional[int]:
        """The exit status (negative = killed by that signal); only
        meaningful after :meth:`stop`, which joins."""
        return self.process.exitcode

    def send(self, message: Any) -> None:
        try:
            self.conn.send(message)
        except OSError as exc:  # broken pipe: the worker is gone
            raise WorkerDown("crash") from exc

    def recv(self, timeout_s: Optional[float] = None) -> Any:
        """The worker's next message; :class:`WorkerDown` if none arrives
        within ``timeout_s`` (``None`` = wait forever) or the pipe ends."""
        try:
            if not self.conn.poll(timeout_s):
                raise WorkerDown("timeout")
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerDown("crash") from exc

    def stop(self) -> None:
        """Close the pipe, terminate the process if the EOF did not end
        it already, and join (idempotent)."""
        self.conn.close()
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # SIGTERM blocked or ignored by the task
            self.process.kill()
            self.process.join()
