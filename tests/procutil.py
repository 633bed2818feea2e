"""Process-table helpers for the "no process is left behind" tests.

Linux ``/proc`` only (what CI and the dev containers run); importing
tests skip themselves elsewhere via :data:`requires_proc`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Iterable, List

import pytest

requires_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs a Linux /proc"
)


def subprocess_env() -> dict:
    """An environment in which a child interpreter imports what this
    one does (``repro`` from ``src/``, ``tests`` from the repo root)."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` after the ``(comm)`` field: state, ppid, ..."""
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def children_of(pid: int) -> List[int]:
    """Live direct children of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            state, ppid = _stat_fields(int(entry))[:2]
        except (OSError, IndexError):
            continue  # exited while we were looking
        if int(ppid) == pid and state != "Z":
            found.append(int(entry))
    return sorted(found)


def is_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (an orphan whose
    new parent never reaps it is as gone as it will get)."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, IndexError):
        return False


def survivors(pids: Iterable[int], timeout_s: float = 5.0) -> List[int]:
    """Wait up to ``timeout_s`` for every pid to exit; returns the ones
    still running (empty = all gone)."""
    deadline = time.monotonic() + timeout_s
    left = [pid for pid in pids if is_running(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.02)
        left = [pid for pid in left if is_running(pid)]
    return left


def survivors_of_killed_owner(script: str, n_workers: int) -> List[int]:
    """Run ``script`` in a fresh interpreter, wait for it to print
    ``ready`` (its ``n_workers`` worker processes are up by then; it
    should sleep afterwards), ``SIGKILL`` it, and return the workers
    still running 5 s later.  Nothing tells the workers to go: they must
    notice on their own."""
    owner = subprocess.Popen(
        [sys.executable, "-c", script], env=subprocess_env(), stdout=subprocess.PIPE
    )
    try:
        assert owner.stdout.readline().strip() == b"ready"
        workers = children_of(owner.pid)
        assert len(workers) == n_workers, workers
        owner.kill()
        owner.wait(timeout=10)
        return survivors(workers, timeout_s=5.0)
    finally:
        owner.kill()
        owner.wait(timeout=10)
        owner.stdout.close()
