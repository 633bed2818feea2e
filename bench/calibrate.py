"""Machine-speed calibration: what makes host times comparable between
runs on a shared box.

The benchmark runs on a few cores of a shared host.  Stolen CPU time, a
busy SMT sibling and frequency changes move the speed of the *machine*
by tens of percent from one second to the next, far more than any change
to the program a later PR wants to resolve.  So every timed round is
bracketed by two *calibration slices* -- a fixed amount of interpreter
work of the kind the simulator does (method calls, heap pushes and pops,
dict stores, tuple allocation, integer and float arithmetic) -- and the
round's host time is divided by how much slower than the reference
machine those slices ran.  The slices are the benchmark's own code, so a
change to the program cannot move them; what is left after the division
is the program's cost at reference speed.

Every end-to-end host time the benchmark reports is normalised this way
(the raw machine slowdown is printed beside them).  The shorter the piece
of work between two slices, the better they describe the machine while
it ran, so a workload times itself in pieces of a few tenths of a second.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of the loop below in one slice.
ITERATIONS = 40_000
#: What one slice takes on the reference machine, by definition.  (The
#: 2-core box this benchmark was written on runs a slice in 0.020-0.027 s
#: depending on the minute.)
REFERENCE_S = 0.020


class _Cell:
    __slots__ = ("state",)

    def __init__(self) -> None:
        self.state = 1

    def step(self, x: int) -> int:
        self.state = (self.state * 31 + x) % 1_000_003
        return self.state


def slice_s() -> float:
    """Run one calibration slice; its host time in seconds."""
    # No collector pass inside the slice: how much garbage the program
    # left behind is the program's business, not the machine's speed.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        heap: list = []
        table: dict = {}
        cell = _Cell()
        total = 0.0
        started = time.perf_counter()
        for i in range(ITERATIONS):
            key = cell.step(i)
            heapq.heappush(heap, (key, i, cell))
            table[key & 1023] = i
            if i & 3 == 3:
                total += heapq.heappop(heap)[0] * 0.5
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def slowdown(before_s: float, after_s: float) -> float:
    """How much slower than the reference machine the stretch between two
    slices ran (1.0 = reference speed)."""
    return (before_s + after_s) / (2.0 * REFERENCE_S)


def raw_timed(piece: Callable[[], T]) -> Tuple[T, float]:
    """``(piece(), its host seconds)`` with no calibration: what the
    traced runs use, where only shares of the wall matter."""
    started = time.perf_counter()
    result = piece()
    return result, time.perf_counter() - started


class Clock:
    """Times pieces of work, a calibration slice before and after each;
    consecutive pieces share the slice between them."""

    def __init__(self) -> None:
        self._before = slice_s()
        #: The machine slowdown around every piece timed so far.
        self.slowdowns: List[float] = []

    def timed(self, piece: Callable[[], T]) -> Tuple[T, float]:
        """``(piece(), its host seconds at reference machine speed)``."""
        result, elapsed = raw_timed(piece)
        after = slice_s()
        slow = slowdown(self._before, after)
        self._before = after
        self.slowdowns.append(slow)
        return result, elapsed / slow
