"""The discrete-event simulation engine.

A :class:`Simulator` owns a heap of pending :class:`Event` entries
ordered by ``(time, priority, sequence)`` -- one layout and one dispatch
loop, whichever ``schedule*`` method made the entry.  Time is integer
nanoseconds (:mod:`repro.sim.timeunits`).  The sequence number breaks
ties between events scheduled for the same instant, preserving
scheduling order so runs are fully deterministic.

Components are :class:`Actor` subclasses; an actor holds a reference to
the simulator and schedules callbacks on it.  There are no threads:
handlers run to completion one at a time, which is what allows a pure
Python process to observe microsecond-scale fairness phenomena that a
wall-clock implementation could not time precisely (see DESIGN.md §4).
"""

from __future__ import annotations

import gc
import heapq
import operator
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause automatic cyclic collection for the body (DESIGN.md §4.12).

    A run allocates only acyclic garbage, so the collector's passes over
    the live heap find nothing.  The state found on entry is restored,
    also when the body raises, and a nested pause changes nothing; the
    pause that switched the collector off settles with one young pass,
    so no deferred collection is left to the caller.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect(0)


class Event(list):
    """A scheduled callback: the heap entry ``[time, priority, seq, fn, args]``.

    The simulator's heap holds these and nothing else, whichever
    ``schedule*`` method made them.  ``seq`` is unique, so heap
    comparisons are C list comparisons decided by the
    ``(time, priority, seq)`` prefix and never reach ``fn``.  User code
    only ever needs :meth:`cancel`; a ``dispatch_hook`` reads ``time``,
    ``seq``, ``fn`` and ``args``.
    """

    __slots__ = ()

    time = property(operator.itemgetter(0))
    priority = property(operator.itemgetter(1))
    seq = property(operator.itemgetter(2))
    fn = property(operator.itemgetter(3))
    args = property(operator.itemgetter(4))

    @property
    def cancelled(self) -> bool:
        return self[3] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self[3] = None

    def __repr__(self) -> str:
        if self[3] is None:
            return f"Event(t={self[0]}, cancelled)"
        return f"Event(t={self[0]}, fn={getattr(self[3], '__qualname__', repr(self[3]))})"


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


#: Priority for fault transitions (repro.chaos): more negative than any
#: ordinary event, so a crash/partition taking effect at time T applies
#: before messages delivered at the same instant T.
FAULT_PRIORITY = -10


class Simulator:
    """Deterministic discrete-event simulator with integer-ns time.

    Examples
    --------
    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(1_000, hits.append, "a")
    >>> _ = sim.schedule(500, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    1000
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Event] = []
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self.events_processed: int = 0
        #: Optional profiling hook called with each :class:`Event` just
        #: before it executes (see :class:`repro.obs.profiler.DispatchProfiler`).
        #: Must not mutate simulation state.  Only the dispatch loop
        #: reads it, so installing one never changes what runs.
        self.dispatch_hook: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _past(self, time_ns: int) -> SimulationError:
        return SimulationError(
            f"cannot schedule at t={time_ns} ns; simulation time is already {self.now} ns"
        )

    def schedule(
        self,
        delay_ns: int,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now.

        ``priority`` orders events that share a timestamp: lower runs
        first.  Negative delays are rejected -- the past is immutable.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        return self._push(self.now + delay_ns, priority, fn, args)

    def schedule_at(
        self,
        time_ns: int,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time_ns``."""
        if time_ns < self.now:
            raise self._past(time_ns)
        return self._push(time_ns, priority, fn, args)

    def _push(self, time_ns: int, priority: int, fn: Callable[..., None], args: tuple) -> Event:
        """The one builder of cancellable entries; ``time_ns >= now`` is the caller's."""
        event = Event((time_ns, priority, self._seq, fn, args))
        heapq.heappush(self._heap, event)
        self._seq += 1
        return event

    def schedule_message(self, time_ns: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``time_ns`` at priority 0, returning no handle.

        The entry point for the hottest schedule site -- message
        delivery, over half of all events in a cluster run.  Deliveries
        are never cancelled, so no handle is returned; the heap entry
        and the sequence counter are the ones :meth:`schedule_at` uses,
        so ordering -- and therefore the whole run -- is identical
        whichever method scheduled a callback.
        """
        if time_ns < self.now:
            raise self._past(time_ns)
        heapq.heappush(self._heap, Event((time_ns, 0, self._seq, fn, args)))
        self._seq += 1

    def schedule_message_bulk(self, entries: "Sequence[tuple]") -> None:
        """Schedule a train of deliveries in one call.

        ``entries`` is a sequence of ``(time_ns, fn, *args)`` tuples.
        Semantically identical to calling :meth:`schedule_message` once
        per entry in order -- the same sequence numbers are consumed
        from the same counter, and heap pops are ordered purely by the
        ``(time, priority, seq)`` key, so dispatch order (and therefore
        the whole run) cannot depend on how a train was scheduled.  What
        changes is the heap maintenance: when the batch rivals the heap
        in size, entries are appended and the heap is rebuilt once
        (O(n + m)) instead of m sift-up pushes (O(m log n)) -- the
        amortization the market-data fanout
        (:meth:`repro.sim.network.Network.send_many`) relies on.

        Validation happens before any entry is admitted, so a bad
        timestamp leaves the simulator untouched.
        """
        now = self.now
        for entry in entries:
            if entry[0] < now:
                raise self._past(entry[0])
        heap = self._heap
        events = [
            Event((entry[0], 0, seq, entry[1], entry[2:]))
            for seq, entry in enumerate(entries, self._seq)
        ]
        self._seq += len(events)
        if len(events) >= 8 and len(events) * 4 >= len(heap):
            heap.extend(events)
            heapq.heapify(heap)
        else:
            for event in events:
                heapq.heappush(heap, event)

    def schedule_fault(self, time_ns: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule a fault transition (crash, partition, clock step).

        Fault transitions run at :data:`FAULT_PRIORITY` so a fault
        taking effect at time T is visible to every ordinary event at T.
        """
        return self.schedule_at(time_ns, fn, *args, priority=FAULT_PRIORITY)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @collector_paused()
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given, simulation time is advanced to exactly
        ``until`` even if the last event fires earlier, so back-to-back
        ``run(until=...)`` calls tile time contiguously.  The
        fast-forward is skipped when the loop was cut short by
        ``max_events`` or :meth:`stop` with events still pending before
        ``until`` -- advancing past them would make the next ``run()``
        pop those events and move ``now`` *backwards*.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from within an event handler")
        self._running = True
        self._stopped = False
        processed = 0
        hit_max_events = False
        # Hot loop: locals for the heap and heappop, and float("inf")
        # sentinels so the per-event limit checks are plain comparisons
        # (int/float comparison in Python is exact, no precision loss).
        heap = self._heap
        heappop = heapq.heappop
        horizon = until if until is not None else float("inf")
        stop_after = max_events if max_events is not None else float("inf")
        try:
            while heap:
                if self._stopped:
                    break
                if processed >= stop_after:
                    hit_max_events = True
                    break
                event = heap[0]
                time_ns = event[0]
                if time_ns > horizon:
                    break
                heappop(heap)
                fn = event[3]
                if fn is None:  # cancelled
                    continue
                self.now = time_ns
                hook = self.dispatch_hook
                if hook is not None:
                    hook(event)
                fn(*event[4])
                processed += 1
        finally:
            self._running = False
            self.events_processed += processed
        if (
            until is not None
            and not self._stopped
            and not hit_max_events
            and self.now < until
        ):
            self.now = until

    def step(self) -> bool:
        """Run a single event.  Returns False when no events remain.

        Mirrors :meth:`run` semantics: calling ``step()`` re-entrantly
        from inside an event handler raises :class:`SimulationError`,
        and a prior :meth:`stop` request is honoured -- the next
        ``step()`` consumes the request and returns False without
        dispatching anything, exactly like ``run()`` breaking before
        its next event.
        """
        if self._running:
            raise SimulationError("step() called re-entrantly from within an event handler")
        if self._stopped:
            self._stopped = False
            return False
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed > before

    def stop(self) -> None:
        """Request that :meth:`run` return after the current handler."""
        self._stopped = True

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events (counted on demand:
        the heap still holds cancelled-but-unpopped entries)."""
        return sum(1 for event in self._heap if event[3] is not None)

    def __repr__(self) -> str:
        return f"Simulator(now={self.now}, pending={self.pending()})"


class Actor:
    """Base class for simulation components.

    An actor is anything that schedules work on the simulator: a
    gateway, the matching engine, a trading bot, the clock-sync
    service.  Subclasses receive messages via :meth:`on_message` when
    registered as a host's handler (see :mod:`repro.sim.network`).
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name

    def on_message(self, msg: Any, sender: str) -> None:
        """Handle a delivered network message.

        Default implementation rejects the message loudly; silent drops
        hide wiring bugs.
        """
        raise NotImplementedError(f"{type(self).__name__} {self.name!r} received unexpected message {msg!r} from {sender!r}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
