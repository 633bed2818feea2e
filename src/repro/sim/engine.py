"""The discrete-event simulation engine.

A :class:`Simulator` owns a heap of pending events ordered by
``(time, priority, sequence)``.  Time is integer nanoseconds
(:mod:`repro.sim.timeunits`).  The sequence number breaks ties between
events scheduled for the same instant, preserving scheduling order so
runs are fully deterministic.

Components are :class:`Actor` subclasses; an actor holds a reference to
the simulator and schedules callbacks on it.  There are no threads:
handlers run to completion one at a time, which is what allows a pure
Python process to observe microsecond-scale fairness phenomena that a
wall-clock implementation could not time precisely (see DESIGN.md §4).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only ever needs
    :meth:`cancel`.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_sim", "_in_heap")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._in_heap = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._in_heap and self._sim is not None:
                self._sim._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        fn_name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time}, fn={fn_name}, {state})"


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
        # Heap entries are ``(time, priority, seq, event)`` tuples so
        # sift comparisons stay in C (tuple < tuple) instead of calling
        # ``Event.__lt__`` millions of times per run.
        self._heap: List[tuple] = []
        self._seq: int = 0
        self._live: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self.events_processed: int = 0
        #: Optional profiling hook called with each event just before
        #: it executes (see :class:`repro.obs.profiler.DispatchProfiler`).
        #: Must not mutate simulation state.
        self.dispatch_hook: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
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
        return self.schedule_at(self.now + delay_ns, fn, *args, priority=priority)

    def schedule_at(
        self,
        time_ns: int,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time_ns``."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} ns; simulation time is already {self.now} ns"
            )
        event = Event(time_ns, priority, self._seq, fn, args, self)
        event._in_heap = True
        heapq.heappush(self._heap, (time_ns, priority, self._seq, event))
        self._seq += 1
        self._live += 1
        return event

    def schedule_message(self, time_ns: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` at ``time_ns`` without allocating an Event.

        A pinned-shape fast path for the single hottest schedule site --
        message delivery, a quarter of all events in a cluster run.
        Deliveries are never cancelled and always run at priority 0, so
        the heap entry can carry a plain ``(fn, arg)`` tuple instead of
        an :class:`Event`; no handle is returned.  A sequence number is
        consumed from the same counter as :meth:`schedule_at`, so event
        ordering -- and therefore the whole run -- is identical
        whichever path a delivery takes.  While a ``dispatch_hook`` is
        installed this delegates to :meth:`schedule_at` so profilers
        see a real Event for every dispatch.
        """
        if self.dispatch_hook is not None:
            self.schedule_at(time_ns, fn, arg)
            return
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} ns; simulation time is already {self.now} ns"
            )
        heapq.heappush(self._heap, (time_ns, 0, self._seq, (fn, arg)))
        self._seq += 1
        self._live += 1

    def schedule_message_bulk(self, entries: "Sequence[tuple]") -> None:
        """Schedule a train of ``fn(arg)`` deliveries in one call.

        ``entries`` is a sequence of ``(time_ns, fn, arg)`` triples.
        Semantically identical to calling :meth:`schedule_message` once
        per entry in order -- the same sequence numbers are consumed
        from the same counter, and heap pops are ordered purely by the
        ``(time, priority, seq)`` key, so dispatch order (and therefore
        the whole run) cannot depend on which path a train took.  What
        changes is the heap maintenance: when the batch rivals the heap
        in size, entries are appended and the heap is rebuilt once
        (O(n + m)) instead of m sift-up pushes (O(m log n)) -- the
        amortization the market-data fanout
        (:meth:`repro.sim.network.Network.send_many`) relies on.

        Validation happens before any entry is admitted, so a bad
        timestamp leaves the simulator untouched.  Like
        :meth:`schedule_message`, delegates to :meth:`schedule_at`
        while a ``dispatch_hook`` is installed so profilers see a real
        Event per delivery.
        """
        if self.dispatch_hook is not None:
            for time_ns, fn, arg in entries:
                self.schedule_at(time_ns, fn, arg)
            return
        now = self.now
        for entry in entries:
            if entry[0] < now:
                raise SimulationError(
                    f"cannot schedule at t={entry[0]} ns; simulation time is already {now} ns"
                )
        heap = self._heap
        seq = self._seq
        if len(entries) >= 8 and len(entries) * 4 >= len(heap):
            append = heap.append
            for time_ns, fn, arg in entries:
                append((time_ns, 0, seq, (fn, arg)))
                seq += 1
            heapq.heapify(heap)
        else:
            heappush = heapq.heappush
            for time_ns, fn, arg in entries:
                heappush(heap, (time_ns, 0, seq, (fn, arg)))
                seq += 1
        self._live += seq - self._seq
        self._seq = seq

    def schedule_fault(self, time_ns: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule a fault transition (crash, partition, clock step).

        Fault transitions run at :data:`FAULT_PRIORITY` so a fault
        taking effect at time T is visible to every ordinary event at T.
        """
        return self.schedule_at(time_ns, fn, *args, priority=FAULT_PRIORITY)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
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
                entry = heap[0]
                event_time = entry[0]
                if event_time > horizon:
                    break
                heappop(heap)
                event = entry[3]
                if type(event) is tuple:
                    # schedule_message fast-path entry: (fn, arg),
                    # uncancellable.  schedule_message falls back to
                    # Events while a dispatch_hook is installed, so a
                    # tuple entry can coexist with a hook only when the
                    # hook was installed *after* the delivery was
                    # scheduled.  Profilers must still see those
                    # dispatches, so wrap the entry in a synthetic
                    # one-shot Event; the no-hook hot path is unchanged.
                    self._live -= 1
                    self.now = event_time
                    if self.dispatch_hook is not None:
                        self.dispatch_hook(
                            Event(event_time, 0, entry[2], event[0], (event[1],), None)
                        )
                    event[0](event[1])
                    processed += 1
                    continue
                event._in_heap = False
                if event.cancelled:
                    continue
                self._live -= 1
                self.now = event_time
                if self.dispatch_hook is not None:
                    self.dispatch_hook(event)
                event.fn(*event.args)
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
        self._running = True
        try:
            while self._heap:
                entry = heapq.heappop(self._heap)
                event = entry[3]
                if type(event) is tuple:
                    self._live -= 1
                    self.now = entry[0]
                    if self.dispatch_hook is not None:
                        # See run(): tuple entries predate a mid-run
                        # hook install; synthesize an Event for it.
                        self.dispatch_hook(
                            Event(entry[0], 0, entry[2], event[0], (event[1],), None)
                        )
                    event[0](event[1])
                    self.events_processed += 1
                    return True
                event._in_heap = False
                if event.cancelled:
                    continue
                self._live -= 1
                self.now = entry[0]
                if self.dispatch_hook is not None:
                    self.dispatch_hook(event)
                event.fn(*event.args)
                self.events_processed += 1
                return True
            return False
        finally:
            self._running = False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current handler."""
        self._stopped = True

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events (O(1): a live
        counter maintained by schedule/cancel/dispatch)."""
        return self._live

    def __repr__(self) -> str:
        # ``self._live``, not ``len(self._heap)``: the heap still holds
        # cancelled-but-unpopped entries, so its length can exceed the
        # number of events that will actually fire.  The repr must agree
        # with :meth:`pending`.
        return f"Simulator(now={self.now}, pending={self._live})"


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
