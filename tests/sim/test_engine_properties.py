"""Property tests pinning the simulator to an independent reference.

The simulator keeps one kind of heap entry, so there is no second code
path to compare it with.  The oracle lives here instead:
:class:`ReferenceScheduler` keeps a plain list, drops cancelled entries
and re-sorts by ``(time, priority, seq)`` before every dispatch -- no
heap, no bulk strategy, no loop shared with the engine.  Random programs
over all five ``schedule*`` entry points, cancels (before and during the
run) and hook installs (before, between and during runs) must give the
reference's dispatch sequence, ``events_processed``, ``pending()`` and
hook-call sequence -- exactly one call per dispatch while a hook is
installed -- however the simulator is driven: one ``run()``, tiled
``run(until=..., max_events=...)``, or repeated ``step()``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import FAULT_PRIORITY, Simulator


class _ReferenceEntry:
    def __init__(self, time, priority, seq, fn, args):
        self.time, self.priority, self.seq, self.fn, self.args = time, priority, seq, fn, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceScheduler:
    """The simulator's contract, executed the slow obvious way."""

    def __init__(self):
        self.now = 0
        self.entries = []
        self.seq = 0
        self.events_processed = 0
        self.dispatch_hook = None

    def schedule_at(self, time_ns, fn, *args, priority=0):
        entry = _ReferenceEntry(time_ns, priority, self.seq, fn, args)
        self.seq += 1
        self.entries.append(entry)
        return entry

    def schedule(self, delay_ns, fn, *args, priority=0):
        return self.schedule_at(self.now + delay_ns, fn, *args, priority=priority)

    def schedule_fault(self, time_ns, fn, *args):
        return self.schedule_at(time_ns, fn, *args, priority=FAULT_PRIORITY)

    def schedule_message(self, time_ns, fn, *args):
        self.schedule_at(time_ns, fn, *args)

    def schedule_message_bulk(self, entries):
        for time_ns, fn, *args in entries:
            self.schedule_at(time_ns, fn, *args)

    def pending(self):
        return sum(1 for entry in self.entries if not entry.cancelled)

    def step(self):
        self.entries = [entry for entry in self.entries if not entry.cancelled]
        if not self.entries:
            return False
        self.entries.sort(key=lambda entry: (entry.time, entry.priority, entry.seq))
        entry = self.entries.pop(0)
        self.now = entry.time
        if self.dispatch_hook is not None:
            self.dispatch_hook(entry)
        entry.fn(*entry.args)
        self.events_processed += 1
        return True


# One program is a list of ops, all issued at t=0 before the first run.
# Ops that return a handle append it to ``handles`` (cancel targets).
_TIME = st.integers(0, 40)
_TAG = st.integers(0, 999)
_OP = st.one_of(
    st.tuples(st.just("schedule"), _TIME, _TAG),
    st.tuples(st.just("schedule_at"), _TIME, st.sampled_from([-1, 0, 0, 0, 1]), _TAG),
    st.tuples(st.just("fault"), _TIME, _TAG),
    st.tuples(st.just("message"), _TIME, _TAG),
    # 0..12 entries straddles schedule_message_bulk's ">= 8" heapify rule.
    st.tuples(st.just("bulk"), st.lists(_TIME, max_size=12), _TAG),
    st.tuples(st.just("cancel"), st.integers(0, 31)),  # cancel handle k now
    st.tuples(st.just("cancel_at"), _TIME, st.integers(0, 31)),  # ... or mid-run
    st.tuples(st.just("hook"), st.booleans()),  # install / remove now
    st.tuples(st.just("hook_at"), _TIME, st.booleans()),  # ... or mid-run
    st.tuples(st.just("spawn"), _TIME, _TIME, _TAG),  # a handler that calls schedule()
)
_PROGRAM = st.lists(_OP, max_size=40)
# A train of 8 behind a heap of 36: the "batch rivals the heap" half of
# the heapify rule says push; the same train on an empty heap heapifies.
_BIG_HEAP_SMALL_TRAIN = [("bulk", [7] * 12, 0)] * 3 + [("bulk", [3, 9] * 4, 1), ("hook_at", 5, True)]


class _Machine:
    """Issues a program against one scheduler and records what it observes."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.log = []
        self.hook_calls = []
        self.handles = []

    def record(self, *tag):
        self.log.append((self.scheduler.now, tag))

    def hook(self, event):
        self.hook_calls.append((event.time, event.seq, event.fn.__name__, len(event.args)))

    def set_hook(self, enabled):
        self.scheduler.dispatch_hook = self.hook if enabled else None

    def cancel(self, k):
        if self.handles:
            self.handles[k % len(self.handles)].cancel()

    def spawn(self, delay, tag):
        self.scheduler.schedule(delay, self.record, "spawned", tag)

    def issue(self, ops):
        scheduler, keep = self.scheduler, self.handles.append
        for kind, *rest in ops:
            if kind == "schedule":
                keep(scheduler.schedule(rest[0], self.record, "schedule", rest[1]))
            elif kind == "schedule_at":
                keep(scheduler.schedule_at(rest[0], self.record, "at", rest[2], priority=rest[1]))
            elif kind == "fault":
                keep(scheduler.schedule_fault(rest[0], self.record, "fault", rest[1]))
            elif kind == "message":
                assert scheduler.schedule_message(rest[0], self.record, rest[1]) is None
            elif kind == "bulk":
                train = [(time, self.record, rest[1], i) for i, time in enumerate(rest[0])]
                assert scheduler.schedule_message_bulk(train) is None
            elif kind == "cancel":
                self.cancel(rest[0])
            elif kind == "cancel_at":
                keep(scheduler.schedule_at(rest[0], self.cancel, rest[1]))
            elif kind == "hook":
                self.set_hook(rest[0])
            elif kind == "hook_at":
                keep(scheduler.schedule_at(rest[0], self.set_hook, rest[1]))
            else:
                keep(scheduler.schedule_at(rest[0], self.spawn, rest[1], rest[2]))

    def observed(self):
        return self.log, self.hook_calls, self.scheduler.events_processed, self.scheduler.pending()


def _issue(ops):
    sim, ref = _Machine(Simulator()), _Machine(ReferenceScheduler())
    sim.issue(ops)
    ref.issue(ops)
    _assert_agree(sim, ref)
    return sim, ref


def _assert_agree(sim, ref):
    """Step the reference up to the simulator's dispatch count; from
    there everything observable must be equal."""
    while ref.scheduler.events_processed < sim.scheduler.events_processed:
        assert ref.scheduler.step()
    assert sim.observed() == ref.observed()


def _assert_drained(sim, ref):
    _assert_agree(sim, ref)
    assert sim.scheduler.pending() == 0
    assert not ref.scheduler.step()


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(_PROGRAM)
    @example(_BIG_HEAP_SMALL_TRAIN)
    def test_single_run(self, ops):
        sim, ref = _issue(ops)
        sim.scheduler.run()
        _assert_drained(sim, ref)

    @settings(max_examples=150, deadline=None)
    @given(
        _PROGRAM,
        st.lists(
            st.tuples(
                st.integers(0, 15),  # how far this tile's `until` advances
                st.one_of(st.none(), st.integers(0, 4)),  # max_events
                st.one_of(st.none(), st.booleans()),  # hook change after the tile
            ),
            max_size=8,
        ),
    )
    @example(_BIG_HEAP_SMALL_TRAIN, [(5, 2, None), (5, None, False), (0, 0, True)])
    def test_tiled_runs(self, ops, tiles):
        sim, ref = _issue(ops)
        until = 0
        for advance, max_events, hook_change in tiles:
            until += advance
            before = sim.scheduler.events_processed
            sim.scheduler.run(until=until, max_events=max_events)
            _assert_agree(sim, ref)
            assert all(time <= until for time, _ in sim.log)
            if max_events is None or sim.scheduler.events_processed - before < max_events:
                # Not cut short: time tiles to the horizon and nothing
                # due by it is left behind.
                assert sim.scheduler.now == until
                assert all(e.cancelled or e.time > until for e in ref.scheduler.entries)
            if hook_change is not None:  # installed between runs
                sim.set_hook(hook_change)
                ref.set_hook(hook_change)
        sim.scheduler.run()
        _assert_drained(sim, ref)

    @settings(max_examples=100, deadline=None)
    @given(_PROGRAM)
    @example(_BIG_HEAP_SMALL_TRAIN)
    def test_repeated_step(self, ops):
        sim, ref = _issue(ops)
        steps = 0
        while sim.scheduler.step():
            steps += 1
            _assert_agree(sim, ref)
        assert steps == sim.scheduler.events_processed
        _assert_drained(sim, ref)
