"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Actor, SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        hits = []
        sim.schedule(300, hits.append, "c")
        sim.schedule(100, hits.append, "a")
        sim.schedule(200, hits.append, "b")
        sim.run()
        assert hits == ["a", "b", "c"]

    def test_simultaneous_events_run_in_scheduling_order(self, sim):
        hits = []
        for tag in "abcde":
            sim.schedule(50, hits.append, tag)
        sim.run()
        assert hits == list("abcde")

    def test_priority_breaks_timestamp_ties(self, sim):
        hits = []
        sim.schedule(50, hits.append, "late", priority=1)
        sim.schedule(50, hits.append, "early", priority=0)
        sim.run()
        assert hits == ["early", "late"]

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1_000, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1_000]
        assert sim.now == 1_000

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_handlers_can_schedule_more_events(self, sim):
        hits = []

        def chain(n):
            hits.append(n)
            if n < 3:
                sim.schedule(10, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert hits == [0, 1, 2, 3]
        assert sim.now == 30


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        hits = []
        event = sim.schedule(100, hits.append, "x")
        event.cancel()
        sim.run()
        assert hits == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(100, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self, sim):
        keep = sim.schedule(100, lambda: None)
        drop = sim.schedule(200, lambda: None)
        drop.cancel()
        assert sim.pending() == 1
        assert keep is not drop


class TestRunControl:
    def test_run_until_stops_at_boundary(self, sim):
        hits = []
        sim.schedule(100, hits.append, "in")
        sim.schedule(500, hits.append, "out")
        sim.run(until=250)
        assert hits == ["in"]
        assert sim.now == 250
        sim.run(until=600)
        assert hits == ["in", "out"]

    def test_run_until_advances_time_even_with_no_events(self, sim):
        sim.run(until=1_000)
        assert sim.now == 1_000

    def test_max_events_limits_processing(self, sim):
        hits = []
        for i in range(10):
            sim.schedule(i, hits.append, i)
        sim.run(max_events=4)
        assert hits == [0, 1, 2, 3]

    def test_max_events_with_until_does_not_warp_time(self, sim):
        """Regression: breaking on max_events with events still pending
        before `until` must not fast-forward `now` past them -- the next
        run() would pop those events and move time backwards."""
        hits = []
        for t in (10, 20, 30):
            sim.schedule(t, hits.append, t)
        sim.run(until=100, max_events=1)
        assert hits == [10]
        assert sim.now == 10  # not warped to 100
        # Scheduling between the pending events and `until` stays legal.
        sim.schedule_at(15, hits.append, 15)
        sim.run(until=100)
        assert hits == [10, 15, 20, 30]
        assert sim.now == 100  # natural drain: fast-forward applies
        times = []
        sim.schedule_at(200, lambda: times.append(sim.now))
        sim.run()
        assert times == [200]

    def test_max_events_break_then_resume_time_is_monotone(self, sim):
        observed = []
        for t in (10, 20, 30, 40):
            sim.schedule(t, lambda: observed.append(sim.now))
        sim.run(until=1_000, max_events=2)
        sim.run(until=1_000)
        assert observed == sorted(observed)
        assert sim.now == 1_000

    def test_stop_from_handler(self, sim):
        hits = []
        sim.schedule(10, hits.append, 1)
        sim.schedule(20, lambda: sim.stop())
        sim.schedule(30, hits.append, 2)
        sim.run()
        assert hits == [1]

    def test_step_runs_one_event(self, sim):
        hits = []
        sim.schedule(5, hits.append, "a")
        sim.schedule(6, hits.append, "b")
        assert sim.step() is True
        assert hits == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestReprAgreesWithPending:
    def test_repr_agrees_with_pending_after_cancel(self, sim):
        """Regression: __repr__ used len(self._heap), which counts
        cancelled-but-unpopped entries and disagrees with pending()."""
        sim.schedule(100, lambda: None)
        dropped = sim.schedule(200, lambda: None)
        dropped.cancel()
        assert sim.pending() == 1
        assert "pending=1" in repr(sim)

    def test_repr_counts_message_fast_path_entries(self, sim):
        sim.schedule_message(50, lambda _: None, None)
        assert sim.pending() == 1
        assert "pending=1" in repr(sim)


class TestHookSeesFastPathEntries:
    """Regression: a dispatch_hook installed after schedule_message had
    filled the heap used to miss those dispatches entirely
    (DispatchProfiler undercounted when tracing was enabled after
    warmup).  Every heap entry is an Event now, so the hook sees the
    same object whenever it was installed."""

    def test_hook_installed_between_schedule_and_run(self, sim):
        hits, seen = [], []
        append = hits.append
        sim.schedule_message(10, append, "a")
        sim.schedule_message(20, append, "b")
        sim.dispatch_hook = seen.append
        sim.run()
        assert hits == ["a", "b"]
        assert [(event.time, event.args) for event in seen] == [(10, ("a",)), (20, ("b",))]
        assert all(event.fn is append for event in seen)

    def test_hook_installed_mid_run(self, sim):
        seen = []
        sim.schedule_message(10, lambda _: None, "early")
        sim.schedule(15, lambda: setattr(sim, "dispatch_hook", seen.append))
        sim.schedule_message(20, lambda _: None, "late")
        sim.run()
        # Only the delivery after the install is traced; it was already
        # in the heap when the hook appeared.
        assert [event.args for event in seen] == [("late",)]

    def test_step_invokes_hook_for_tuple_entries(self, sim):
        seen = []
        sim.schedule_message(10, lambda _: None, "x")
        sim.dispatch_hook = seen.append
        assert sim.step() is True
        assert [event.args for event in seen] == [("x",)]

    def test_synthetic_event_preserves_seq(self, sim):
        seen = []
        sim.schedule(5, lambda: None)  # seq 0
        sim.schedule_message(10, lambda _: None, "x")  # seq 1
        sim.dispatch_hook = seen.append
        sim.run()
        assert [event.seq for event in seen] == [0, 1]


class TestStepSemantics:
    def test_reentrant_step_rejected(self, sim):
        """Regression: step() lacked run()'s re-entrancy guard."""
        errors = []

        def nested():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, nested)
        sim.run()
        assert len(errors) == 1

    def test_step_inside_step_rejected(self, sim):
        errors = []

        def nested():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, nested)
        assert sim.step() is True
        assert len(errors) == 1

    def test_stop_then_step_honours_the_request(self, sim):
        """Regression: step() ignored a prior stop() request."""
        hits = []
        sim.schedule(10, hits.append, "x")
        sim.stop()
        assert sim.step() is False  # consumes the stop request
        assert hits == []
        assert sim.pending() == 1
        assert sim.step() is True  # request was one-shot, like run()
        assert hits == ["x"]


class TestScheduleMessageBulk:
    def _dispatch_order(self, schedule, n_background=0):
        sim = Simulator()
        hits = []
        for i in range(n_background):
            sim.schedule(1_000 + i, hits.append, ("bg", i))
        schedule(sim, hits)
        sim.run()
        return hits, sim.events_processed, sim.pending()

    @pytest.mark.parametrize("n_background", [0, 100])
    @pytest.mark.parametrize("n_entries", [1, 5, 64])
    def test_matches_scalar_schedule_message(self, n_entries, n_background):
        """Bulk scheduling consumes the same seq numbers, so dispatch
        order is identical whichever path (and whichever internal heap
        strategy) a train takes."""
        times = [((i * 37) % 19) * 100 for i in range(n_entries)]  # dups included

        def scalar(sim, hits):
            for i, t in enumerate(times):
                sim.schedule_message(t, hits.append, ("m", i))

        def bulk(sim, hits):
            sim.schedule_message_bulk([(t, hits.append, ("m", i)) for i, t in enumerate(times)])

        assert self._dispatch_order(scalar, n_background) == self._dispatch_order(
            bulk, n_background
        )

    def test_counts_pending_and_processed(self, sim):
        sim.schedule_message_bulk([(10, lambda _: None, i) for i in range(12)])
        assert sim.pending() == 12
        sim.run()
        assert sim.events_processed == 12
        assert sim.pending() == 0

    def test_past_time_rejected_atomically(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        before = sim.pending()
        with pytest.raises(SimulationError):
            sim.schedule_message_bulk(
                [(200, lambda _: None, 0), (50, lambda _: None, 1), (300, lambda _: None, 2)]
            )
        assert sim.pending() == before  # validation precedes admission

    def test_hook_sees_every_bulk_delivery(self):
        for n_entries in (2, 12):  # heappush side, heapify side
            sim = Simulator()
            seen, hits = [], []
            sim.dispatch_hook = seen.append
            sim.schedule_message_bulk([(10 * i, hits.append, i) for i in range(n_entries)])
            sim.run()
            assert hits == list(range(n_entries))
            assert [(event.time, event.seq, event.args) for event in seen] == [
                (10 * i, i, (i,)) for i in range(n_entries)
            ]
            assert all(event.fn == hits.append for event in seen)


class TestActor:
    def test_unhandled_message_raises(self, sim):
        actor = Actor(sim, "a1")
        with pytest.raises(NotImplementedError):
            actor.on_message("payload", "sender")

    def test_repr_contains_name(self, sim):
        assert "a1" in repr(Actor(sim, "a1"))
