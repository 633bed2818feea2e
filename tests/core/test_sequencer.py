"""Tests for the timestamp-ordered sequencer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequencer import Sequencer, SequencerSample
from repro.sim.clock import HostClock
from repro.sim.engine import Simulator
from repro.sim.timeunits import MICROSECOND


class Harness:
    """A sequencer wired to an always-ready consumer."""

    def __init__(self, delay_ns=0):
        self.sim = Simulator()
        self.clock = HostClock(self.sim)
        self.released = []
        self.samples = []
        self.sequencer = Sequencer(
            self.sim,
            self.clock,
            on_eligible=self._drain,
            delay_ns=delay_ns,
            on_sample=self.samples.append,
        )

    def _drain(self):
        while True:
            item = self.sequencer.pop_eligible()
            if item is None:
                break
            self.released.append((item, self.sim.now))

    def enqueue_at(self, t, ts, item, stamped_true=None):
        self.sim.schedule_at(
            t,
            self.sequencer.enqueue,
            (ts, "g", 0),
            item,
            stamped_true if stamped_true is not None else ts,
        )


class TestHoldAndRelease:
    def test_zero_delay_releases_on_arrival(self):
        h = Harness(delay_ns=0)
        h.enqueue_at(1_000, ts=500, item="a")
        h.sim.run()
        assert h.released == [("a", 1_000)]

    def test_delay_holds_until_ts_plus_ds(self):
        h = Harness(delay_ns=2_000)
        h.enqueue_at(1_000, ts=500, item="a")
        h.sim.run()
        assert h.released == [("a", 2_500)]  # ts 500 + d_s 2000

    def test_late_order_released_immediately(self):
        h = Harness(delay_ns=100)
        h.enqueue_at(10_000, ts=500, item="late")
        h.sim.run()
        assert h.released == [("late", 10_000)]

    def test_heap_orders_by_timestamp(self):
        h = Harness(delay_ns=5_000)
        h.enqueue_at(1_000, ts=900, item="second")
        h.enqueue_at(1_100, ts=800, item="first")  # earlier stamp arrives later
        h.sim.run()
        assert [item for item, _ in h.released] == ["first", "second"]

    def test_resequencing_within_hold_window(self):
        """The central fairness mechanism: d_s gives the earlier-stamped
        order time to arrive and be released first."""
        h = Harness(delay_ns=1_000)
        h.enqueue_at(1_000, ts=990, item="stamped-later")
        h.enqueue_at(1_500, ts=980, item="stamped-earlier")
        h.sim.run()
        assert [item for item, _ in h.released] == ["stamped-earlier", "stamped-later"]
        assert not any(s.out_of_sequence for s in h.samples)

    def test_insufficient_delay_causes_out_of_sequence(self):
        h = Harness(delay_ns=0)
        h.enqueue_at(1_000, ts=990, item="a")
        h.enqueue_at(1_500, ts=980, item="b")
        h.sim.run()
        assert [item for item, _ in h.released] == ["a", "b"]
        assert [s.out_of_sequence for s in h.samples] == [False, True]
        assert h.sequencer.inbound_unfairness_ratio() == pytest.approx(0.5)


class TestSamples:
    def test_queuing_delay_measures_hold(self):
        h = Harness(delay_ns=2_000)
        h.enqueue_at(1_000, ts=900, item="a")
        h.sim.run()
        # enqueued at 1000, eligible at 2900 -> queuing delay 1900.
        assert h.samples[0].queuing_delay_ns == 1_900

    def test_queuing_delay_zero_for_late_arrivals(self):
        h = Harness(delay_ns=100)
        h.enqueue_at(10_000, ts=0, item="a")
        h.sim.run()
        assert h.samples[0].queuing_delay_ns == 0

    def test_true_unfairness_uses_stamped_true(self):
        h = Harness(delay_ns=0)
        # Gateway timestamps claim order (10 then 20) but true stamping
        # order was inverted.
        h.enqueue_at(1_000, ts=10, item="a", stamped_true=500)
        h.enqueue_at(1_500, ts=20, item="b", stamped_true=400)
        h.sim.run()
        assert [s.out_of_sequence for s in h.samples] == [False, False]
        assert [s.out_of_sequence_true for s in h.samples] == [False, True]

    def test_out_of_sequence_compares_preceding_only(self):
        h = Harness(delay_ns=0)
        for t, ts in ((1_000, 10), (2_000, 30), (3_000, 20), (4_000, 25)):
            h.enqueue_at(t, ts=ts, item=ts)
        h.sim.run()
        # 20 < 30 (ooseq), but 25 > 20 (preceding), so not ooseq.
        assert [s.out_of_sequence for s in h.samples] == [False, False, True, False]


class TestDynamicDelay:
    def test_set_delay_extends_hold(self):
        h = Harness(delay_ns=100)
        h.enqueue_at(1_000, ts=1_000, item="a")
        h.sim.schedule_at(1_050, h.sequencer.set_delay, 10_000)
        h.sim.run()
        assert h.released == [("a", 11_000)]

    def test_set_delay_shrink_releases_sooner(self):
        h = Harness(delay_ns=100_000)
        h.enqueue_at(1_000, ts=1_000, item="a")
        h.sim.schedule_at(2_000, h.sequencer.set_delay, 3_000)
        h.sim.run()
        assert h.released == [("a", 4_000)]

    def test_queued_items_all_see_new_delay(self):
        """Pinned mid-run semantics: release times are computed lazily
        at pop from the *current* d_s, so items queued before the
        change are held (or released) under the new delay too."""
        h = Harness(delay_ns=100_000)
        for t, ts in ((1_000, 1_000), (1_100, 2_000), (1_200, 3_000)):
            h.enqueue_at(t, ts=ts, item=ts)
        h.sim.schedule_at(5_000, h.sequencer.set_delay, 500)
        h.sim.run()
        # All three were overdue under d_s=500 at t=5_000: released
        # there and then, still in timestamp order.
        assert h.released == [(1_000, 5_000), (2_000, 5_000), (3_000, 5_000)]

    def test_shrink_fires_on_eligible_synchronously(self):
        """Lowering d_s past an overdue head wakes the consumer at the
        set_delay instant itself, not at some later enqueue/pop."""
        h = Harness(delay_ns=50_000)
        h.enqueue_at(1_000, ts=1_000, item="a")
        h.sim.schedule_at(3_000, h.sequencer.set_delay, 0)
        h.sim.run()
        assert h.released == [("a", 3_000)]

    def test_unchanged_delay_is_a_no_op(self):
        h = Harness(delay_ns=10_000)
        h.enqueue_at(1_000, ts=1_000, item="a")
        h.sim.schedule_at(2_000, h.sequencer.set_delay, 10_000)
        h.sim.run()
        assert h.released == [("a", 11_000)]

    def test_negative_delay_rejected(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.sequencer.set_delay(-1)
        with pytest.raises(ValueError):
            Sequencer(h.sim, h.clock, on_eligible=lambda: None, delay_ns=-5)


class TestPinnedWorkload:
    def test_enqueue_then_drain_releases_every_item(self):
        """A fixed workload whose result a faster sequencer must leave
        unchanged."""
        sim = Simulator()
        seq = Sequencer(sim, HostClock(sim), on_eligible=lambda: None, delay_ns=0)
        for i in range(5_000):
            seq.enqueue((i % 97, "g", i), i, i)
        # Advance past every release deadline, then drain.
        sim.schedule(1_000, lambda: None)
        sim.run()
        drained = 0
        while seq.pop_eligible() is not None:
            drained += 1
        assert drained == 5_000


class TestBusyConsumer:
    def test_backlog_comes_out_sorted(self):
        """While the consumer is busy, arrivals accumulate in the heap
        and come out timestamp-sorted -- the property behind the
        paper's 24.6% -> 8.4% clock-sync result at d_s = 0."""
        sim = Simulator()
        clock = HostClock(sim)
        released = []
        sequencer = Sequencer(sim, clock, on_eligible=lambda: None, delay_ns=0)
        # Arrivals in a jumbled timestamp order while consumer ignores
        # eligibility notifications (busy).
        for t, ts in ((1_000, 50), (1_100, 30), (1_200, 40), (1_300, 10)):
            sim.schedule_at(t, sequencer.enqueue, (ts, "g", 0), ts, ts)
        sim.run()
        while True:
            item = sequencer.pop_eligible()
            if item is None:
                break
            released.append(item)
        assert released == [10, 30, 40, 50]
        assert sequencer.out_of_sequence_count == 0


@given(
    arrivals=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),  # (arrival offset, ts)
        min_size=1,
        max_size=40,
    ),
    delay_us=st.integers(0, 50),
)
@settings(max_examples=150, deadline=None)
def test_sufficiently_large_delay_guarantees_order(arrivals, delay_us):
    """If d_s exceeds the worst stamping->arrival lag, releases are
    perfectly ordered (the paper's core claim about d_s)."""
    h = Harness(delay_ns=0)
    # Normalize: arrival >= ts (an order can't arrive before stamping).
    jobs = [(ts + lag, ts) for lag, ts in arrivals]
    max_lag = max(arrival - ts for arrival, ts in jobs)
    h.sequencer.set_delay(max_lag + 1)
    for i, (arrival, ts) in enumerate(sorted(jobs)):
        h.enqueue_at(arrival, ts=ts, item=i)
    h.sim.run()
    released_ts = [h.samples[i].gateway_timestamp for i in range(len(h.samples))]
    assert released_ts == sorted(released_ts)
    assert h.sequencer.out_of_sequence_count == 0
