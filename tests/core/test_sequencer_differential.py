"""Differential test: the one sequencer vs a naive reference queue.

Every fairness policy orders inbound traffic through
:class:`repro.core.sequencer.Sequencer`; what varies is a rank rule and
a hold.  The reference below was written from that contract, not from
the heap: it walks simulated time one nanosecond at a time, keeps the
pending items in a flat list that it rescans for the head whenever it
is asked, and recomputes the DBO windows from the full arrival history.
Hypothesis drives both with the same ``(arrival, gateway, gateway_ts)``
schedule and the same intermittently busy consumer and requires the
same release order at the same instants, equal ``SequencerSample``
fields, and the release timer firing at the same instants -- under the
three configurations the policies use:

(a) gateway-timestamp rank + settable hold, retuned mid-run (cloudex, pfo);
(b) min-lag rank + live capped guard (dbo);
(c) arrival rank + zero hold (noop).

The timer is part of the contract because its wake-ups are simulator
events the frontier study counts as CPU: one timer at most; asked for
when a new head or a pop attempt finds the head not yet eligible, at
the release instant computed *then* (so a guard that moves between
asks does not move the timer); an earlier ask replaces a later one.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequencer import Sequencer
from repro.fairness.dbo import DelayBounds
from repro.fairness.noop import arrival_rank
from repro.sim.clock import HostClock
from repro.sim.engine import Simulator

GATEWAYS = ("a", "b", "c")


# ----------------------------------------------------------------------
# The reference: a flat list, rescanned; time stepped 1 ns at a time
# ----------------------------------------------------------------------
class ReferenceRun:
    """``schedule[i] = (arrival, gateway, gateway_ts, stamped_true)`` is
    item ``i``; ``services[i]`` is how long the consumer is busy with it
    (0: it takes the next one in the same instant)."""

    def __init__(self, schedule, services, rank_of, hold_of, delay=0, retunes=()):
        self.schedule = schedule
        self.services = services
        self.rank_of = rank_of  # (history, key, arrival) -> rank
        self.hold_of = hold_of  # (history, delay) -> hold
        self.retunes = retunes  # (instant, new delay), fixed-hold runs only
        self.delay = delay
        self.history = []  # (gateway, gateway_ts, arrival) admitted so far
        self.pending = []  # (rank, key, i, arrival)
        self.timer = None
        self.busy_until = None
        self.releases, self.samples, self.fires = [], [], []
        self._last = None  # (gateway_ts, stamped_true) of the preceding release

    def _hold(self):
        return self.hold_of(self.history, self.delay)

    def _ask_timer(self, due):
        if self.timer is None or self.timer > due:
            self.timer = due

    def _take(self, t):
        """An idle consumer takes heads for as long as they are eligible."""
        while self.busy_until is None and self.pending:
            head = min(self.pending)
            rank, key, i, arrival = head
            due = rank + self._hold()
            if due > t:
                self._ask_timer(due)
                return
            self.pending.remove(head)
            stamped_true = self.schedule[i][3]
            last = self._last
            self.samples.append((
                key[0], arrival, max(arrival, due),
                last is not None and key[0] < last[0],
                last is not None and stamped_true < last[1],
            ))
            self._last = (key[0], stamped_true)
            self.releases.append((i, t))
            if self.services[i]:
                self.busy_until = t + self.services[i]

    def _new_head_or_hold(self, t):
        rank = min(self.pending)[0]
        due = rank + self._hold()
        if due <= t:
            self._take(t)
        else:
            self._ask_timer(due)

    def run(self, horizon):
        for t in range(horizon + 1):
            for i, (arrival, gateway, gateway_ts, _) in enumerate(self.schedule):
                if arrival != t:
                    continue
                key = (gateway_ts, gateway, i)
                self.history.append((gateway, gateway_ts, arrival))
                entry = (self.rank_of(self.history, key, arrival), key, i, arrival)
                self.pending.append(entry)
                if min(self.pending) == entry:
                    self._new_head_or_hold(t)
            for instant, delay in self.retunes:
                if instant == t and delay != self.delay:
                    self.delay = delay
                    self.timer = None
                    if self.pending:
                        self._new_head_or_hold(t)
            if self.busy_until == t:
                self.busy_until = None
                self._take(t)
            if self.timer == t:
                self.timer = None
                self.fires.append(t)
                self._take(t)
        assert not self.pending and self.busy_until is None and self.timer is None
        return self


def _lags(history, gateway, window):
    return [arrival - ts for g, ts, arrival in history if g == gateway][-window:]


def reference_rules(mode, window, cap):
    """``(rank_of, hold_of)`` of the reference for one configuration."""
    if mode == "gateway_ts":
        return (lambda history, key, arrival: key[0]), (lambda history, delay: delay)
    if mode == "arrival":
        return (lambda history, key, arrival: arrival), (lambda history, delay: 0)

    def rank_of(history, key, arrival):
        return key[0] + min(_lags(history, key[1], window))

    def hold_of(history, delay):
        spreads = [
            max(lags) - min(lags)
            for lags in (_lags(history, g, window) for g in GATEWAYS)
            if lags
        ]
        return min(cap, max(spreads, default=0))

    return rank_of, hold_of


# ----------------------------------------------------------------------
# The system under test: the real queue on the real simulator
# ----------------------------------------------------------------------
class SequencerRun:
    def __init__(self, schedule, services, retunes=(), **sequencer_kwargs):
        self.sim = Simulator()
        self.services = services
        self.busy = False
        self.releases, self.samples, self.fires = [], [], []
        self.sequencer = Sequencer(
            self.sim, HostClock(self.sim), on_eligible=self._wake,
            on_sample=self._on_sample, **sequencer_kwargs,
        )
        fire = self.sequencer._fire

        def recording_fire():
            self.fires.append(self.sim.now)
            fire()

        self.sequencer._fire = recording_fire
        for i, (arrival, gateway, gateway_ts, stamped_true) in enumerate(schedule):
            self.sim.schedule_at(
                arrival, self.sequencer.enqueue, (gateway_ts, gateway, i), i, stamped_true
            )
        for instant, delay in retunes:
            self.sim.schedule_at(instant, self.sequencer.set_delay, delay)

    def _on_sample(self, s):
        self.samples.append((
            s.gateway_timestamp, s.enqueued_local, s.dequeued_local,
            s.out_of_sequence, s.out_of_sequence_true,
        ))

    def _wake(self):
        while not self.busy:
            item = self.sequencer.pop_eligible()
            if item is None:
                return
            self.releases.append((item, self.sim.now))
            if self.services[item]:
                self.busy = True
                self.sim.schedule(self.services[item], self._done)

    def _done(self):
        self.busy = False
        self._wake()

    def run(self):
        self.sim.run()
        assert self.sequencer.pending() == 0
        return self


# ----------------------------------------------------------------------
# Strategies and the three configurations
# ----------------------------------------------------------------------
TIME = st.integers(0, 60)
_ITEM = st.tuples(TIME, st.sampled_from(GATEWAYS), TIME, TIME, st.integers(0, 12))


@st.composite
def flows(draw):
    """Arrival-sorted schedule plus a service time per item."""
    rows = sorted(draw(st.lists(_ITEM, min_size=1, max_size=14)), key=lambda row: row[0])
    return [row[:4] for row in rows], [row[4] for row in rows]


def horizon_of(schedule, services, max_hold):
    # Last arrival or stamp, the longest hold, every service in turn.
    return 60 + 60 + max_hold + sum(services) + 1


def assert_same(real, model):
    assert real.releases == model.releases
    assert real.samples == model.samples
    assert real.fires == model.fires


@given(
    flow=flows(),
    delay=st.integers(0, 30),
    retunes=st.lists(st.tuples(TIME, st.integers(0, 30)), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_gateway_timestamp_rank_with_settable_hold(flow, delay, retunes):
    schedule, services = flow
    retunes = sorted(retunes, key=lambda r: r[0])
    real = SequencerRun(schedule, services, retunes=retunes, delay_ns=delay).run()
    model = ReferenceRun(
        schedule, services, *reference_rules("gateway_ts", 0, 0), delay=delay, retunes=retunes
    ).run(horizon_of(schedule, services, 30))
    assert_same(real, model)


@given(flow=flows(), window=st.integers(1, 4), cap=st.integers(0, 25))
@settings(max_examples=300, deadline=None)
def test_min_lag_rank_with_live_capped_guard(flow, window, cap):
    schedule, services = flow
    bounds = DelayBounds(window, cap)
    real = SequencerRun(schedule, services, rank=bounds.rank, guard=bounds.guard_ns).run()
    model = ReferenceRun(schedule, services, *reference_rules("min_lag", window, cap)).run(
        horizon_of(schedule, services, cap)
    )
    assert_same(real, model)


@given(flow=flows())
@settings(max_examples=300, deadline=None)
def test_arrival_rank_with_zero_hold(flow):
    schedule, services = flow
    real = SequencerRun(schedule, services, rank=arrival_rank).run()
    model = ReferenceRun(schedule, services, *reference_rules("arrival", 0, 0)).run(
        horizon_of(schedule, services, 0)
    )
    assert_same(real, model)
    assert not real.fires  # an arrival is never in the future: no timer, ever
    assert all(dequeued == enqueued for _, enqueued, dequeued, _, _ in real.samples)
