"""Tests for the hold/release buffer."""

from typing import NamedTuple

import pytest

from repro.core.holdrelease import HoldReleaseBuffer
from repro.core.marketdata import MarketDataPiece
from repro.obs.events import EventLog
from repro.sim.clock import HostClock
from repro.sim.engine import Simulator
from tests.sim import reference


class Report(NamedTuple):
    """One call of the buffer's ``report`` sink."""

    md_seq: int
    late: bool
    hold_ns: int


class Harness:
    def __init__(self, clock_offset=0, subscribers=None, clock=None):
        self.sim = Simulator()
        self.events = EventLog()
        self.clock = clock(self.sim) if clock else HostClock(self.sim, offset_ns=clock_offset)
        self.releases = []  # (seq, true release time)
        self.releases_local = []  # (seq, gateway-local release time)
        self.reports = []
        self.report_times = []  # true time each report left
        self.log = []  # "dispense" / "report", in call order
        self.buffer = HoldReleaseBuffer(
            self.sim,
            self.clock,
            gateway_id="g00",
            release=self._on_release,
            report=self._on_report,
            events=self.events,
            subscribers=subscribers,
        )

    def _on_release(self, piece, released_local):
        self.releases.append((piece.seq, self.sim.now))
        self.releases_local.append((piece.seq, released_local))
        self.log.append("dispense")

    def _on_report(self, md_seq, late, hold_ns):
        self.reports.append(Report(md_seq, late, hold_ns))
        self.report_times.append(self.sim.now)
        self.log.append("report")

    def offer_at(self, t, piece):
        self.sim.schedule_at(t, self.buffer.offer, piece)

    def lateness_logged(self):
        """``lateness_ns`` of every ``hr.late_release`` WARNING, in order."""
        return [e.fields["lateness_ns"] for e in self.events.events(kind="hr.late_release")]


def piece(seq=1, created=0, release_at=10_000):
    return MarketDataPiece(
        seq=seq, symbol="S", payload=object(), created_local=created, release_at=release_at
    )


class TestHold:
    def test_early_arrival_held_to_release_time(self):
        h = Harness()
        h.offer_at(2_000, piece(release_at=10_000))
        h.sim.run()
        assert h.releases == [(1, 10_000)]

    def test_report_carries_hold_time(self):
        h = Harness()
        h.offer_at(2_000, piece(release_at=10_000))
        h.sim.run()
        report = h.reports[0]
        assert report == Report(md_seq=1, late=False, hold_ns=8_000)
        assert h.lateness_logged() == []

    def test_simultaneous_release_across_desynced_gateways(self):
        """Two gateways with different clock errors release at the same
        *true* instant only if their disciplined clocks agree -- here
        they are perfectly disciplined, so releases coincide."""
        a, b = Harness(clock_offset=0), Harness(clock_offset=0)
        for h in (a, b):
            h.offer_at(1_000, piece(release_at=5_000))
            h.sim.run()
        assert a.releases[0][1] == b.releases[0][1] == 5_000


class TestLate:
    def test_late_arrival_released_immediately_and_flagged(self):
        h = Harness()
        h.offer_at(12_000, piece(release_at=10_000))
        h.sim.run()
        assert h.releases == [(1, 12_000)]
        report = h.reports[0]
        assert report.late is True
        assert h.lateness_logged() == [2_000]
        assert report.hold_ns == 0

    def test_exactly_on_time_is_not_late(self):
        # arrival == release time: the piece is released at t_R, the
        # same instant every other gateway releases -- a perfectly fair
        # delivery must not inflate the outbound unfairness ratio (or
        # push DDP's d_h upward).
        h = Harness()
        h.offer_at(10_000, piece(release_at=10_000))
        h.sim.run()
        assert h.releases == [(1, 10_000)]
        report = h.reports[0]
        assert report.late is False
        assert h.lateness_logged() == []
        assert report.hold_ns == 0
        assert h.buffer.late_count == 0

    def test_one_ns_past_release_is_late(self):
        h = Harness()
        h.offer_at(10_001, piece(release_at=10_000))
        h.sim.run()
        report = h.reports[0]
        assert report.late is True
        assert h.lateness_logged() == [1]
        assert report.hold_ns == 0
        assert h.buffer.late_count == 1


class TestStats:
    def test_mean_hold_and_late_ratio(self):
        h = Harness()
        h.offer_at(2_000, piece(seq=1, release_at=10_000))  # hold 8000
        h.offer_at(16_000, piece(seq=2, release_at=12_000))  # late
        h.sim.run()
        assert h.buffer.held_count == 2
        assert h.buffer.late_count == 1
        # The releasing delay is the reports' (the collector averages them).
        assert sum(r.hold_ns for r in h.reports) / len(h.reports) / 1_000 == pytest.approx(4.0)
        assert h.buffer.late_count / h.buffer.held_count == pytest.approx(0.5)

    def test_empty_stats(self):
        h = Harness()
        assert (h.buffer.held_count, h.buffer.late_count) == (0, 0)
        assert h.reports == []

    def test_clock_error_shifts_release_instant(self):
        # A gateway whose disciplined clock runs 1 us ahead releases
        # 1 us early in true time: the fairness cost of bad sync.
        h = Harness(clock_offset=1_000)
        h.offer_at(2_000, piece(release_at=10_000))
        h.sim.run()
        assert h.releases == [(1, 9_000)]


class TestSettleOnArrival:
    """A piece is settled -- counted, and its report sent -- the instant
    it arrives; a release timer only dispenses, and only where someone
    subscribes to the piece's symbol."""

    def test_held_report_leaves_at_arrival_with_the_same_values(self):
        h = Harness()
        h.offer_at(2_000, piece(release_at=10_000))
        h.sim.run(until=2_000)
        assert h.report_times == [2_000] and h.releases == []
        assert h.reports == [Report(1, False, 8_000)]
        assert h.buffer.held_count == 1
        h.sim.run()
        assert h.releases == [(1, 10_000)]
        assert h.log == ["report", "dispense"]

    @pytest.mark.parametrize(
        "arrival, hold_early, expected",
        [(12_000, True, (True, [2_000])), (10_000, True, (False, [])), (2_000, False, (False, []))],
        ids=["late", "on-time", "no-hold-early"],
    )
    def test_released_on_arrival_dispenses_then_reports(self, arrival, hold_early, expected):
        h = Harness()
        h.buffer.hold_early = hold_early
        h.offer_at(arrival, piece(release_at=10_000))
        h.sim.run()
        assert h.log == ["dispense", "report"]
        assert h.releases == [(1, arrival)] and h.report_times == [arrival]
        late, lateness_logged = expected
        assert h.reports == [Report(1, late, 0)]
        assert h.lateness_logged() == lateness_logged

    @pytest.mark.parametrize("subscribers", [{}, {"S": {}}, {"OTHER": {"p00": None}}])
    def test_held_piece_without_subscriber_pushes_no_heap_entry(self, subscribers):
        h = Harness(subscribers=subscribers)
        h.buffer.offer(piece(release_at=10_000))
        assert h.sim._heap == []
        assert len(h.reports) == 1 and h.reports[0].hold_ns == 10_000
        h.sim.run()
        assert h.releases == []
        assert h.buffer.flush() == 0

    def test_subscriber_seen_at_arrival_arms_one_timer(self):
        subscribers = {}
        h = Harness(subscribers=subscribers)
        h.buffer.offer(piece(seq=1, release_at=10_000))
        subscribers["S"] = {"p00": None}
        h.buffer.offer(piece(seq=2, release_at=10_000))
        assert len(h.sim._heap) == 1
        h.sim.run()
        assert h.releases == [(2, 10_000)]

    @pytest.mark.parametrize(
        "drift_ppb, offset_ns, correction",
        [
            (0, 0, None),
            (35_000, -4_000_000, None),
            (-80_000, 7_500_000, (7_499_000, -79_000, 1_000_000)),
            (99_999, 123_456_789, (123_400_000, 99_000, -5_000_000)),
        ],
    )
    def test_held_piece_dispensed_when_the_clock_reads_release_at(
        self, drift_ppb, offset_ns, correction
    ):
        def clock(sim):
            c = HostClock(sim, drift_ppb=drift_ppb, offset_ns=offset_ns)
            if correction is not None:
                c.set_linear_correction(*correction)
            return c

        h = Harness(subscribers={"S": {"p00": None}}, clock=clock)
        release_at = h.clock.now() + 750_000
        h.buffer.offer(piece(release_at=release_at))
        h.sim.run()
        assert h.releases == [(1, reference.local_to_true(h.clock, release_at))]
        assert abs(h.releases_local[0][1] - release_at) <= 2

    def test_rejoin_flush_cancels_the_dispense_and_sends_nothing(self):
        h = Harness(subscribers={"S": {"p00": None}})
        h.offer_at(2_000, piece(release_at=10_000))
        h.sim.schedule_at(5_000, lambda: h.log.append(f"flushed {h.buffer.flush()}"))
        h.sim.run()
        assert h.log == ["report", "flushed 1"]
        assert h.releases == [] and h.sim.pending() == 0
        assert h.buffer.held_count == 1 and h.buffer.late_count == 0
