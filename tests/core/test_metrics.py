"""Tests for the metrics collector."""

from types import SimpleNamespace

import pytest

from repro.core.holdrelease import HoldReleaseBuffer
from repro.core.marketdata import MarketDataPiece
from repro.core.metrics import LatencySummary, MetricsCollector
from repro.core.sequencer import SequencerSample
from repro.sim.clock import HostClock
from repro.sim.engine import Simulator
from repro.sim.timeunits import MICROSECOND, SECOND


def sample(qd=100, ooseq=False, ooseq_true=False):
    return SequencerSample(
        gateway_timestamp=0,
        enqueued_local=0,
        dequeued_local=qd,
        out_of_sequence=ooseq,
        out_of_sequence_true=ooseq_true,
    )


class TestOrderLifecycle:
    def test_submission_latency_pairs_submit_and_receipt(self):
        m = MetricsCollector()
        m.record_submission("p1", 1, now_true=1_000)
        m.record_engine_receipt("p1", 1, now_true=4_000)
        assert m.submission_latencies_ns == [3_000]

    def test_e2e_latency(self):
        m = MetricsCollector()
        m.record_submission("p1", 1, now_true=1_000)
        m.record_confirmation("p1", 1, now_true=9_000)
        assert m.e2e_latencies_ns == [8_000]

    def test_unmatched_receipt_ignored(self):
        m = MetricsCollector()
        m.record_engine_receipt("p1", 99, now_true=4_000)
        assert m.submission_latencies_ns == []

    def test_only_first_confirmation_counts(self):
        """A later confirmation for the same order (e.g. the cancel of
        a long-resting order) must not inflate e2e latency."""
        m = MetricsCollector()
        m.record_submission("p1", 1, now_true=1_000)
        m.record_confirmation("p1", 1, now_true=2_000)  # order ack
        m.record_confirmation("p1", 1, now_true=900_000_000)  # cancel ack much later
        assert m.e2e_latencies_ns == [1_000]


class TestSequencerAggregation:
    def test_ratios(self):
        m = MetricsCollector()
        for flag in (False, True, False, True):
            m.record_sequencer_sample(sample(ooseq=flag, ooseq_true=not flag))
        assert m.inbound_unfairness_ratio() == pytest.approx(0.5)
        assert m.inbound_unfairness_ratio_true() == pytest.approx(0.5)

    def test_mean_queuing_delay(self):
        m = MetricsCollector()
        m.record_sequencer_sample(sample(qd=2 * MICROSECOND))
        m.record_sequencer_sample(sample(qd=4 * MICROSECOND))
        assert m.mean_queuing_delay_us() == pytest.approx(3.0)

    def test_empty_ratios_zero(self):
        m = MetricsCollector()
        assert m.inbound_unfairness_ratio() == 0.0
        assert m.outbound_unfairness_ratio() == 0.0


class TestMdAggregation:
    def test_piece_fair_when_all_on_time(self):
        m = MetricsCollector()
        m.register_md_piece(1, expected_reports=3)
        assert m.record_md_report(1, late=False, hold_ns=100) is None
        assert m.record_md_report(1, late=False, hold_ns=200) is None
        assert m.record_md_report(1, late=False, hold_ns=300) is False
        assert m.outbound_unfairness_ratio() == 0.0
        assert m.md_pieces_finalized == 1

    def test_piece_unfair_when_any_late(self):
        m = MetricsCollector()
        m.register_md_piece(1, expected_reports=2)
        m.record_md_report(1, late=True, hold_ns=0)
        assert m.record_md_report(1, late=False, hold_ns=100) is True
        assert m.outbound_unfairness_ratio() == 1.0

    def test_unknown_piece_ignored(self):
        m = MetricsCollector()
        assert m.record_md_report(42, late=True, hold_ns=1) is None

    def test_releasing_delay_counts_every_report(self):
        m = MetricsCollector()
        m.register_md_piece(1, expected_reports=2)
        m.record_md_report(1, late=False, hold_ns=1 * MICROSECOND)
        m.record_md_report(1, late=False, hold_ns=3 * MICROSECOND)
        assert m.mean_releasing_delay_us() == pytest.approx(2.0)


class FanOut:
    """``n`` gateways' H/R buffers on one simulator, reporting straight
    into a collector that expects ``n`` reports of piece 1."""

    def __init__(self, n):
        self.sim = Simulator()
        self.metrics = MetricsCollector()
        self.metrics.register_md_piece(1, expected_reports=n)
        self.dispensed = []
        self.buffers = [
            HoldReleaseBuffer(
                self.sim,
                HostClock(self.sim),
                f"g{i:02d}",
                release=lambda piece, local: self.dispensed.append(piece.seq),
                report=self.metrics.record_md_report,
            )
            for i in range(n)
        ]

    def offer_at(self, t, buffer, release_at=10_000):
        piece = MarketDataPiece(
            seq=1, symbol="S", payload=None, created_local=0, release_at=release_at
        )
        self.sim.schedule_at(t, buffer.offer, piece)


class TestMdPartialFinalization:
    def test_flush_finalizes_piece_with_remaining_reports_in(self):
        # Fan-out of 2; one gateway crashed mid-hold and flushed.  Its
        # report left at arrival, so the piece finalizes complete.
        f = FanOut(2)
        a, b = f.buffers
        f.offer_at(1_000, a)
        f.offer_at(1_500, b)
        f.sim.schedule_at(5_000, a.flush)
        f.sim.run()
        assert f.dispensed == [1]  # b only
        assert f.metrics.md_pieces_finalized == 1
        assert f.metrics.md_pieces_partial == 0
        assert f.metrics.open_md_pieces() == 0

    def test_flush_of_only_gateway_finalizes_complete(self):
        f = FanOut(1)
        f.offer_at(1_000, f.buffers[0])
        f.sim.schedule_at(5_000, f.buffers[0].flush)
        f.sim.run()
        assert f.dispensed == []
        assert f.metrics.md_pieces_finalized == 1
        assert f.metrics.md_pieces_unreported == 0
        assert f.metrics.md_pieces_partial == 0
        assert f.metrics.mean_releasing_delay_us() == pytest.approx(9.0)

    def test_flush_keeps_piece_open_while_reports_outstanding(self):
        # Fan-out of 3, one flush: two live gateways still owe reports.
        f = FanOut(3)
        a, b, c = f.buffers
        f.offer_at(1_000, a)
        f.sim.schedule_at(2_000, a.flush)
        f.sim.run()
        assert f.metrics.open_md_pieces() == 1
        f.offer_at(12_000, b)  # late
        f.offer_at(12_000, c)
        f.sim.run()
        assert f.metrics.md_pieces_finalized == 1
        assert f.metrics.md_pieces_unfair == 1
        assert f.metrics.md_pieces_partial == 0

    def test_piece_missed_by_down_gateway_is_partial(self):
        # The one way a piece still finalizes partial: a gateway never
        # received it (down when it arrived); teardown closes it.
        f = FanOut(2)
        f.offer_at(1_000, f.buffers[0])
        f.sim.run()
        assert f.metrics.open_md_pieces() == 1
        assert f.metrics.finalize_partial_md() == 1
        assert f.metrics.md_pieces_partial == 1
        assert f.metrics.md_pieces_unfair == 0

    def test_partial_late_piece_counts_unfair(self):
        m = MetricsCollector()
        m.register_md_piece(1, expected_reports=2)
        m.record_md_report(1, late=True, hold_ns=0)
        assert m.finalize_partial_md() == 1
        assert m.md_pieces_partial == 1
        assert m.md_pieces_unfair == 1
        assert m.outbound_unfairness_ratio() == pytest.approx(1.0)

    def test_unfairness_ratio_excludes_unreported(self):
        m = MetricsCollector()
        m.register_md_piece(1, expected_reports=1)
        m.record_md_report(1, late=True, hold_ns=0)  # finalized unfair
        m.register_md_piece(2, expected_reports=1)
        m.finalize_partial_md()  # piece 2 unreported: no information
        assert m.md_pieces_unreported == 1
        assert m.outbound_unfairness_ratio() == pytest.approx(1.0)

    def test_finalize_partial_md_closes_everything(self):
        m = MetricsCollector()
        m.register_md_piece(1, expected_reports=2)
        m.record_md_report(1, late=False, hold_ns=50)
        m.register_md_piece(2, expected_reports=2)
        assert m.finalize_partial_md() == 2
        assert m.open_md_pieces() == 0
        assert m.md_pieces_partial == 1
        assert m.md_pieces_unreported == 1


class TestThroughputAndSummary:
    def test_throughput(self):
        m = MetricsCollector()
        m.orders_matched = 500
        m.measure_start_true = 0
        m.measure_end_true = SECOND // 2
        assert m.throughput_per_s() == pytest.approx(1_000.0)

    def test_summary_keys(self):
        m = MetricsCollector()
        summary = m.summary()
        for key in (
            "throughput_per_s",
            "submission_p50_us",
            "inbound_unfairness",
            "outbound_unfairness",
            "mean_queuing_delay_us",
            "mean_releasing_delay_us",
        ):
            assert key in summary

    def test_reset_window_clears_aggregates_keeps_inflight(self):
        m = MetricsCollector()
        m.record_submission("p1", 1, now_true=100)
        m.record_sequencer_sample(sample())
        m.orders_matched = 5
        m.reset_window(now_true=1_000)
        assert m.orders_released == 0
        assert m.orders_matched == 0
        assert m.queuing_delays_ns == []
        # In-flight submission still pairs after the reset.
        m.record_engine_receipt("p1", 1, now_true=2_000)
        assert m.submission_latencies_ns == [1_900]


class TestNamedCounts:
    """Counts live on components; the collector names and windows them."""

    def test_counts_read_the_owner_sorted_as_floats(self):
        owner = SimpleNamespace(late=2, dropped=1)
        metrics = MetricsCollector()
        metrics.count("hr.late", lambda: owner.late)
        metrics.count("a.dropped", lambda: owner.dropped)
        counts = metrics.counts()
        assert list(counts.items()) == [("a.dropped", 1.0), ("hr.late", 2.0)]
        assert all(type(value) is float for value in counts.values())
        owner.late += 3  # nothing is copied: the next read sees the owner
        assert metrics.counts()["hr.late"] == 5.0

    def test_naming_twice_rejected(self):
        metrics = MetricsCollector()
        metrics.count("x", lambda: 0)
        with pytest.raises(ValueError, match="already named"):
            metrics.count("x", lambda: 1)

    def test_reset_window_baselines_every_reader(self):
        owner = SimpleNamespace(a=4, b=7)
        metrics = MetricsCollector()
        metrics.count("a", lambda: owner.a)
        metrics.count("b", lambda: owner.b)
        assert (metrics.windowed("a"), metrics.windowed("b")) == (4, 7)
        metrics.reset_window(0)
        owner.a += 1
        assert (metrics.windowed("a"), metrics.windowed("b")) == (1, 0)
        assert metrics.counts() == {"a": 5.0, "b": 7.0}  # cumulative reads unmoved

    def test_messages_dropped_is_the_windowed_net_count(self):
        metrics = MetricsCollector()
        assert metrics.messages_dropped() == 0  # no network wired: nothing to read
        drops = [3]
        metrics.count("net.dropped_while_down", lambda: drops[0])
        metrics.reset_window(0)
        drops[0] = 8
        assert metrics.messages_dropped() == 5
        assert metrics.summary()["messages_dropped"] == 5.0


class TestLatencySummary:
    def test_from_ns(self):
        summary = LatencySummary.from_ns([i * MICROSECOND for i in range(1, 101)])
        assert summary.count == 100
        assert summary.p50_us == pytest.approx(50.5)
        assert summary.mean_us == pytest.approx(50.5)
        assert summary.p99_us > summary.p50_us

    def test_empty(self):
        summary = LatencySummary.from_ns([])
        assert summary.count == 0
        assert summary.p50_us == 0.0

    def test_empty_sentinel(self):
        summary = LatencySummary.empty()
        assert summary.is_empty
        assert summary.count == 0
        assert summary.p999_us == 0.0
        assert not LatencySummary.from_ns([1000]).is_empty
