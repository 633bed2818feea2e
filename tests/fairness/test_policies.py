"""Unit tests for the fairness policies: the one queue and the one
buffer, configured as each policy rules them."""

import pytest

from repro.core.cluster import CloudExCluster
from repro.core.config import CloudExConfig
from repro.core.holdrelease import HoldReleaseBuffer
from repro.core.marketdata import MarketDataPiece
from repro.core.sequencer import Sequencer
from repro.fairness import POLICY_NAMES, make_policy
from repro.fairness.cloudex import CloudExPolicy
from repro.fairness.noop import NoopPolicy
from repro.fairness.pfo import PfoPolicy
from repro.obs.events import EventLog, Severity
from repro.sim.clock import HostClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def config_for(policy, **overrides):
    fields = dict(seed=3, n_participants=4, n_gateways=2, n_symbols=4,
                  fairness_policy=policy)
    fields.update(overrides)
    return CloudExConfig(**fields)


class TestRegistry:
    def test_every_name_resolves(self):
        for name in POLICY_NAMES:
            policy = make_policy(config_for(name))
            assert policy.name == name

    def test_unknown_name_rejected(self):
        config = config_for("cloudex")
        object.__setattr__(config, "fairness_policy", "bogus")
        with pytest.raises(ValueError, match="bogus"):
            make_policy(config)

    def test_fresh_instance_per_call(self):
        # PFO caches its calibration on the instance, so clusters must
        # not share policy objects across configs.
        config = config_for("pfo")
        assert make_policy(config) is not make_policy(config)


class InboundHarness:
    """The sequencer, ruled as ``CentralExchangeServer._build_sequencer``
    rules it for ``policy``, wired to an always-ready consumer."""

    def __init__(self, policy, **overrides):
        self.sim = Simulator()
        self.clock = HostClock(self.sim)
        self.released = []
        self.samples = []
        config = config_for(policy, **overrides)
        backend = make_policy(config)
        rank, guard = backend.shard_rule(config)
        self.ordering = Sequencer(
            self.sim, self.clock, self._drain,
            delay_ns=backend.inbound_hold_ns(config, RngRegistry(7)),
            on_sample=self.samples.append, rank=rank, guard=guard,
        )

    def _drain(self):
        while True:
            item = self.ordering.pop_eligible()
            if item is None:
                break
            self.released.append((item, self.sim.now))

    def enqueue_at(self, t, ts, item, gateway="g", stamped_true=None):
        self.sim.schedule_at(
            t,
            self.ordering.enqueue,
            (ts, gateway, 0),
            item,
            stamped_true if stamped_true is not None else ts,
        )


class TestPassthroughOrdering:
    """noop: arrival rank, zero hold."""

    def build(self):
        return InboundHarness("noop")

    def test_genuine_fifo_ignores_timestamps(self):
        # Arrival order 30, 10, 20 by timestamp: a d_s=0 sequencer
        # would still timestamp-sort a backlog; the noop FIFO must not.
        h = self.build()
        for t, ts in ((1_000, 30), (2_000, 10), (3_000, 20)):
            h.enqueue_at(t, ts=ts, item=ts)
        h.sim.run()
        assert [item for item, _ in h.released] == [30, 10, 20]
        # Zero hold: released at the arrival instant.
        assert [t for _, t in h.released] == [1_000, 2_000, 3_000]

    def test_unfairness_accounting_matches_sequencer_semantics(self):
        h = self.build()
        for t, ts in ((1_000, 30), (2_000, 10), (3_000, 20)):
            h.enqueue_at(t, ts=ts, item=ts)
        h.sim.run()
        # 10 < 30 ooseq; 20 > 10 (preceding) not ooseq.
        assert [s.out_of_sequence for s in h.samples] == [False, True, False]
        assert h.ordering.inbound_unfairness_ratio() == pytest.approx(1 / 3)
        assert h.ordering.delay_ns == 0
        assert h.ordering.pending() == 0

    def test_backlog_stays_in_arrival_order(self):
        h = self.build()
        collected = []
        h.ordering.on_eligible = lambda: None  # busy consumer
        for t, ts in ((1_000, 50), (1_100, 40), (1_200, 60)):
            h.enqueue_at(t, ts=ts, item=ts)
        h.sim.run()
        assert h.ordering.pending() == 3
        assert sorted(h.ordering.pending_items()) == [40, 50, 60]
        while True:
            item = h.ordering.pop_eligible()
            if item is None:
                break
            collected.append(item)
        assert collected == [50, 40, 60]
        # Waiting for a busy engine is not sequencer hold: queuing delay
        # runs to eligibility, which under noop is the arrival instant.
        assert [s.queuing_delay_ns for s in h.samples] == [0, 0, 0]
        assert h.sim.events_processed == 3  # the enqueues; no timer armed


class TestDelayBoundOrdering:
    """dbo: min-lag rank, live capped guard."""

    def build(self, window=16, guard_cap_ns=500_000):
        return InboundHarness(
            "dbo", dbo_window=window, dbo_guard_cap_us=guard_cap_ns / 1_000
        )

    def test_gateway_clock_offset_cancels(self):
        """The DBO claim: ordering is correct without clock sync.

        Gateway b's clock runs 1 ms ahead, so its timestamps are
        garbage relative to a's.  The sliding-window min lag absorbs
        the offset, so releases follow true stamping order (zero true
        unfairness) even though the *measured* ratio -- computed from
        the skewed timestamps -- reports plenty of inversions.
        """
        h = self.build()
        offset = 1_000_000
        # (true send, gateway, path delay): constant per-gateway delays.
        for true, gateway, delay in (
            (1_000, "a", 100), (2_000, "b", 150), (3_000, "a", 100),
            (4_000, "b", 150), (5_000, "a", 100),
        ):
            ts = true + (offset if gateway == "b" else 0)
            h.enqueue_at(true + delay, ts=ts, gateway=gateway,
                         item=true, stamped_true=true)
        h.sim.run()
        assert [item for item, _ in h.released] == [1_000, 2_000, 3_000, 4_000, 5_000]
        assert h.ordering.out_of_sequence_true_count == 0
        assert h.ordering.out_of_sequence_count == 2  # skewed-ts inversions

    def test_cloudex_sequencer_breaks_under_same_offset(self):
        """Contrast: timestamp-trusting hold misorders the same feed."""
        h = InboundHarness("cloudex", sequencer_delay_us=0.0)
        offset = 1_000_000
        for true, gateway, delay in (
            (1_000, "a", 100), (2_000, "b", 150), (3_000, "a", 100),
            (4_000, "b", 150), (5_000, "a", 100),
        ):
            ts = true + (offset if gateway == "b" else 0)
            h.enqueue_at(true + delay, ts=ts, gateway=gateway,
                         item=true, stamped_true=true)
        h.sim.run()
        assert h.ordering.out_of_sequence_true_count > 0

    def test_guard_is_capped_worst_residual(self):
        h = self.build(guard_cap_ns=500)
        ordering = h.ordering
        ordering.on_eligible = lambda: None
        # Feed lags directly through enqueue: lag = now - ts.
        h.enqueue_at(1_000, ts=900, item="a1", gateway="a")   # lag 100
        h.enqueue_at(2_000, ts=1_600, item="a2", gateway="a")  # lag 400
        h.sim.run()
        assert ordering.delay_ns == 300  # residual 400-100
        h.sim.schedule_at(3_000, ordering.enqueue, (2_100, "a", 0), "a3", 2_100)
        h.sim.run()  # lag 900 -> residual 800, capped
        assert ordering.delay_ns == 500

    def test_set_delay_is_inert(self):
        h = self.build()
        h.enqueue_at(1_000, ts=900, item="x")
        h.sim.run()
        before = h.ordering.delay_ns
        h.ordering.set_delay(123_456)
        assert h.ordering.delay_ns == before
        assert not h.sim.pending()  # and no timer was re-armed for it


class TestPfoCalibration:
    def test_deterministic_in_seed(self):
        config = config_for("pfo")
        a, b = PfoPolicy(), PfoPolicy()
        assert a.inbound_hold_ns(config, RngRegistry(7)) == b.inbound_hold_ns(
            config, RngRegistry(7)
        )
        assert a.engine_hold_ns(config, RngRegistry(7)) == b.engine_hold_ns(
            config, RngRegistry(7)
        )

    def test_cached_after_first_call(self):
        config = config_for("pfo")
        policy = PfoPolicy()
        rngs = RngRegistry(7)
        first = policy.inbound_hold_ns(config, rngs)
        # Second call must not draw again (exhausting or shifting the
        # stream would perturb later draws).
        state = rngs.stream("fairness:pfo:calibration").bit_generator.state
        assert policy.inbound_hold_ns(config, rngs) == first
        assert rngs.stream("fairness:pfo:calibration").bit_generator.state == state

    def test_higher_threshold_holds_longer(self):
        low = PfoPolicy().inbound_hold_ns(
            config_for("pfo", pfo_threshold=0.5), RngRegistry(7)
        )
        high = PfoPolicy().inbound_hold_ns(
            config_for("pfo", pfo_threshold=0.99), RngRegistry(7)
        )
        assert high > low

    def test_more_gateways_hold_longer(self):
        few = PfoPolicy().inbound_hold_ns(
            config_for("pfo", n_gateways=2), RngRegistry(7)
        )
        many = PfoPolicy().inbound_hold_ns(
            config_for("pfo", n_gateways=8), RngRegistry(7)
        )
        assert many >= few

    def test_engine_hold_is_outbound_quantile(self):
        config = config_for("pfo")
        policy = PfoPolicy()
        rngs = RngRegistry(7)
        hold = policy.engine_hold_ns(config, rngs)
        assert hold > 0
        # theta-quantile of one delivery < theta^(1/(n-1))-quantile + service.
        assert hold < policy.inbound_hold_ns(config, rngs)
        state = rngs.stream("fairness:pfo:outbound").bit_generator.state
        assert policy.engine_hold_ns(config, rngs) == hold  # cached, no redraw
        assert rngs.stream("fairness:pfo:outbound").bit_generator.state == state


class TestFactoryProducts:
    """What the real construction sites (``_build_sequencer`` per shard,
    ``Gateway.__init__``) build under each policy."""

    def products(self, policy, **overrides):
        cluster = CloudExCluster(config_for(policy, n_shards=2, **overrides))
        return cluster, [s.sequencer for s in cluster.exchange.shards], cluster.gateways

    @staticmethod
    def fairness_streams(rngs):
        return [name for name in rngs._streams if name.startswith("fairness:")]

    def test_cloudex_builds_stock_mechanisms_and_consumes_no_rng(self):
        cluster, sequencers, gateways = self.products("cloudex")
        config = cluster.config
        for sequencer in sequencers:
            assert type(sequencer) is Sequencer
            assert sequencer.delay_ns == config.sequencer_delay_ns
        for gateway in gateways:
            assert type(gateway.hr_buffer) is HoldReleaseBuffer
            assert gateway.hr_buffer.hold_early is True
        assert cluster.exchange.d_h == config.holdrelease_delay_ns
        # Bit-identity guard: the cloudex path must never touch RNG,
        # and supplies no rule at all.
        assert not self.fairness_streams(cluster.rngs)
        rngs = RngRegistry(7)
        policy = CloudExPolicy()
        assert policy.shard_rule(config) == (None, None)
        assert policy.inbound_hold_ns(config, rngs) == config.sequencer_delay_ns
        assert policy.engine_hold_ns(config, rngs) == config.holdrelease_delay_ns
        assert not rngs._streams  # no streams touched

    def test_noop_builds_passthroughs(self):
        cluster, sequencers, gateways = self.products("noop")
        for sequencer in sequencers:
            assert type(sequencer) is Sequencer
            assert sequencer.delay_ns == 0
        for gateway in gateways:
            assert type(gateway.hr_buffer) is HoldReleaseBuffer
            assert gateway.hr_buffer.hold_early is False
        assert cluster.exchange.d_h == 0
        rank, guard = NoopPolicy().shard_rule(cluster.config)
        assert guard is None
        assert rank((10, "g", 1), 777) == 777  # the arrival, not the stamp

    def test_dbo_builds_delay_bounds_with_immediate_outbound(self):
        cluster, sequencers, gateways = self.products("dbo", dbo_guard_cap_us=100.0)
        for gateway in gateways:
            assert gateway.hr_buffer.hold_early is False
        assert cluster.exchange.d_h == 0
        assert not self.fairness_streams(cluster.rngs)
        # Each shard measures its own bounds: 1 ms of jitter seen by
        # shard 0 on gateway a (lag 0, then lag 1 ms) opens its guard
        # up to the configured cap and leaves shard 1's shut.
        first, second = sequencers
        first.on_eligible = lambda: None
        first.enqueue((0, "a", 1), "x", 0)
        cluster.sim.schedule_at(1_000_000, first.enqueue, (0, "a", 2), "y", 0)
        cluster.sim.run(until=1_000_001)
        assert first.delay_ns == 100_000
        assert second.delay_ns == 0

    def test_pfo_builds_stock_mechanisms_with_calibrated_delays(self):
        cluster, sequencers, gateways = self.products("pfo")
        config = cluster.config
        policy = cluster.fairness
        assert isinstance(policy, PfoPolicy)
        assert policy.shard_rule(config) == (None, None)
        for sequencer in sequencers:
            assert sequencer.delay_ns == policy.inbound_hold_ns(config, cluster.rngs) > 0
        for gateway in gateways:
            assert gateway.hr_buffer.hold_early is True
        assert cluster.exchange.d_h == policy.engine_hold_ns(config, cluster.rngs) > 0
        assert sorted(self.fairness_streams(cluster.rngs)) == [
            "fairness:pfo:calibration", "fairness:pfo:outbound",
        ]


def md_piece(seq=1, created=0, release_at=10_000):
    return MarketDataPiece(
        seq=seq, symbol="S", payload=object(), created_local=created,
        release_at=release_at,
    )


def hr_buffer_for(policy, sim, release, report, events=None):
    """The buffer as ``Gateway.__init__`` builds it under ``policy``."""
    backend = make_policy(config_for(policy))
    return HoldReleaseBuffer(
        sim, HostClock(sim), "g00", release=release, report=report, events=events,
        hold_early=backend.hold_early_pieces,
    )


class TestImmediateRelease:
    """noop/dbo: release on arrival."""

    def build(self, policy="noop"):
        sim = Simulator()
        releases, reports = [], []
        buffer = hr_buffer_for(
            policy, sim,
            release=lambda piece, t: releases.append((piece.seq, sim.now)),
            report=reports.append,
        )
        return sim, buffer, releases, reports

    def test_releases_on_arrival_even_before_release_at(self):
        for policy in ("noop", "dbo"):
            sim, buffer, releases, reports = self.build(policy)
            sim.schedule_at(5_000, buffer.offer, md_piece(seq=1, release_at=10_000))
            sim.run()
            assert releases == [(1, 5_000)]
            assert reports[0].late is False
            assert reports[0].hold_ns == 0
            assert buffer.late_ratio() == 0.0

    def test_exactly_at_release_at_is_on_time(self):
        # The PR-3 boundary, preserved across backends.
        sim, buffer, releases, reports = self.build()
        sim.schedule_at(10_000, buffer.offer, md_piece(seq=1, release_at=10_000))
        sim.run()
        assert reports[0].late is False
        assert reports[0].lateness_ns == 0

    def test_strictly_after_release_at_is_late(self):
        sim, buffer, releases, reports = self.build()
        sim.schedule_at(10_001, buffer.offer, md_piece(seq=1, release_at=10_000))
        sim.run()
        assert reports[0].late is True
        assert reports[0].lateness_ns == 1
        assert buffer.late_count == 1
        assert buffer.late_ratio() == 1.0

    def test_flush_is_empty_and_mean_hold_zero(self):
        sim, buffer, releases, _ = self.build()
        sim.schedule_at(1_000, buffer.offer, md_piece(seq=1))
        sim.run()
        assert buffer.flush() == 0
        assert buffer.mean_hold_us() == 0.0
        assert releases  # nothing was retracted by flush

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_late_piece_is_logged_and_counted_under_every_policy(self, policy):
        # Releasing on arrival must not skip the evidence a late piece
        # leaves: the WARNING and the count are policy-independent.
        sim = Simulator()
        events = EventLog()
        buffer = hr_buffer_for(
            policy, sim, release=lambda piece, t: None, report=None, events=events,
        )
        sim.schedule_at(10_000, buffer.offer, md_piece(seq=1, release_at=10_000))
        sim.schedule_at(10_250, buffer.offer, md_piece(seq=2, release_at=10_000))
        sim.run()
        assert buffer.late_count == 1
        (warning,) = events.events(kind="hr.late_release")
        assert warning.severity is Severity.WARNING
        assert warning.component == "g00"
        assert warning.fields == {"md_seq": 2, "symbol": "S", "lateness_ns": 250}
