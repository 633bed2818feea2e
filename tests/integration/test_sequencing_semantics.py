"""Sequencing semantics across message types and shards."""

from repro.core.cluster import CloudExCluster
from repro.core.types import Side, TimeInForce, OrderType
from tests.conftest import small_config


class TestCancelOrderRaces:
    def test_cancel_stamped_earlier_beats_later_aggressor(self):
        """A cancel whose gateway timestamp precedes an incoming
        aggressor must be processed first under a sufficient d_s --
        the resting order escapes the fill."""
        cluster = CloudExCluster(
            small_config(clock_sync="perfect", sequencer_delay_us=3_000.0)
        )
        owner = cluster.participant(0)
        attacker = cluster.participant(1)
        # Owner rests inside the seeded spread.
        coid = owner.submit_limit("SYM000", Side.SELL, 5, 10_000)
        cluster.run(duration_s=0.05)
        # Cancel goes out a moment before the attacking buy.
        owner.cancel(coid, "SYM000")
        cluster.run(duration_s=0.0002)  # 200 us later
        attacker.submit_limit("SYM000", Side.BUY, 5, 10_000)
        cluster.run(duration_s=0.1)
        assert owner.trades_received == 0
        book = cluster.exchange.shards[0].core.books["SYM000"]
        assert not book.is_resting(owner.name, coid)

    def test_aggressor_stamped_earlier_beats_later_cancel(self):
        cluster = CloudExCluster(
            small_config(clock_sync="perfect", sequencer_delay_us=3_000.0)
        )
        owner = cluster.participant(0)
        attacker = cluster.participant(1)
        coid = owner.submit_limit("SYM000", Side.SELL, 5, 10_000)
        cluster.run(duration_s=0.05)
        attacker.submit_limit("SYM000", Side.BUY, 5, 10_000)
        cluster.run(duration_s=0.0002)
        owner.cancel(coid, "SYM000")  # too late
        cluster.run(duration_s=0.1)
        assert owner.trades_received == 1


class TestIocThroughCluster:
    def test_ioc_remainder_does_not_rest(self):
        cluster = CloudExCluster(small_config(clock_sync="perfect"))
        participant = cluster.participant(0)
        # Seeded best ask level has 500 shares at 10_001; ask for more.
        participant.submit_order(
            "SYM000",
            Side.BUY,
            quantity=600,
            order_type=OrderType.LIMIT,
            limit_price=10_001,
            time_in_force=TimeInForce.IOC,
        )
        cluster.run(duration_s=0.1)
        assert participant.trades_received >= 1
        book = cluster.exchange.shards[0].core.books["SYM000"]
        assert book.best_bid() == 9_999  # nothing of ours rested


class TestEngineDiagnostics:
    def test_pending_orders_drains(self):
        cluster = CloudExCluster(
            small_config(clock_sync="perfect", sequencer_delay_us=50_000.0)
        )
        for index in range(4):
            cluster.participant(index).submit_limit("SYM000", Side.BUY, 1, 9_000)
        cluster.run(duration_s=0.002)  # in flight / held by d_s
        held = cluster.exchange.pending_orders()
        assert held > 0
        cluster.run(duration_s=0.3)
        assert cluster.exchange.pending_orders() == 0

    def test_ingress_queue_stats_exposed(self):
        cluster = CloudExCluster(small_config(clock_sync="perfect", replication_factor=3))
        cluster.add_default_workload(rate_per_participant=300.0)
        cluster.run(duration_s=0.5)
        # Order replicas plus cancels all pass the ingress stage.
        assert cluster.exchange.ingress.jobs >= cluster.metrics.replicas_received
        assert cluster.exchange.ingress.mean_queue_us() >= 0.0

    def test_lock_pool_serializes_all_shards(self):
        cluster = CloudExCluster(small_config(clock_sync="perfect", n_shards=2))
        cluster.add_default_workload(rate_per_participant=300.0)
        cluster.run(duration_s=0.5)
        # Every matched order (and cancel) passed the portfolio lock.
        assert cluster.exchange.lock_pool.jobs >= cluster.metrics.orders_matched
