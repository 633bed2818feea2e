"""Tests for the gateway actor, exercised inside a small cluster."""

import pytest

from repro.core.messages import MarketDataDelivery, NewOrderRequest, SubscriptionRequest
from repro.core.order import Order
from repro.core.types import OrderStatus, OrderType, RejectReason, Side
from tests.conftest import small_config
from repro.core.cluster import CloudExCluster


@pytest.fixture
def cluster():
    return CloudExCluster(small_config(clock_sync="perfect"))


def run_for(cluster, ms=50):
    cluster.run(duration_s=ms / 1_000.0)


class TestOrderHandling:
    def test_valid_order_is_stamped_and_forwarded(self, cluster):
        participant = cluster.participant(0)
        participant.submit_limit("SYM000", Side.BUY, 5, 9_500)
        run_for(cluster)
        gateway = cluster.gateways[0]
        assert gateway.orders_handled == 1
        assert cluster.metrics.replicas_received == 1
        assert cluster.metrics.orders_matched == 1

    def test_gateway_timestamp_is_set(self, cluster):
        participant = cluster.participant(0)
        participant.submit_limit("SYM000", Side.BUY, 5, 9_500)
        run_for(cluster)
        shard = cluster.exchange.shards[0]
        book = shard.core.books["SYM000"]
        level = book.bids.level_at(9_500)
        resting = [o for o in level.orders if o.participant_id == "p00"]
        assert resting and resting[0].gateway_timestamp > 0
        assert resting[0].gateway_id == "g00"

    def test_bad_token_rejected_locally(self, cluster):
        participant = cluster.participant(0)
        order = Order(
            client_order_id=999_999,
            participant_id=participant.name,
            symbol="SYM000",
            side=Side.BUY,
            order_type=OrderType.LIMIT,
            quantity=5,
            limit_price=9_500,
        )
        confirmations = []
        class Spy:
            def on_confirmation(self, p, conf):
                confirmations.append(conf)
            def on_trade(self, p, conf): ...
            def on_market_data(self, p, d): ...
        participant.strategy = Spy()
        cluster.network.send(
            participant.name,
            participant.primary_gateway,
            NewOrderRequest(order=order, auth_token="forged"),
        )
        run_for(cluster)
        assert confirmations and confirmations[0].reason is RejectReason.BAD_CREDENTIALS
        assert cluster.metrics.replicas_received == 0
        assert cluster.gateways[0].orders_rejected == 1

    def test_invalid_symbol_rejected_locally(self, cluster):
        participant = cluster.participant(0)
        participant.submit_limit("NOPE", Side.BUY, 5, 9_500)
        run_for(cluster)
        assert cluster.metrics.replicas_received == 0
        assert participant.confirmations_received == 1

    def test_gateway_seq_monotone(self, cluster):
        participant = cluster.participant(0)
        for _ in range(5):
            participant.submit_limit("SYM000", Side.BUY, 1, 9_000)
        run_for(cluster)
        assert cluster.gateways[0]._seq == 5


class TestMarketDataPath:
    def test_subscribed_participant_receives_md(self, cluster):
        maker = cluster.participant(0)
        watcher = cluster.participant(1)
        watcher.subscribe(["SYM000"])
        run_for(cluster, ms=10)
        maker.submit_limit("SYM000", Side.BUY, 5, 10_100)  # crosses seeded ask
        run_for(cluster, ms=100)
        assert watcher.md_received > 0
        # The aggressive buy crossed the seeded best ask (10_001).
        assert watcher.view("SYM000").last_trade_price == 10_001

    def test_unsubscribed_participant_gets_nothing(self, cluster):
        maker = cluster.participant(0)
        loner = cluster.participant(2)
        maker.submit_limit("SYM000", Side.BUY, 5, 10_100)
        run_for(cluster, ms=100)
        assert loner.md_received == 0

    def test_delivery_is_built_only_for_a_gateway_with_a_subscriber(self, cluster, monkeypatch):
        built = []

        class CountingDelivery(MarketDataDelivery):
            __slots__ = ()

            def __init__(self, piece, released_local):
                super().__init__(piece=piece, released_local=released_local)
                built.append(piece.symbol)

        monkeypatch.setattr("repro.core.gateway.MarketDataDelivery", CountingDelivery)
        watcher = cluster.participant(1)  # primary gateway g01
        watcher.subscribe(["SYM000"])
        run_for(cluster, ms=10)
        assert [g.name for g in cluster.gateways if g.subscriptions.get("SYM000")] == ["g01"]
        cluster.participant(0).submit_limit("SYM000", Side.BUY, 5, 10_100)  # crosses seeded ask
        run_for(cluster, ms=100)
        # Every gateway released the trade's pieces; only g01 had anyone to
        # deliver them to, and it built one delivery per piece it sent.
        assert all(g.hr_buffer.held_count + g.hr_buffer.late_count > 0 for g in cluster.gateways)
        assert built and set(built) == {"SYM000"}
        assert len(built) == watcher.md_received

    def test_hr_reports_flow_back(self, cluster):
        cluster.participant(0).submit_limit("SYM000", Side.BUY, 5, 10_100)
        run_for(cluster, ms=100)
        # Trade md went to every gateway; each reported.
        assert cluster.metrics.md_pieces_finalized >= 1

    def test_subscription_routing_is_per_gateway(self, cluster):
        watcher = cluster.participant(1)  # primary gateway g01
        watcher.subscribe(["SYM003"])
        run_for(cluster, ms=10)
        gateway = cluster.gateways[1]
        assert "SYM003" in gateway.subscriptions
        assert "p01" in gateway.subscriptions["SYM003"]


class TestCancelPath:
    def test_cancel_round_trip(self, cluster):
        participant = cluster.participant(0)
        coid = participant.submit_limit("SYM000", Side.BUY, 5, 9_000)
        run_for(cluster, ms=20)
        participant.cancel(coid, "SYM000")
        run_for(cluster, ms=50)
        assert coid not in participant.working
        book = cluster.exchange.shards[0].core.books["SYM000"]
        assert not book.is_resting("p00", coid)

    def test_forged_cancel_dropped_silently(self, cluster):
        from repro.core.messages import CancelRequest

        participant = cluster.participant(0)
        coid = participant.submit_limit("SYM000", Side.BUY, 5, 9_000)
        run_for(cluster, ms=20)
        cluster.network.send(
            "p01",
            "g01",
            CancelRequest(
                participant_id="p00", client_order_id=coid, symbol="SYM000", auth_token="x"
            ),
        )
        run_for(cluster, ms=50)
        book = cluster.exchange.shards[0].core.books["SYM000"]
        assert book.is_resting("p00", coid)
