"""Tests for the gateway actor, exercised inside a small cluster."""

import pytest

from repro.core.messages import MarketDataDelivery, NewOrderRequest
from repro.core.order import Order
from repro.core.types import OrderType, RejectReason, Side
from tests.conftest import record_deliveries, small_config
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
        confirmations = record_deliveries(participant, "confirmation")
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

    def test_release_timer_only_where_a_subscriber_waits(self, cluster):
        fired = {g.name: 0 for g in cluster.gateways}
        for g in cluster.gateways:
            def spy(piece, _name=g.name, _orig=g.hr_buffer._release):
                fired[_name] += 1
                _orig(piece)

            g.hr_buffer._release = spy
        watcher = cluster.participant(1)  # primary gateway g01
        watcher.subscribe(["SYM000"])
        run_for(cluster, ms=10)
        cluster.participant(0).submit_limit("SYM000", Side.BUY, 5, 10_100)
        run_for(cluster, ms=100)
        assert fired["g01"] == watcher.md_received > 0
        assert sum(fired.values()) == fired["g01"]
        # Every gateway still settled and reported every piece.
        assert len({g.hr_buffer.held_count for g in cluster.gateways}) == 1
        assert cluster.metrics.md_pieces_finalized == cluster.gateways[0].hr_buffer.held_count

    def test_rejoin_mid_hold_cancels_dispense_and_sends_nothing(self, cluster):
        self.rejoin_mid_hold(cluster)

    def test_rejoin_mid_hold_with_delivered_reports_sends_nothing(self):
        # An outbound DDP controller: reports go to the engine in batches.
        self.rejoin_mid_hold(
            CloudExCluster(small_config(clock_sync="perfect", ddp_outbound_target=0.01))
        )

    @staticmethod
    def rejoin_mid_hold(cluster):
        g01 = cluster.gateways[1]
        watcher = cluster.participant(1)
        watcher.subscribe(["SYM000"])
        run_for(cluster, ms=10)
        cluster.participant(0).submit_limit("SYM000", Side.BUY, 5, 10_100)
        while not g01.hr_buffer._pending:
            assert cluster.sim.step()
        held = set(g01.hr_buffer._pending)
        # Reports queued for the engine (outbound DDP only) are lost too.
        queued = {md_seq for md_seq, _, _ in g01._reports}
        assert queued >= held if cluster.exchange.ddp_outbound else not queued
        sent, reported = [], []
        send, to_engine, report = cluster.network.send, g01._to_engine.send, g01.hr_buffer.report

        def spy(src, dst, msg):
            if src == "g01":
                sent.append(msg)
            send(src, dst, msg)

        def spy_engine(msg):
            sent.append(msg)
            to_engine(msg)

        def spy_report(md_seq, late, hold_ns):
            reported.append(md_seq)
            report(md_seq, late, hold_ns)

        cluster.network.send = spy
        g01._to_engine.send = spy_engine
        g01.hr_buffer.report = spy_report
        g01.rejoin()
        assert not g01._reports and g01._report_timer is None
        run_for(cluster, ms=100)
        assert not g01.hr_buffer._pending and g01.restarts == 1
        assert not [m for m in sent if getattr(getattr(m, "piece", None), "seq", None) in held]
        assert not [m for m in sent for r in getattr(m, "reports", ()) if r[0] in queued]
        assert not held & set(reported)
        # The held pieces were reported at arrival; only those whose report
        # was still queued close partial.
        assert cluster.metrics.open_md_pieces() == len(queued)
        assert cluster.finalize_metrics() == cluster.metrics.md_pieces_partial == len(queued)

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
