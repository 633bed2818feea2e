"""Tests for the participant API."""

import pytest

from repro.core.cluster import CloudExCluster
from repro.core.participant import MarketView
from repro.core.types import OrderStatus, Side
from tests.conftest import small_config


def run_for(cluster, ms=50):
    cluster.run(duration_s=ms / 1_000.0)


@pytest.fixture
def cluster():
    return CloudExCluster(small_config(clock_sync="perfect"))


class TestSubmission:
    def test_submit_returns_unique_ids(self, cluster):
        participant = cluster.participant(0)
        ids = {participant.submit_limit("SYM000", Side.BUY, 1, 9_000) for _ in range(10)}
        assert len(ids) == 10

    def test_ids_unique_across_participants(self, cluster):
        a = cluster.participant(0).submit_limit("SYM000", Side.BUY, 1, 9_000)
        b = cluster.participant(1).submit_limit("SYM000", Side.BUY, 1, 9_000)
        assert a != b

    def test_working_orders_tracked(self, cluster):
        participant = cluster.participant(0)
        coid = participant.submit_limit("SYM000", Side.BUY, 1, 9_000)
        assert coid in participant.working
        run_for(cluster)
        # Resting order stays working until filled or cancelled.
        assert coid in participant.working

    def test_filled_order_leaves_working_set(self, cluster):
        participant = cluster.participant(0)
        coid = participant.submit_limit("SYM000", Side.BUY, 5, 10_100)
        run_for(cluster)
        assert coid not in participant.working

    def test_market_order(self, cluster):
        participant = cluster.participant(0)
        participant.submit_market("SYM000", Side.BUY, 5)
        run_for(cluster)
        assert participant.trades_received == 1

    def test_replication_validated_against_gateways(self):
        with pytest.raises(ValueError):
            CloudExCluster(small_config(replication_factor=4, n_gateways=3))


class TestMarketView:
    def test_reference_price_prefers_last_trade(self):
        view = MarketView(symbol="S", last_trade_price=101, best_bid=99, best_ask=103)
        assert view.reference_price == 101

    def test_reference_price_falls_back_to_mid(self):
        view = MarketView(symbol="S", best_bid=100, best_ask=104)
        assert view.reference_price == 102

    def test_reference_price_single_side(self):
        assert MarketView(symbol="S", best_bid=100).reference_price == 100
        assert MarketView(symbol="S", best_ask=105).reference_price == 105
        assert MarketView(symbol="S").reference_price is None

    def test_view_is_built_only_on_a_miss(self, cluster, monkeypatch):
        built = []

        class CountingView(MarketView):
            def __init__(self, symbol):
                super().__init__(symbol=symbol)
                built.append(symbol)

        monkeypatch.setattr("repro.core.participant.MarketView", CountingView)
        participant = cluster.participant(0)
        assert "NEW" not in participant.market
        view = participant.view("NEW")
        assert view.symbol == "NEW" and view.reference_price is None
        assert participant.view("NEW") is view
        participant.subscribe(["NEW"])
        assert participant.market["NEW"] is view
        assert built == ["NEW"]

    def test_view_updates_from_trade_confirmation(self, cluster):
        participant = cluster.participant(0)
        participant.submit_market("SYM000", Side.BUY, 5)
        run_for(cluster)
        assert participant.view("SYM000").last_trade_price == 10_001


class TestHistoricalQueries:
    def test_query_trades_via_storage(self, cluster):
        participant = cluster.participant(0)
        participant.submit_limit("SYM000", Side.BUY, 5, 10_100)
        run_for(cluster)
        trades = participant.query_trades("SYM000")
        assert len(trades) == 1
        assert trades[0].quantity == 5

    def test_query_without_client_raises(self, cluster):
        participant = cluster.participant(0)
        participant.history = None
        with pytest.raises(RuntimeError):
            participant.query_trades("SYM000")


class TestStrategyCallbacks:
    def test_callbacks_fire(self, cluster):
        events = []

        class Spy:
            def on_confirmation(self, p, conf):
                events.append(("conf", conf.status))

            def on_trade(self, p, tc):
                events.append(("trade", tc.price))

            def on_market_data(self, p, delivery):
                events.append(("md", delivery.piece.kind))

        participant = cluster.participant(0)
        participant.strategy = Spy()
        participant.subscribe(["SYM000"])
        run_for(cluster, ms=10)
        participant.submit_limit("SYM000", Side.BUY, 5, 10_100)
        run_for(cluster, ms=200)
        kinds = {kind for kind, _ in events}
        assert "conf" in kinds and "trade" in kinds and "md" in kinds
