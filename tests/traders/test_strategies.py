"""Tests for trading strategies, driven through a small cluster."""

import pytest

from repro.core.cluster import CloudExCluster
from repro.traders.base import Strategy, TradingAgent
from repro.traders.zi import ZeroIntelligenceStrategy
from tests.conftest import small_config


@pytest.fixture
def cluster():
    return CloudExCluster(small_config(clock_sync="perfect"))


def attach(cluster, index, strategy, rate=200.0):
    participant = cluster.participant(index)
    agent = TradingAgent(
        cluster.sim,
        participant,
        strategy,
        rate_per_s=rate,
        rng=cluster.rngs.stream(f"test-agent:{index}"),
    )
    agent.start()
    return participant, agent


class TestTradingAgent:
    def test_poisson_rate_approximation(self, cluster):
        counts = []

        class Counter(Strategy):
            def on_order_opportunity(self, participant, rng):
                counts.append(1)

        attach(cluster, 0, Counter(), rate=500.0)
        cluster.run(duration_s=1.0)
        assert 350 <= len(counts) <= 650  # ~500 +- Poisson noise

    def test_stop_halts_flow(self, cluster):
        class Counter(Strategy):
            def __init__(self):
                self.n = 0

            def on_order_opportunity(self, participant, rng):
                self.n += 1

        strategy = Counter()
        _, agent = attach(cluster, 0, strategy)
        cluster.run(duration_s=0.2)
        agent.stop()
        seen = strategy.n
        cluster.run(duration_s=0.2)
        assert strategy.n <= seen + 1

    def test_invalid_rate_rejected(self, cluster):
        with pytest.raises(ValueError):
            attach(cluster, 0, Strategy(), rate=0.0)


class TestZeroIntelligence:
    def test_generates_orders_and_trades(self, cluster):
        strategy = ZeroIntelligenceStrategy(["SYM000"], fallback_price=10_000)
        participant, _ = attach(cluster, 0, strategy, rate=300.0)
        cluster.run(duration_s=1.0)
        assert participant.orders_submitted > 100
        assert cluster.metrics.trades_executed > 0

    def test_aggression_controls_trade_rate(self):
        def run(aggression):
            cluster = CloudExCluster(small_config(clock_sync="perfect"))
            strategy = ZeroIntelligenceStrategy(
                ["SYM000"],
                fallback_price=10_000,
                aggression=aggression,
                market_order_fraction=0.0,
                cancel_fraction=0.0,
            )
            attach(cluster, 0, strategy, rate=400.0)
            cluster.run(duration_s=1.0)
            m = cluster.metrics
            return m.trades_executed / max(m.orders_matched, 1)

        assert run(0.6) > run(0.05) + 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            ZeroIntelligenceStrategy([], fallback_price=100)
        with pytest.raises(ValueError):
            ZeroIntelligenceStrategy(["S"], fallback_price=0)
        with pytest.raises(ValueError):
            ZeroIntelligenceStrategy(["S"], fallback_price=100, aggression=1.5)
        with pytest.raises(ValueError):
            ZeroIntelligenceStrategy(
                ["S"], fallback_price=100, market_order_fraction=0.7, cancel_fraction=0.5
            )

