"""Tests for the ZI trader and the agent that times it, through a small cluster."""

import math

import pytest

from repro.core.cluster import CloudExCluster
from repro.traders.base import TradingAgent
from repro.traders.zi import ZeroIntelligenceStrategy
from tests.conftest import small_config


@pytest.fixture
def cluster():
    return CloudExCluster(small_config(clock_sync="perfect"))


def zi(symbols):
    return ZeroIntelligenceStrategy(symbols, market_order_fraction=0.10, cancel_fraction=0.05)


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
        _, agent = attach(cluster, 0, zi(["SYM000"]), rate=500.0)
        cluster.run(duration_s=1.0)
        assert 350 <= agent.opportunities <= 650  # ~500 +- Poisson noise

    def test_stop_halts_flow(self, cluster):
        _, agent = attach(cluster, 0, zi(["SYM000"]))
        cluster.run(duration_s=0.2)
        agent.stop()
        seen = agent.opportunities
        cluster.run(duration_s=0.2)
        assert agent.opportunities <= seen + 1

    def test_invalid_rate_rejected(self, cluster):
        # A NaN or infinite rate would clamp every gap to 1 ns and never
        # let simulated time advance.
        for rate in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                attach(cluster, 0, zi(["SYM000"]), rate=rate)


class TestZeroIntelligence:
    def test_generates_orders_and_trades(self, cluster):
        participant, _ = attach(cluster, 0, zi(["SYM000"]), rate=300.0)
        cluster.run(duration_s=1.0)
        assert participant.orders_submitted > 100
        assert cluster.metrics.trades_executed > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            zi([])
