"""Tests for self-trade prevention (cancel-resting policy)."""

import dataclasses
import itertools

import pytest

from repro.core.cluster import CloudExCluster
from repro.core.matching import MatchingEngineCore
from repro.core.messages import StampedCancel
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.types import OrderStatus, OrderType, Side
from tests.conftest import small_config

_ids = itertools.count(1)


def order(side, qty, price, participant="p1"):
    coid = next(_ids)
    return Order(
        client_order_id=coid,
        participant_id=participant,
        symbol="S",
        side=side,
        order_type=OrderType.LIMIT,
        quantity=qty,
        limit_price=price,
        gateway_id="g",
        gateway_timestamp=coid,
        gateway_seq=coid,
    )


@pytest.fixture
def core():
    portfolio = PortfolioMatrix(default_cash=10**6)
    for pid in ("p1", "p2"):
        portfolio.open_account(pid)
    return MatchingEngineCore(["S"], portfolio, self_trade_prevention=True)


class TestStp:
    def test_own_resting_order_cancelled_not_traded(self, core):
        resting = order(Side.SELL, 10, 100, "p1")
        core.process_order(resting, 0)
        result = core.process_order(order(Side.BUY, 10, 100, "p1"), 1)
        assert result.trades == []
        assert result.stp_cancels == [resting]
        assert core.stp_cancellations == 1
        assert core.portfolio.account("p1").position("S") == 0
        # The incoming buy rests (nothing left to match).
        assert core.books["S"].best_bid() == 100

    def test_stp_skips_to_next_counterparty(self, core):
        core.process_order(order(Side.SELL, 10, 100, "p1"), 0)  # own, will cancel
        core.process_order(order(Side.SELL, 10, 100, "p2"), 0)  # real counterparty
        result = core.process_order(order(Side.BUY, 10, 100, "p1"), 1)
        assert len(result.trades) == 1
        assert result.trades[0].seller == "p2"
        assert len(result.stp_cancels) == 1

    def test_disabled_by_default_allows_self_trades(self):
        portfolio = PortfolioMatrix(default_cash=10**6)
        portfolio.open_account("p1")
        core = MatchingEngineCore(["S"], portfolio)
        core.process_order(order(Side.SELL, 10, 100, "p1"), 0)
        result = core.process_order(order(Side.BUY, 10, 100, "p1"), 1)
        assert len(result.trades) == 1
        assert result.stp_cancels == []

    def test_partial_chain_of_own_orders(self, core):
        for price in (100, 101, 102):
            core.process_order(order(Side.SELL, 5, price, "p1"), 0)
        result = core.process_order(order(Side.BUY, 20, 102, "p1"), 1)
        assert result.trades == []
        assert len(result.stp_cancels) == 3
        assert core.books["S"].best_ask() is None

    def test_stp_cancel_confirmation_has_the_client_cancel_shape(self, core):
        """An engine-cancelled order and a client-cancelled order in the
        same state get the same confirmation from the one constructor."""
        core.process_order(order(Side.BUY, 4, 100, "p2"), 0)
        by_stp = order(Side.SELL, 10, 100, "p1")  # fills 4, rests 6
        core.process_order(by_stp, 1)
        core.process_order(order(Side.BUY, 4, 99, "p1"), 2)
        by_client = order(Side.SELL, 10, 99, "p2")  # fills 4, rests 6
        core.process_order(by_client, 3)
        client_conf = core.process_cancel(
            StampedCancel(
                participant_id="p2", client_order_id=by_client.client_order_id, symbol="S",
                gateway_id="g", gateway_timestamp=4, gateway_seq=4,
            ),
            5,
        )
        result = core.process_order(order(Side.BUY, 1, 100, "p1"), 5)
        assert result.stp_cancels == [by_stp]
        stp_conf = MatchingEngineCore.confirm(by_stp, OrderStatus.CANCELLED, 5)
        assert (stp_conf.status, stp_conf.filled, stp_conf.remaining) == (OrderStatus.CANCELLED, 4, 6)
        assert stp_conf == dataclasses.replace(
            client_conf, participant_id="p1", client_order_id=by_stp.client_order_id
        )

    def test_cluster_level_stp_notifies_participant(self):
        cluster = CloudExCluster(
            small_config(clock_sync="perfect", self_trade_prevention=True)
        )
        participant = cluster.participant(0)
        # Quote inside the seeded spread (bid 9_999 / ask 10_001) so
        # the incoming buy meets our own sell first.
        first = participant.submit_limit("SYM000", Side.SELL, 5, 10_000)
        cluster.run(duration_s=0.1)
        participant.submit_limit("SYM000", Side.BUY, 5, 10_000)
        cluster.run(duration_s=0.2)
        # The resting sell was STP-cancelled and the participant told.
        assert participant.trades_received == 0
        assert first not in participant.working
        assert cluster.exchange.shards[0].core.stp_cancellations == 1
