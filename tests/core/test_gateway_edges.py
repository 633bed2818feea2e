"""Edge-case tests for gateway validation and engine dispatch."""

import pytest

from repro.core.cluster import CloudExCluster
from repro.core.types import RejectReason, Side
from tests.conftest import small_config


@pytest.fixture
def cluster():
    return CloudExCluster(small_config(clock_sync="perfect"))


def collect_rejections(participant):
    seen = []
    handle = participant._on_confirmation

    def spy(conf):
        handle(conf)
        if conf.reason is not None:
            seen.append(conf.reason)

    participant._on_confirmation = spy
    return seen


class TestGatewayValidation:
    def test_oversized_quantity_rejected(self, cluster):
        participant = cluster.participant(0)
        rejections = collect_rejections(participant)
        participant.submit_limit("SYM000", Side.BUY, 2_000_000, 10_000)
        cluster.run(duration_s=0.05)
        assert rejections == [RejectReason.INVALID_QUANTITY]
        assert cluster.metrics.replicas_received == 0

    def test_zero_price_limit_rejected(self, cluster):
        participant = cluster.participant(0)
        rejections = collect_rejections(participant)
        participant.submit_limit("SYM000", Side.BUY, 10, 0)
        cluster.run(duration_s=0.05)
        assert rejections == [RejectReason.INVALID_PRICE]

    def test_rejected_order_does_not_count_handled(self, cluster):
        participant = cluster.participant(0)
        gateway = cluster.gateways[0]
        participant.submit_limit("NOPE", Side.BUY, 10, 100)
        cluster.run(duration_s=0.05)
        assert gateway.orders_handled == 0
        assert gateway.orders_rejected == 1

    def test_valid_after_invalid_still_flows(self, cluster):
        participant = cluster.participant(0)
        participant.submit_limit("NOPE", Side.BUY, 10, 100)
        participant.submit_limit("SYM000", Side.BUY, 10, 9_500)
        cluster.run(duration_s=0.1)
        assert cluster.metrics.orders_matched == 1


class TestActorDispatch:
    def test_engine_rejects_unknown_message(self, cluster):
        cluster.network.send("g00", "engine", object())
        with pytest.raises(NotImplementedError):
            cluster.run(duration_s=0.05)

    def test_gateway_rejects_unknown_message(self, cluster):
        cluster.network.send("engine", "g00", 12345)
        with pytest.raises(NotImplementedError):
            cluster.run(duration_s=0.05)

    def test_participant_rejects_unknown_message(self, cluster):
        cluster.network.send("g00", "p00", b"garbage")
        with pytest.raises(NotImplementedError):
            cluster.run(duration_s=0.05)
