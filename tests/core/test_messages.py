"""Tests for wire message types."""

from repro.core.marketdata import MarketDataPiece, TradeRecord
from repro.core.messages import (
    CancelRequest,
    HoldReleaseReport,
    MarketDataDelivery,
    NewOrderRequest,
    OrderConfirmation,
    StampedCancel,
    SubscriptionRequest,
)
from repro.core.order import Order
from repro.core.types import OrderStatus, OrderType, RejectReason, Side


def make_order(**overrides):
    fields = dict(
        client_order_id=1,
        participant_id="p",
        symbol="S",
        side=Side.BUY,
        order_type=OrderType.LIMIT,
        quantity=10,
        limit_price=100,
    )
    fields.update(overrides)
    return Order(**fields)


class TestOrderConfirmation:
    def test_accepted_property(self):
        ok = OrderConfirmation(
            participant_id="p", client_order_id=1, symbol="S",
            status=OrderStatus.ACCEPTED, filled=0, remaining=10, engine_timestamp=0,
        )
        bad = OrderConfirmation(
            participant_id="p", client_order_id=1, symbol="S",
            status=OrderStatus.REJECTED, filled=0, remaining=10, engine_timestamp=0,
            reason=RejectReason.NO_LIQUIDITY,
        )
        assert ok.accepted and not bad.accepted

    def test_filled_is_accepted(self):
        conf = OrderConfirmation(
            participant_id="p", client_order_id=1, symbol="S",
            status=OrderStatus.FILLED, filled=10, remaining=0, engine_timestamp=0,
        )
        assert conf.accepted


class TestStampedCancel:
    def test_priority_key_matches_order_semantics(self):
        early = StampedCancel("p", 1, "S", "g1", gateway_timestamp=10, gateway_seq=5)
        late = StampedCancel("p", 2, "S", "g0", gateway_timestamp=20, gateway_seq=1)
        assert early.priority_key() < late.priority_key()

    def test_cancels_and_orders_share_keyspace(self):
        cancel = StampedCancel("p", 1, "S", "g", gateway_timestamp=15, gateway_seq=1)
        order = make_order(gateway_id="g", gateway_timestamp=10, gateway_seq=2)
        assert order.priority_key() < cancel.priority_key()


class TestPayloadCarriers:
    def test_new_order_request_wraps_order(self):
        order = make_order()
        request = NewOrderRequest(order=order, auth_token="t")
        assert request.order is order

    def test_market_data_delivery_exposes_piece(self):
        trade = TradeRecord(
            trade_id=1, symbol="S", price=1, quantity=1, buyer="a", seller="b",
            buy_client_order_id=1, sell_client_order_id=2, executed_local=0,
            aggressor_is_buy=True,
        )
        piece = MarketDataPiece(seq=9, symbol="S", payload=trade, created_local=5, release_at=15)
        delivery = MarketDataDelivery(piece=piece, released_local=15)
        assert delivery.piece.kind == "trade"
        assert delivery.piece.seq == 9

    def test_hr_report_fields(self):
        report = HoldReleaseReport(gateway_id="g", reports=((3, True, 0), (4, False, 250)))
        assert [md_seq for md_seq, _, _ in report.reports] == [3, 4]
        assert report.reports[0][1] and report.reports[0][2] == 0

    def test_subscription_request(self):
        request = SubscriptionRequest(participant_id="p", symbols=("A", "B"))
        assert request.symbols == ("A", "B")

    def test_cancel_request(self):
        request = CancelRequest(
            participant_id="p", client_order_id=7, symbol="S", auth_token="t"
        )
        assert request.client_order_id == 7
