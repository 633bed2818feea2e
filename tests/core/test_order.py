"""Tests for orders and validation."""

import dataclasses

import pytest

from repro.core.order import (
    ClientOrderIdAllocator,
    Order,
    OrderValidationError,
    validate_order,
)
from repro.core.types import OrderType, RejectReason, Side, TimeInForce


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


class TestOrder:
    def test_remaining_defaults_to_quantity(self):
        assert make_order(quantity=7).remaining == 7

    def test_fill_decrements(self):
        order = make_order(quantity=10)
        order.fill(4)
        assert order.remaining == 6
        assert not order.is_filled
        order.fill(6)
        assert order.is_filled

    def test_overfill_rejected(self):
        order = make_order(quantity=5)
        with pytest.raises(ValueError):
            order.fill(6)

    def test_non_positive_fill_rejected(self):
        with pytest.raises(ValueError):
            make_order().fill(0)

    def test_priority_key_requires_stamping(self):
        with pytest.raises(ValueError):
            make_order().priority_key()

    def test_priority_key_ordering(self):
        early = make_order(gateway_timestamp=10, gateway_seq=1, gateway_id="g1")
        late = make_order(gateway_timestamp=20, gateway_seq=0, gateway_id="g0")
        assert early.priority_key() < late.priority_key()

    def test_is_buy(self):
        assert make_order(side=Side.BUY).is_buy
        assert not make_order(side=Side.SELL).is_buy

    def test_stamped_clone_copies_every_field_but_the_stamp(self):
        # Walks the field list, so a field added to Order later cannot be
        # silently dropped by the hand-written copy.
        stamp = dict(gateway_id="g3", gateway_timestamp=1_234, gateway_seq=9, stamped_true=1_300)
        values = {
            "client_order_id": 41, "participant_id": "p7", "symbol": "SYM2", "side": Side.SELL,
            "order_type": OrderType.LIMIT, "quantity": 30, "limit_price": 995,
            "time_in_force": TimeInForce.IOC, "gateway_id": "old", "gateway_timestamp": 5,
            "gateway_seq": 6, "remaining": 12, "submitted_true": 77, "stamped_true": 88,
        }
        names = [field.name for field in dataclasses.fields(Order)]
        assert sorted(values) == sorted(names)  # a new field needs a non-default value here
        original = Order(**values)
        clone = original.stamped_clone(**stamp)
        assert type(clone) is Order and clone is not original
        for name in names:
            assert getattr(clone, name) == stamp.get(name, values[name]), name
            assert getattr(original, name) == values[name], name


class TestValidation:
    def test_valid_limit_passes(self):
        validate_order(make_order())

    def test_valid_market_passes(self):
        validate_order(make_order(order_type=OrderType.MARKET, limit_price=None))

    @pytest.mark.parametrize("qty", [0, -5, 2_000_000])
    def test_bad_quantity(self, qty):
        with pytest.raises(OrderValidationError) as excinfo:
            validate_order(make_order(quantity=qty, remaining=1))
        assert excinfo.value.reason is RejectReason.INVALID_QUANTITY

    def test_unknown_symbol(self):
        with pytest.raises(OrderValidationError) as excinfo:
            validate_order(make_order(), known_symbols={"OTHER"})
        assert excinfo.value.reason is RejectReason.UNKNOWN_SYMBOL

    def test_limit_without_price(self):
        with pytest.raises(OrderValidationError) as excinfo:
            validate_order(make_order(limit_price=None))
        assert excinfo.value.reason is RejectReason.MISSING_LIMIT_PRICE

    def test_limit_with_bad_price(self):
        with pytest.raises(OrderValidationError) as excinfo:
            validate_order(make_order(limit_price=0))
        assert excinfo.value.reason is RejectReason.INVALID_PRICE

    def test_market_with_price(self):
        with pytest.raises(OrderValidationError) as excinfo:
            validate_order(make_order(order_type=OrderType.MARKET, limit_price=100))
        assert excinfo.value.reason is RejectReason.UNEXPECTED_LIMIT_PRICE


class TestAllocator:
    def test_ids_unique_and_increasing(self):
        allocator = ClientOrderIdAllocator()
        ids = [allocator.next_id() for _ in range(100)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 100
