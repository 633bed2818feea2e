"""The order path's records have one fixed layout: slots, no instance
``__dict__`` -- half the objects per record for the cyclic collector to
walk -- and the frozen ones still cross a process boundary.

The clock-sync probe is not in the list any more: there is no per-probe
object to lay out.  A probe window is three int64 numpy columns
(``repro.clocksync.probes.ProbeColumns``, one record per window, never
pickled); ``tests/clocksync/test_probes.py`` holds its layout."""

import dataclasses
import pickle

import pytest

from repro.core import messages
from repro.core.marketdata import BookSnapshot, MarketDataPiece, TradeRecord
from repro.core.order import Order
from repro.core.sequencer import SequencerSample
from repro.core.shardrun import BatchOrder
from repro.storage.bigtable import Cell

SLOTTED = [
    Order,
    BatchOrder,
    messages.NewOrderRequest,
    messages.CancelRequest,
    messages.StampedOrder,
    messages.StampedCancel,
    messages.OrderConfirmation,
    messages.TradeConfirmation,
    messages.MarketDataDelivery,
    messages.HoldReleaseReport,
    messages.SubscriptionRequest,
    TradeRecord,
    BookSnapshot,
    MarketDataPiece,
    Cell,
    SequencerSample,
]


def instance_of(cls):
    """``cls`` built through ``__init__`` with 0 for every required field."""
    required = [
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    return cls(**dict.fromkeys(required, 0))


def test_every_class_of_messages_is_listed():
    declared = {
        cls
        for cls in vars(messages).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == messages.__name__
    }
    assert declared and declared <= set(SLOTTED)


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_no_instance_dict_and_no_undeclared_attribute(cls):
    record = instance_of(cls)
    assert not hasattr(record, "__dict__")
    # A frozen record refuses every store; for a name that is not a field
    # CPython before 3.12 does so with a TypeError (its generated
    # __setattr__ reaches super() through the class slots=True replaced).
    frozen = cls.__dataclass_params__.frozen
    with pytest.raises((AttributeError, TypeError) if frozen else AttributeError):
        record.not_a_field = 1
    # Declaring a field without the slot for it would show here.
    for field in dataclasses.fields(cls):
        getattr(record, field.name)


@pytest.mark.parametrize(
    "record",
    [
        TradeRecord(
            trade_id=7, symbol="S", price=101, quantity=5, buyer="a", seller="b",
            buy_client_order_id=1, sell_client_order_id=2, executed_local=99,
            aggressor_is_buy=True,
        ),
        BookSnapshot(symbol="S", bids=((100, 5), (99, 1)), asks=((101, 2),), taken_local=3),
        Cell(value=b"v", timestamp_ns=10),
        SequencerSample(
            gateway_timestamp=1, enqueued_local=2, dequeued_local=3,
            out_of_sequence=False, out_of_sequence_true=True,
        ),
    ],
    ids=lambda record: type(record).__name__,
)
def test_frozen_slotted_records_pickle(record):
    # Results cross the pool's pipes: frozen + slots dataclasses pickle
    # through their generated __getstate__ / __setstate__.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert clone == record and clone is not record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(clone, dataclasses.fields(clone)[0].name, 0)
