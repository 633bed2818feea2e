"""Tests for the row-key schema and the record round trip through a table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marketdata import BookSnapshot, TradeRecord
from repro.storage.bigtable import Bigtable
from repro.storage.query import HistoricalDataClient
from repro.storage.records import (
    BOOK_SNAPSHOT_FAMILY,
    TRADE_FAMILY,
    snapshot_row_key,
    time_bound_key,
    time_prefix,
    trade_row_key,
    write_snapshot,
    write_trade,
)


def sample_trade(**overrides):
    fields = dict(
        trade_id=17,
        symbol="SYM001",
        price=10_050,
        quantity=25,
        buyer="p01",
        seller="p02",
        buy_client_order_id=100,
        sell_client_order_id=200,
        executed_local=1_234_567,
        aggressor_is_buy=True,
    )
    fields.update(overrides)
    return TradeRecord(**fields)


class TestRowKeys:
    def test_trade_keys_sort_by_time_within_symbol(self):
        early = trade_row_key("SYM001", 100, 1)
        late = trade_row_key("SYM001", 200, 2)
        assert early < late

    def test_trade_keys_group_by_symbol(self):
        a = trade_row_key("SYM001", 999, 1)
        b = trade_row_key("SYM002", 1, 2)
        assert a < b

    def test_time_bound_key_brackets(self):
        key = trade_row_key("S", 150, 7)
        assert time_bound_key("trade", "S", 100) <= key < time_bound_key("trade", "S", 200)

    def test_prefix_covers_symbol(self):
        assert trade_row_key("S", 5, 1).startswith(time_prefix("trade", "S"))

    def test_snapshot_key(self):
        assert snapshot_row_key("S", 42).startswith("snapshot#S#")


class TestTradeRoundTrip:
    def test_write_and_read_via_table(self):
        table = Bigtable("t", (TRADE_FAMILY,))
        trade = sample_trade(aggressor_is_buy=False)
        key = write_trade(table, trade, now_ns=999)
        assert table.scan() == [(key, trade)]

    @given(
        price=st.integers(1, 10**6),
        quantity=st.integers(1, 10**5),
        executed=st.integers(0, 10**15),
        trade_id=st.integers(1, 10**9),
        aggressor=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, price, quantity, executed, trade_id, aggressor):
        table = Bigtable("t", (TRADE_FAMILY,))
        trade = sample_trade(
            price=price,
            quantity=quantity,
            executed_local=executed,
            trade_id=trade_id,
            aggressor_is_buy=aggressor,
        )
        write_trade(table, trade, now_ns=0)
        assert HistoricalDataClient(table).trades(trade.symbol) == [trade]


class TestSnapshotRoundTrip:
    def test_empty_sides(self):
        snapshot = BookSnapshot(symbol="S", bids=(), asks=(), taken_local=0)
        table = Bigtable("t", (BOOK_SNAPSHOT_FAMILY,))
        write_snapshot(table, snapshot, now_ns=0)
        (read,) = HistoricalDataClient(table).snapshots("S")
        assert read.bids == () and read.asks == ()
