"""Tests for the historical market-data query API."""

import pytest

from repro.core.marketdata import BookSnapshot, TradeRecord
from repro.storage.bigtable import Bigtable
from repro.storage.query import HistoricalDataClient
from repro.storage.records import BOOK_SNAPSHOT_FAMILY, TRADE_FAMILY, write_snapshot, write_trade


def trade(symbol, executed, trade_id, price=100, quantity=10):
    return TradeRecord(
        trade_id=trade_id,
        symbol=symbol,
        price=price,
        quantity=quantity,
        buyer="b",
        seller="s",
        buy_client_order_id=1,
        sell_client_order_id=2,
        executed_local=executed,
        aggressor_is_buy=True,
    )


@pytest.fixture
def client():
    table = Bigtable("md", (TRADE_FAMILY, BOOK_SNAPSHOT_FAMILY))
    for i in range(10):
        write_trade(table, trade("AAA", executed=i * 1_000, trade_id=i, price=100 + i), now_ns=0)
    write_trade(table, trade("BBB", executed=500, trade_id=99), now_ns=0)
    write_snapshot(
        table,
        BookSnapshot(symbol="AAA", bids=((99, 5),), asks=((101, 5),), taken_local=2_500),
        now_ns=0,
    )
    return HistoricalDataClient(table)


class TestTrades:
    def test_all_trades_in_time_order(self, client):
        trades = client.trades("AAA")
        assert [t.trade_id for t in trades] == list(range(10))

    def test_time_window_is_half_open(self, client):
        trades = client.trades("AAA", start_ns=2_000, end_ns=5_000)
        assert [t.executed_local for t in trades] == [2_000, 3_000, 4_000]

    def test_symbol_isolation(self, client):
        assert [t.trade_id for t in client.trades("BBB")] == [99]

    def test_unknown_symbol_empty(self, client):
        assert client.trades("ZZZ") == []

    def test_limit(self, client):
        assert len(client.trades("AAA", limit=3)) == 3
        assert client.trades("AAA", limit=3) == client.trades("AAA")[:3]
        assert client.trades("AAA", limit=0) == []


class TestSnapshots:
    def test_snapshots_returned(self, client):
        snapshots = client.snapshots("AAA")
        assert len(snapshots) == 1
        assert snapshots[0].best_bid == 99

    def test_snapshot_window_excludes(self, client):
        assert client.snapshots("AAA", start_ns=3_000) == []

    def test_limit(self, client):
        assert client.snapshots("AAA", limit=1) == client.snapshots("AAA")
        assert client.snapshots("AAA", limit=0) == []


class TestAggregates:
    def test_volume(self, client):
        assert client.volume_traded("AAA") == 100

    def test_vwap(self, client):
        expected = sum((100 + i) * 10 for i in range(10)) / 100
        assert client.vwap("AAA") == pytest.approx(expected)

    def test_vwap_empty_is_none(self, client):
        assert client.vwap("ZZZ") is None
