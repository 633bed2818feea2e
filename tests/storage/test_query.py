"""Tests for the historical market-data query API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


#: "AB" shares "A"'s first letter: its rows sort right after "A"'s.
SYMBOLS = ("A", "AB", "B")


@given(
    data=st.data(),
    # (symbol, executed, quantity, price)
    trade_rows=st.lists(
        st.tuples(
            st.sampled_from(SYMBOLS), st.integers(0, 20), st.integers(1, 5), st.integers(1, 9)
        ),
        max_size=40,
    ),
    # (symbol, taken, best bid)
    snapshot_rows=st.lists(
        st.tuples(st.sampled_from(SYMBOLS), st.integers(0, 20), st.integers(1, 9)),
        max_size=20,
    ),
    symbol=st.sampled_from(SYMBOLS + ("Z",)),
    start_ns=st.integers(0, 22),
    end_ns=st.none() | st.integers(0, 22),
    limit=st.none() | st.just(0) | st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_queries_match_a_naive_filter(
    data, trade_rows, snapshot_rows, symbol, start_ns, end_ns, limit
):
    """Every query equals filtering the written records by symbol and
    half-open window, sorted by (time, id), cut to ``limit``.  Timestamps
    tie often; two snapshots of one symbol at one time share a row key,
    so the later write is the one kept."""
    n = len(trade_rows)
    trade_ids = data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    trades = [
        trade(sym, executed, trade_id, price=price, quantity=quantity)
        for (sym, executed, quantity, price), trade_id in zip(trade_rows, trade_ids)
    ]
    snapshots = [
        BookSnapshot(symbol=sym, bids=((price, 1),), asks=((price + 1, 2),), taken_local=taken)
        for sym, taken, price in snapshot_rows
    ]
    table = Bigtable("md", (TRADE_FAMILY, BOOK_SNAPSHOT_FAMILY))
    for record in trades:
        write_trade(table, record, now_ns=0)
    for snapshot in snapshots:
        write_snapshot(table, snapshot, now_ns=0)
    client = HistoricalDataClient(table)

    def in_window(time_ns):
        return start_ns <= time_ns and (end_ns is None or time_ns < end_ns)

    window_trades = sorted(
        (t for t in trades if t.symbol == symbol and in_window(t.executed_local)),
        key=lambda t: (t.executed_local, t.trade_id),
    )
    kept_snapshots = {(s.symbol, s.taken_local): s for s in snapshots}
    window_snapshots = sorted(
        (s for s in kept_snapshots.values() if s.symbol == symbol and in_window(s.taken_local)),
        key=lambda s: s.taken_local,
    )
    cut = slice(None, limit)
    assert client.trades(symbol, start_ns, end_ns, limit) == window_trades[cut]
    assert client.snapshots(symbol, start_ns, end_ns, limit) == window_snapshots[cut]
    volume = sum(t.quantity for t in window_trades)
    assert client.volume_traded(symbol, start_ns, end_ns) == volume
    expected_vwap = sum(t.price * t.quantity for t in window_trades) / volume if volume else None
    assert client.vwap(symbol, start_ns, end_ns) == expected_vwap
