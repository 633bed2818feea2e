"""Tests for the portfolio matrix."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marketdata import TradeRecord
from repro.core.portfolio import PortfolioMatrix, UnknownParticipantError


def trade(buyer, seller, price, qty, symbol="S", trade_id=1):
    return TradeRecord(
        trade_id=trade_id,
        symbol=symbol,
        price=price,
        quantity=qty,
        buyer=buyer,
        seller=seller,
        buy_client_order_id=1,
        sell_client_order_id=2,
        executed_local=0,
        aggressor_is_buy=True,
    )


@pytest.fixture
def matrix():
    m = PortfolioMatrix(default_cash=10_000)
    m.open_account("alice")
    m.open_account("bob")
    return m


class TestAccounts:
    def test_default_cash(self, matrix):
        assert matrix.account("alice").cash == 10_000

    def test_explicit_cash_and_positions(self, matrix):
        account = matrix.open_account("carol", cash=500, positions={"S": 7})
        assert account.cash == 500
        assert account.position("S") == 7

    def test_duplicate_account_rejected(self, matrix):
        with pytest.raises(ValueError):
            matrix.open_account("alice")

    def test_unknown_account_raises(self, matrix):
        with pytest.raises(UnknownParticipantError):
            matrix.account("mallory")

    def test_has_account(self, matrix):
        assert matrix.has_account("alice")
        assert not matrix.has_account("mallory")


class TestSettlement:
    def test_apply_trade_moves_shares_and_cash(self, matrix):
        matrix.apply_trade(trade("alice", "bob", price=100, qty=5))
        assert matrix.account("alice").position("S") == 5
        assert matrix.account("alice").cash == 10_000 - 500
        assert matrix.account("bob").position("S") == -5
        assert matrix.account("bob").cash == 10_000 + 500

    def test_self_trade_nets_to_zero(self, matrix):
        matrix.apply_trade(trade("alice", "alice", price=100, qty=5))
        assert matrix.account("alice").position("S") == 0
        assert matrix.account("alice").cash == 10_000
        assert matrix.trades_applied == 1

    def test_unknown_counterparty_raises(self, matrix):
        with pytest.raises(UnknownParticipantError):
            matrix.apply_trade(trade("alice", "mallory", price=1, qty=1))

    def test_shorting_allowed(self, matrix):
        matrix.apply_trade(trade("alice", "bob", price=100, qty=500))
        assert matrix.account("bob").position("S") == -500


class TestReporting:
    def test_mark_to_market(self, matrix):
        matrix.apply_trade(trade("alice", "bob", price=100, qty=5))
        values = matrix.mark_to_market({"S": 120})
        assert values["alice"] == 10_000 - 500 + 5 * 120
        assert values["bob"] == 10_000 + 500 - 5 * 120

    def test_missing_mark_counts_zero(self, matrix):
        matrix.apply_trade(trade("alice", "bob", price=100, qty=5))
        values = matrix.mark_to_market({})
        assert values["alice"] == 9_500

    def test_conservation_totals(self, matrix):
        matrix.apply_trade(trade("alice", "bob", price=123, qty=7))
        assert matrix.total_shares("S") == 0
        assert matrix.total_cash() == 20_000


@given(
    trades=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(1, 1_000),
            st.integers(1, 100),
        ),
        max_size=50,
    )
)
@settings(max_examples=150, deadline=None)
def test_settlement_conserves_everything(trades):
    matrix = PortfolioMatrix(default_cash=10**6)
    for pid in ("a", "b", "c"):
        matrix.open_account(pid)
    for i, (buyer, seller, price, qty) in enumerate(trades):
        matrix.apply_trade(trade(buyer, seller, price=price, qty=qty, trade_id=i))
    assert matrix.total_shares("S") == 0
    assert matrix.total_cash() == 3 * 10**6
    # Mark-to-market total is invariant to any price mark.
    for mark in (0, 1, 999):
        assert sum(matrix.mark_to_market({"S": mark}).values()) == 3 * 10**6
