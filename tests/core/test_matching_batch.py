"""Differential tests: ``process_batch`` == a ``process_order`` loop.

Both feeds drive one admit -> cross -> dispose path, so what is left to
pin is the feeds themselves: run the same random order stream through
both -- plain and with self-trade prevention -- and demand
identical books, trades, settlement, counters, and status tallies.
"""

import itertools

import numpy as np
import pytest

from repro.core.matching import BatchMatchStats, MatchingEngineCore
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.types import OrderStatus, OrderType, Side, TimeInForce

SYMBOLS = ("AAA", "BBB", "CCC")
PARTICIPANTS = tuple(f"p{i}" for i in range(6))


def _random_specs(seed, n):
    """Order field dicts (specs), so each core gets fresh Order objects."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n):
        roll = rng.random()
        symbol = "ZZZ" if roll < 0.02 else SYMBOLS[int(rng.integers(len(SYMBOLS)))]
        market = rng.random() < 0.08
        ioc = rng.random() < 0.15
        specs.append(
            dict(
                client_order_id=i + 1,
                participant_id=PARTICIPANTS[int(rng.integers(len(PARTICIPANTS)))],
                symbol=symbol,
                side=Side.BUY if rng.random() < 0.5 else Side.SELL,
                order_type=OrderType.MARKET if market else OrderType.LIMIT,
                quantity=int(rng.integers(1, 50)),
                limit_price=None if market else int(10_000 + rng.integers(-30, 31)),
                time_in_force=TimeInForce.IOC if ioc and not market else TimeInForce.GTC,
                gateway_id="g0",
                gateway_timestamp=100 * (len(specs) + 1),
                gateway_seq=len(specs),
            )
        )
        if rng.random() < 0.05 and specs:
            # Duplicate an earlier (participant, coid) to hit the
            # duplicate-order-id reject when the original still rests.
            dup = dict(specs[int(rng.integers(len(specs)))])
            dup["gateway_timestamp"] = 100 * (len(specs) + 1)
            dup["gateway_seq"] = len(specs)
            specs.append(dup)
    return specs


def _build_core(**features):
    portfolio = PortfolioMatrix()
    for pid in PARTICIPANTS:
        portfolio.open_account(pid, cash=0)
    return MatchingEngineCore(
        SYMBOLS, portfolio, trade_id_counter=itertools.count(1), **features
    )


FEATURES = {
    "plain": {},
    "stp": {"self_trade_prevention": True},
}
# The counter that proves the axis' feature fired inside the stream.
FEATURE_COUNTER = {"stp": "stp_cancellations"}


def _book_state(core):
    state = {}
    for symbol, book in core.books.items():
        state[symbol] = book.depth_snapshot(50)
    return state


def _portfolio_state(core):
    return {
        pid: (core.portfolio.account(pid).cash, dict(core.portfolio.account(pid).positions))
        for pid in PARTICIPANTS
    }


STATUS_FIELD = {
    OrderStatus.ACCEPTED: "accepted",
    OrderStatus.PARTIALLY_FILLED: "partially_filled",
    OrderStatus.FILLED: "filled",
    OrderStatus.CANCELLED: "cancelled",
    OrderStatus.REJECTED: "rejected",
}


class TestProcessBatchEquivalence:
    @pytest.mark.parametrize("feature", sorted(FEATURES))
    @pytest.mark.parametrize("seed", [1, 7, 2021, 90210])
    def test_matches_scalar_path(self, seed, feature):
        specs = _random_specs(seed, 400)
        times = [100 * (i + 1) for i in range(len(specs))]

        scalar = _build_core(**FEATURES[feature])
        expected = BatchMatchStats()
        scalar_trades = []
        for spec, t in zip(specs, times):
            result = scalar.process_order(Order(**spec), t)
            expected.orders += 1
            field = STATUS_FIELD[result.confirmation.status]
            setattr(expected, field, getattr(expected, field) + 1)
            expected.trades += len(result.trades)
            expected.traded_qty += result.traded_quantity
            expected.notional += sum(tr.price * tr.quantity for tr in result.trades)
            scalar_trades.extend(result.trades)

        batched = _build_core(**FEATURES[feature])
        batch_trades = []
        stats = batched.process_batch(
            [Order(**spec) for spec in specs],
            times,
            # Settle as the default sink does, and keep the record.
            on_trade=lambda *fill: batch_trades.append(batched._settle(*fill)),
        )

        if feature in FEATURE_COUNTER:
            assert getattr(scalar, FEATURE_COUNTER[feature]) > 0
        assert stats == expected
        assert batch_trades == scalar_trades
        assert _book_state(batched) == _book_state(scalar)
        assert batched.last_trade_price == scalar.last_trade_price
        for counter in ("orders_processed", "stp_cancellations"):
            assert getattr(batched, counter) == getattr(scalar, counter), counter
        assert _portfolio_state(batched) == _portfolio_state(scalar)
        # Both feeds consumed the same number of trade ids.
        assert next(batched._trade_ids) == next(scalar._trade_ids)

    def test_sink_owns_settlement(self):
        specs = _random_specs(3, 200)
        times = list(range(1, len(specs) + 1))
        settled = _build_core()
        sunk = _build_core()
        seen = []
        stats = settled.process_batch([Order(**s) for s in specs], times)
        sunk_stats = sunk.process_batch(
            [Order(**s) for s in specs],
            times,
            on_trade=lambda trade_id, price, qty, *parties: seen.append((trade_id, price, qty)),
        )
        assert sunk_stats == stats and stats.trades > 0
        # The default sink settles every trade; a custom sink sees every
        # trade and the portfolio is then untouched.
        assert settled.portfolio.trades_applied == stats.trades
        assert sunk.portfolio.trades_applied == 0
        assert [trade_id for trade_id, _, _ in seen] == list(range(1, stats.trades + 1))
        assert sum(qty for _, _, qty in seen) == stats.traded_qty
        assert sum(price * qty for _, price, qty in seen) == stats.notional
        # Identical book evolution and trade-id consumption either way.
        assert _book_state(sunk) == _book_state(settled)
        assert next(sunk._trade_ids) == next(settled._trade_ids)

    def test_mismatched_times_are_refused_before_any_book_is_touched(self):
        specs = _random_specs(5, 60)
        core = _build_core()
        core.process_batch([Order(**s) for s in specs[:40]], list(range(1, 41)))
        before = (
            _book_state(core), {s: b.resting_count() for s, b in core.books.items()},
            core.orders_processed, core.trades_executed, _portfolio_state(core),
        )
        assert sum(before[1].values()) > 0
        with pytest.raises(ValueError, match="batch of 3 orders has 1 times"):
            core.process_batch([Order(**s) for s in specs[40:43]], [41])
        after = (
            _book_state(core), {s: b.resting_count() for s, b in core.books.items()},
            core.orders_processed, core.trades_executed, _portfolio_state(core),
        )
        assert after == before

    def test_stats_merge_and_dict_roundtrip(self):
        a = BatchMatchStats(orders=2, filled=1, accepted=1, trades=3, traded_qty=9, notional=90)
        b = BatchMatchStats(orders=1, rejected=1)
        a.merge(b)
        assert a.orders == 3 and a.rejected == 1
        assert a.to_dict()["traded_qty"] == 9
