"""The block-drawn agent against the scalar draws it replaced.

Block drawing re-orders a ``trader:*`` stream, so no draw-for-draw
comparison exists; what must hold is that an opportunity has the same
distribution.  Every share below is compared at five standard errors of
the difference of two independent samples of ``N`` (fixed seeds, so a
pass is a pass for good).
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.types import Side
from repro.sim.engine import Simulator
from repro.sim.rng import DRAW_BLOCK
from repro.core.config import INITIAL_PRICE
from repro.traders.base import TradingAgent
from repro.traders.zi import ZeroIntelligenceStrategy
from tests.traders import reference

N = 200_000
FALLBACK = INITIAL_PRICE  # what ZI prices from before any market data


class RecordingParticipant:
    """Stands in for a participant: tallies what a strategy asks of it.

    ``working`` never changes, so with a working order every cancel roll
    cancels and with none every cancel roll falls through.
    """

    name = "p0"
    reference_price = None  # view(): no market data yet, so the fallback prices

    def __init__(self, working: bool) -> None:
        self.working = {1: self} if working else {}
        self.symbol = "S0"
        self.kinds = Counter()
        self.sides = Counter()
        self.symbols = Counter()
        self.quantities = Counter()
        self.offsets = Counter()

    def subscribe(self, symbols):
        pass

    def view(self, symbol):
        return self

    def cancel(self, client_order_id, symbol):
        self.kinds["cancel"] += 1

    def _order(self, kind, symbol, side, quantity):
        self.kinds[kind] += 1
        self.sides[side] += 1
        self.symbols[symbol] += 1
        self.quantities[quantity] += 1

    def submit_market(self, symbol, side, quantity):
        self._order("market", symbol, side, quantity)

    def submit_limit(self, symbol, side, quantity, price):
        ticks = price - FALLBACK if side is Side.BUY else FALLBACK - price
        self._order("aggressive" if ticks > 0 else "passive", symbol, side, quantity)
        self.offsets[ticks] += 1


def assert_shares_agree(block: Counter, scalar: Counter, n: int = N) -> None:
    assert set(block) | set(scalar)
    for key in set(block) | set(scalar):
        a, b = block[key] / n, scalar[key] / n
        p = (a + b) / 2
        assert abs(a - b) <= 5 * math.sqrt(2 * p * (1 - p) / n), (key, a, b)


def zi():
    return ZeroIntelligenceStrategy(
        [f"S{i}" for i in range(5)], market_order_fraction=0.10, cancel_fraction=0.05
    )


@pytest.mark.parametrize("working", [True, False], ids=["cancellable", "nothing-working"])
def test_zi_opportunity_distribution_matches_the_scalar_reference(working):
    strategy = zi()
    block, scalar = RecordingParticipant(working), RecordingParticipant(working)
    rows = strategy.rows(np.random.default_rng(11))
    scalar_rng = np.random.default_rng(12)
    for _ in range(N):
        strategy.place(block, next(rows))
        reference.zi_opportunity(strategy, scalar, scalar_rng)
    for field in ("kinds", "sides", "symbols", "quantities", "offsets"):
        assert_shares_agree(getattr(block, field), getattr(scalar, field))
    # One roll decides the kind: 5 % cancel, 10 % market, the rest limit at
    # 18 % aggression -- and a cancel roll with nothing working is a market order.
    shares = {kind: count / N for kind, count in block.kinds.items()}
    cancel, market = (0.05, 0.10) if working else (0.0, 0.15)
    assert shares.get("cancel", 0.0) == pytest.approx(cancel, abs=0.003)
    assert shares["market"] == pytest.approx(market, abs=0.004)
    assert shares["aggressive"] == pytest.approx(0.85 * 0.18, abs=0.004)
    assert shares["passive"] == pytest.approx(0.85 * 0.82, abs=0.005)
    assert set(block.quantities) == set(range(1, 101))
    assert {t for t in block.offsets if t > 0} == {1, 2, 3}


def test_gap_distribution_matches_the_scalar_reference():
    rate = 1_700.0
    agent = TradingAgent(Simulator(), RecordingParticipant(False), zi(), rate,
                         np.random.default_rng(21))
    block = np.array([next(agent._gaps) for _ in range(N)])
    scalar_rng = np.random.default_rng(22)
    scalar = np.array([reference.next_gap(scalar_rng, rate) for _ in range(N)])
    assert block.min() >= 1
    assert block.mean() == pytest.approx(scalar.mean(), rel=0.015)
    for q in (50, 90, 99):
        assert np.percentile(block, q) == pytest.approx(np.percentile(scalar, q), rel=0.02)


def test_rows_and_gaps_come_off_the_agents_stream_a_block_at_a_time():
    """The stream sees: a gap block at ``start``, a row block at the first
    tick, and the next of each when its 64 are used -- nothing per tick."""
    sim, rng, twin = Simulator(), np.random.default_rng(5), np.random.default_rng(5)
    strategy = zi()
    agent = TradingAgent(sim, RecordingParticipant(False), strategy, 1_000.0, rng)
    assert rng.bit_generator.state == twin.bit_generator.state  # nothing at construction
    agent.start()
    twin.exponential(1e6, size=DRAW_BLOCK)
    assert rng.bit_generator.state == twin.bit_generator.state
    while agent.opportunities < 1:
        sim.step()
    next(strategy.rows(twin))  # one row block
    assert rng.bit_generator.state == twin.bit_generator.state
    while agent.opportunities < DRAW_BLOCK - 1:
        sim.step()
    assert rng.bit_generator.state == twin.bit_generator.state
    sim.step()  # the 64th gap is taken by the 63rd tick; the 64th tick needs a new block
    twin.exponential(1e6, size=DRAW_BLOCK)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_two_agents_sharing_one_strategy_do_not_share_a_buffer():
    strategy = zi()

    def orders(share_with_second_agent: bool):
        sim, book = Simulator(), RecordingParticipant(False)
        log = []
        book.submit_limit = lambda *order: log.append(order)
        book.submit_market = lambda *order: log.append(order)
        TradingAgent(sim, book, strategy, 1_000.0, np.random.default_rng(1)).start()
        if share_with_second_agent:
            other = RecordingParticipant(False)
            TradingAgent(sim, other, strategy, 3_000.0, np.random.default_rng(2)).start()
        sim.run(until=200_000_000)
        return log

    alone = orders(False)
    assert len(alone) > 2 * DRAW_BLOCK
    assert orders(True) == alone
