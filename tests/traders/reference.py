"""The per-opportunity scalar draws the block-drawn agent replaced, kept
as the reference the tests compare against: one exponential per gap,
and up to seven draws per ZI opportunity taken as each is needed (a
cancel stops after the roll, a market order after the quantity)."""

import numpy as np

from repro.core.types import Side
from repro.sim.timeunits import SECOND
from repro.traders.zi import ZeroIntelligenceStrategy


def next_gap(rng: np.random.Generator, rate_per_s: float) -> int:
    return max(1, int(rng.exponential(SECOND / rate_per_s)))


def zi_opportunity(strategy: ZeroIntelligenceStrategy, participant, rng: np.random.Generator) -> None:
    roll = rng.random()
    if roll < strategy.cancel_fraction and participant.working:
        # Cancel the oldest working order.
        client_order_id = next(iter(participant.working))
        order = participant.working[client_order_id]
        participant.cancel(client_order_id, order.symbol)
        return

    symbol = strategy.symbols[int(rng.integers(len(strategy.symbols)))]
    side = Side.BUY if rng.random() < 0.5 else Side.SELL
    quantity = int(rng.integers(strategy.min_qty, strategy.max_qty + 1))
    if roll < strategy.cancel_fraction + strategy.market_order_fraction:
        participant.submit_market(symbol, side, quantity)
        return
    reference = strategy._reference(participant, symbol)
    if rng.random() < strategy.aggression:
        # Marketable: price a couple of ticks through the touch.
        through = int(rng.integers(1, 4))
        offset = through if side is Side.BUY else -through
    else:
        # Passive: rest behind the reference price.
        behind = 1 + abs(int(round(rng.normal(0.0, strategy.price_sigma_ticks))))
        offset = -behind if side is Side.BUY else behind
    price = max(1, reference + offset)
    participant.submit_limit(symbol, side, quantity, price)
