"""Zero-intelligence (ZI) order flow.

The canonical synthetic-market workload (Gode & Sunder style): each
opportunity places an order on a uniformly random symbol and side at a
price drawn around the current reference price.  Despite having no
strategy, ZI flow produces realistic book dynamics -- a random-walk
mid price, two-sided depth, and a steady stream of crossings -- which
is all the exchange-side evaluations need.  The order shape is the
``ZI_*`` calibration in :mod:`repro.core.config`.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.core.config import (
    INITIAL_PRICE,
    ZI_AGGRESSION,
    ZI_MAX_QTY,
    ZI_MIN_QTY,
    ZI_PRICE_SIGMA_TICKS,
)
from repro.core.participant import Participant
from repro.core.types import Side, Symbol
from repro.sim.rng import DRAW_BLOCK, block_stream


def zi_bulk_fields(rng: np.random.Generator, n: int, n_symbols: int) -> dict:
    """Draw ``n`` ZI opportunities at once -- the only ZI generator.

    Seven columns, in this order whatever ``n`` is (the order is part of
    both consumers' determinism contract): uniform ``symbol`` index,
    ``side_buy`` coin, uniform ``qty``, the raw ``roll`` in [0, 1) that
    decides the kind of opportunity, the aggression coin, ticks
    ``through`` (1-3) and ticks ``behind`` (``1 + |round(N(0, sigma))|``).
    The last three fold into one signed tick ``offset`` from whatever
    reference price applies when the order is priced -- aggressive rows
    through the touch, passive rows behind it, sign set for the drawn
    side -- which is what lets a sharded run pre-draw whole chunks without
    knowing the price path: feedback moves the center, never the draws.

    One roll decides cancel / market / limit, and the consumer holds the
    thresholds: :class:`ZeroIntelligenceStrategy` reads ``cancel_fraction``
    then ``cancel_fraction + market_order_fraction``; the batched feed
    (:class:`~repro.traders.workload.BulkOrderStream`) has no cancels and
    reads ``roll < SHARDRUN_MARKET_ORDER_FRACTION``.
    """
    symbol = rng.integers(0, n_symbols, size=n)
    side_buy = rng.random(size=n) < 0.5
    qty = rng.integers(ZI_MIN_QTY, ZI_MAX_QTY + 1, size=n)
    roll = rng.random(size=n)
    aggressive = rng.random(size=n) < ZI_AGGRESSION
    through = rng.integers(1, 4, size=n)
    behind = 1 + np.abs(np.rint(rng.normal(0.0, ZI_PRICE_SIGMA_TICKS, size=n)).astype(np.int64))
    offset = np.where(aggressive, through, -behind)
    offset = np.where(side_buy, offset, -offset)
    return {
        "symbol": symbol,
        "side_buy": side_buy,
        "qty": qty,
        "roll": roll,
        "offset": offset,
    }


class ZeroIntelligenceStrategy:
    """Random orders around the reference price (``INITIAL_PRICE``
    before any market data arrives).

    Each opportunity is one row of :func:`zi_bulk_fields` (which states
    the column order), drawn ``DRAW_BLOCK`` rows at a time.

    Parameters
    ----------
    symbols:
        Symbols this trader is active in (and subscribes to).
    market_order_fraction, cancel_fraction:
        Probability an opportunity becomes a market order, or instead
        cancels a working order (``CloudExConfig``'s workload fields).
    """

    def __init__(
        self,
        symbols: Sequence[Symbol],
        market_order_fraction: float,
        cancel_fraction: float,
    ) -> None:
        if not symbols:
            raise ValueError("ZI trader needs at least one symbol")
        if market_order_fraction + cancel_fraction > 1.0:
            raise ValueError("market + cancel fractions exceed 1")
        self.symbols: List[Symbol] = list(symbols)
        self.market_order_fraction = market_order_fraction
        self.cancel_fraction = cancel_fraction

    def _reference(self, participant: Participant, symbol: Symbol) -> int:
        ref = participant.view(symbol).reference_price
        return ref if ref is not None and ref > 0 else INITIAL_PRICE

    def rows(self, rng: np.random.Generator) -> Iterator[tuple]:
        """Endless ``(roll, symbol, side_buy, qty, offset)`` rows off
        ``rng``.  The caller keeps the iterator, so a strategy two agents
        share holds no buffer."""

        def block():
            fields = zi_bulk_fields(rng, DRAW_BLOCK, len(self.symbols))
            keys = ("roll", "symbol", "side_buy", "qty", "offset")
            return zip(*(fields[key].tolist() for key in keys))

        return block_stream(block)

    def place(self, participant: Participant, row: tuple) -> None:
        """Act on one opportunity's row: cancel, market or limit order."""
        roll, symbol_index, side_buy, quantity, offset = row
        if roll < self.cancel_fraction and participant.working:
            # Cancel the oldest working order.
            client_order_id = next(iter(participant.working))
            order = participant.working[client_order_id]
            participant.cancel(client_order_id, order.symbol)
            return
        # A cancel roll with nothing working falls through to a market order.
        symbol = self.symbols[symbol_index]
        side = Side.BUY if side_buy else Side.SELL
        if roll < self.cancel_fraction + self.market_order_fraction:
            participant.submit_market(symbol, side, quantity)
            return
        price = max(1, self._reference(participant, symbol) + offset)
        participant.submit_limit(symbol, side, quantity, price)
