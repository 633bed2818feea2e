"""Zero-intelligence (ZI) order flow.

The canonical synthetic-market workload (Gode & Sunder style): each
opportunity places an order on a uniformly random symbol and side at a
price drawn around the current reference price.  Despite having no
strategy, ZI flow produces realistic book dynamics -- a random-walk
mid price, two-sided depth, and a steady stream of crossings -- which
is all the exchange-side evaluations need.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.core.participant import Participant
from repro.core.types import Side, Symbol
from repro.sim.rng import DRAW_BLOCK, block_stream
from repro.traders.base import Strategy


def zi_bulk_fields(
    rng: np.random.Generator,
    n: int,
    n_symbols: int,
    min_qty: int = 1,
    max_qty: int = 100,
    aggression: float = 0.18,
    price_sigma_ticks: float = 15.0,
) -> dict:
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
    reads ``roll < market_order_fraction``.
    """
    symbol = rng.integers(0, n_symbols, size=n)
    side_buy = rng.random(size=n) < 0.5
    qty = rng.integers(min_qty, max_qty + 1, size=n)
    roll = rng.random(size=n)
    aggressive = rng.random(size=n) < aggression
    through = rng.integers(1, 4, size=n)
    behind = 1 + np.abs(np.rint(rng.normal(0.0, price_sigma_ticks, size=n)).astype(np.int64))
    offset = np.where(aggressive, through, -behind)
    offset = np.where(side_buy, offset, -offset)
    return {
        "symbol": symbol,
        "side_buy": side_buy,
        "qty": qty,
        "roll": roll,
        "offset": offset,
    }


class ZeroIntelligenceStrategy(Strategy):
    """Random orders around the reference price.

    Each opportunity is one row of :func:`zi_bulk_fields` (which states
    the column order), drawn ``DRAW_BLOCK`` rows at a time.

    Parameters
    ----------
    symbols:
        Symbols this trader is active in (usually its subscriptions).
    fallback_price:
        Reference price used before any market data arrives.
    price_sigma_ticks:
        Scale of the passive limit-price offset behind the reference;
        larger values build deeper, wider books.
    min_qty, max_qty:
        Uniform order-size range.
    aggression:
        Probability a limit order is priced *through* the touch (and
        so trades immediately against the book).  The realized
        trades-per-order ratio tracks ``aggression +
        market_order_fraction``; the paper's second deployment saw
        ~8% (4.2M orders, 330k trades), course-bot flow considerably
        more.
    market_order_fraction:
        Probability an opportunity becomes a market order.
    cancel_fraction:
        Probability an opportunity instead cancels a working order.
    """

    def __init__(
        self,
        symbols: Sequence[Symbol],
        fallback_price: int,
        price_sigma_ticks: float = 15.0,
        min_qty: int = 1,
        max_qty: int = 100,
        aggression: float = 0.18,
        market_order_fraction: float = 0.10,
        cancel_fraction: float = 0.05,
    ) -> None:
        if not symbols:
            raise ValueError("ZI trader needs at least one symbol")
        if fallback_price <= 0:
            raise ValueError(f"fallback price must be positive, got {fallback_price}")
        if not 0 < min_qty <= max_qty:
            raise ValueError(f"bad quantity range [{min_qty}, {max_qty}]")
        if not 0.0 <= aggression <= 1.0:
            raise ValueError(f"aggression must be in [0,1], got {aggression}")
        if market_order_fraction + cancel_fraction > 1.0:
            raise ValueError("market + cancel fractions exceed 1")
        self.symbols: List[Symbol] = list(symbols)
        self.fallback_price = fallback_price
        self.price_sigma_ticks = price_sigma_ticks
        self.min_qty = min_qty
        self.max_qty = max_qty
        self.aggression = aggression
        self.market_order_fraction = market_order_fraction
        self.cancel_fraction = cancel_fraction

    def on_start(self, participant: Participant) -> None:
        participant.subscribe(self.symbols)

    def _reference(self, participant: Participant, symbol: Symbol) -> int:
        ref = participant.view(symbol).reference_price
        return ref if ref is not None and ref > 0 else self.fallback_price

    def opportunity_draws(self, rng: np.random.Generator) -> Iterator[tuple]:
        def rows():
            fields = zi_bulk_fields(
                rng, DRAW_BLOCK, len(self.symbols), self.min_qty, self.max_qty,
                self.aggression, self.price_sigma_ticks,
            )
            keys = ("roll", "symbol", "side_buy", "qty", "offset")
            return zip(*(fields[key].tolist() for key in keys))

        return block_stream(rows)

    def on_order_opportunity(self, participant: Participant, draw: tuple) -> None:
        roll, symbol_index, side_buy, quantity, offset = draw
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
