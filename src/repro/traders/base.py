"""Strategy interface and the Poisson order-flow driver."""

from __future__ import annotations

import itertools
from typing import Any, Iterator

import numpy as np

from repro.core.participant import Participant
from repro.sim.engine import Simulator
from repro.sim.rng import DRAW_BLOCK, block_stream
from repro.sim.timeunits import SECOND


class Strategy:
    """Base class for trading strategies.

    A strategy is attached to a :class:`~repro.core.participant.Participant`
    and driven from two directions: the participant forwards exchange
    events (confirmations, trades, market data), and a
    :class:`TradingAgent` calls :meth:`on_order_opportunity` at Poisson
    times to generate outbound flow.
    """

    def on_start(self, participant: Participant) -> None:
        """Called once before trading begins (subscribe, seed state)."""

    def opportunity_draws(self, rng: np.random.Generator) -> Iterator[Any]:
        """What :meth:`on_order_opportunity` gets, one item an opportunity:
        the agent's stream itself by default, block-drawn rows for a
        strategy that is all chance (:mod:`repro.traders.zi`).  The agent
        keeps the iterator, so a strategy two agents share holds no buffer.
        """
        return itertools.repeat(rng)

    def on_order_opportunity(self, participant: Participant, draw: Any) -> None:
        """Called at each order-arrival instant with the next item of
        :meth:`opportunity_draws`; place orders here."""

    def on_market_data(self, participant: Participant, delivery) -> None:
        """Called on every released market-data delivery."""

    def on_confirmation(self, participant: Participant, confirmation) -> None:
        """Called on every order confirmation."""

    def on_trade(self, participant: Participant, trade_confirmation) -> None:
        """Called on every trade confirmation (a fill on our order)."""


class PoissonArrivalStream:
    """Chunked bulk generation of a merged Poisson arrival process.

    One stream models the merged order flow of many participants at an
    aggregate ``rate_per_s``, drawing exponential gaps in fixed-size
    chunks and serving strictly increasing integer-ns arrival times.
    Gaps are clamped to >= 1 ns like a :class:`TradingAgent`'s.

    Chunking is part of the determinism contract of the batched kernel:
    the draw sequence depends only on ``(rate, chunk)`` -- never on how
    callers slice simulated time across :meth:`take_until` calls -- so
    a windowed sharded run consumes this stream identically no matter
    where the conservative-sync window boundaries fall.

    ``field_factory(n)``, when given, is called once per chunk to draw
    ``n`` rows of per-arrival payload columns; the arrays are sliced
    along with the arrival times, keeping every payload draw aligned to
    the same chunk boundaries (and therefore equally window-invariant).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        rate_per_s: float,
        start_ns: int = 0,
        chunk: int = 4096,
        field_factory=None,
    ) -> None:
        if rate_per_s <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate_per_s}")
        if chunk < 1:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.rng = rng
        self.rate_per_s = rate_per_s
        self.chunk = chunk
        self.field_factory = field_factory
        self._scale = SECOND / rate_per_s
        self._last_ns = start_ns
        self._times = np.empty(0, dtype=np.int64)
        self._fields = None
        self._pos = 0
        self.generated = 0

    def _refill(self) -> None:
        gaps = np.maximum(1, self.rng.exponential(self._scale, size=self.chunk).astype(np.int64))
        self._times = np.cumsum(gaps) + self._last_ns
        self._last_ns = int(self._times[-1])
        if self.field_factory is not None:
            self._fields = self.field_factory(self.chunk)
        self._pos = 0
        self.generated += self.chunk

    def take_until(self, t_end_ns: int):
        """All arrivals strictly before ``t_end_ns`` not yet taken.

        Returns ``times`` (int64 array) or ``(times, fields)`` when a
        ``field_factory`` is attached.  Consecutive calls with
        increasing horizons tile the stream without gaps or overlaps.
        """
        times_out = []
        fields_out = []
        while True:
            if self._pos >= len(self._times):
                self._refill()
            rest = self._times[self._pos :]
            idx = int(np.searchsorted(rest, t_end_ns, side="left"))
            if idx == 0:
                break
            taken = slice(self._pos, self._pos + idx)
            times_out.append(self._times[taken])
            if self._fields is not None:
                fields_out.append({key: col[taken] for key, col in self._fields.items()})
            self._pos += idx
            if self._pos < len(self._times):
                break
        times = (
            np.concatenate(times_out) if times_out else np.empty(0, dtype=np.int64)
        )
        if self.field_factory is None:
            return times
        if fields_out:
            fields = {
                key: np.concatenate([chunk[key] for chunk in fields_out])
                for key in fields_out[0]
            }
        else:
            fields = {key: col[:0] for key, col in (self._fields or {}).items()}
        return times, fields


class TradingAgent:
    """Drives one participant's strategy with Poisson order arrivals.

    Inter-opportunity gaps are exponential with mean ``1/rate``, the
    standard order-flow model and what "each market participant
    submits around 450 orders/s on average" (paper §4) implies.  Gaps
    and the strategy's draws both come off the agent's stream a block of
    :data:`~repro.sim.rng.DRAW_BLOCK` at a time (DESIGN §4.11).
    """

    def __init__(
        self,
        sim: Simulator,
        participant: Participant,
        strategy: Strategy,
        rate_per_s: float,
        rng: np.random.Generator,
    ) -> None:
        if rate_per_s <= 0:
            raise ValueError(f"order rate must be positive, got {rate_per_s}")
        self.sim = sim
        self.participant = participant
        self.strategy = strategy
        self.rate_per_s = rate_per_s
        self.rng = rng
        scale = SECOND / rate_per_s
        self._gaps = block_stream(
            lambda: np.maximum(1, rng.exponential(scale, size=DRAW_BLOCK).astype(np.int64)).tolist()
        )
        self._draws = strategy.opportunity_draws(rng)
        self.opportunities = 0
        self._running = False
        participant.strategy = strategy

    def start(self, delay_ns: int = 0) -> None:
        """Begin generating flow after ``delay_ns``."""
        if self._running:
            return
        self._running = True
        self.strategy.on_start(self.participant)
        self.sim.schedule(delay_ns + next(self._gaps), self._tick)

    def stop(self) -> None:
        """Stop after the currently scheduled opportunity."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.opportunities += 1
        self.strategy.on_order_opportunity(self.participant, next(self._draws))
        self.sim.schedule(next(self._gaps), self._tick)

    def __repr__(self) -> str:
        return (
            f"TradingAgent({self.participant.name!r}, rate={self.rate_per_s}/s, "
            f"opportunities={self.opportunities})"
        )
