"""Poisson order flow: one participant's agent, and the merged stream."""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import SHARDRUN_CHUNK
from repro.core.participant import Participant
from repro.sim.engine import Simulator
from repro.sim.rng import DRAW_BLOCK, block_stream
from repro.sim.timeunits import SECOND
from repro.traders.zi import ZeroIntelligenceStrategy


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
        chunk: int = SHARDRUN_CHUNK,
        field_factory=None,
    ) -> None:
        if not 0 < rate_per_s < math.inf:
            raise ValueError(f"arrival rate must be positive and finite, got {rate_per_s}")
        if chunk < 1:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.rng = rng
        self.rate_per_s = rate_per_s
        self.chunk = chunk
        self.field_factory = field_factory
        self._scale = SECOND / rate_per_s
        self._last_ns = 0
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
    """Drives one participant's ZI trader with Poisson order arrivals.

    Inter-opportunity gaps are exponential with mean ``1/rate``, the
    standard order-flow model and what "each market participant
    submits around 450 orders/s on average" (paper §4) implies.  Gaps
    and the trader's rows both come off the agent's stream a block of
    :data:`~repro.sim.rng.DRAW_BLOCK` at a time (DESIGN §4.11).
    """

    def __init__(
        self,
        sim: Simulator,
        participant: Participant,
        strategy: ZeroIntelligenceStrategy,
        rate_per_s: float,
        rng: np.random.Generator,
    ) -> None:
        if not 0 < rate_per_s < math.inf:
            raise ValueError(f"order rate must be positive and finite, got {rate_per_s}")
        self.sim = sim
        self.participant = participant
        self.strategy = strategy
        self.rate_per_s = rate_per_s
        self.rng = rng
        scale = SECOND / rate_per_s
        self._gaps = block_stream(
            lambda: np.maximum(1, rng.exponential(scale, size=DRAW_BLOCK).astype(np.int64)).tolist()
        )
        self._rows = strategy.rows(rng)
        self.opportunities = 0
        self._running = False

    def start(self) -> None:
        """Subscribe to the trader's symbols and begin generating flow."""
        if self._running:
            return
        self._running = True
        self.participant.subscribe(self.strategy.symbols)
        self.sim.schedule(next(self._gaps), self._tick)

    def stop(self) -> None:
        """Stop after the currently scheduled opportunity."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.opportunities += 1
        self.strategy.place(self.participant, next(self._rows))
        self.sim.schedule(next(self._gaps), self._tick)

    def __repr__(self) -> str:
        return (
            f"TradingAgent({self.participant.name!r}, rate={self.rate_per_s}/s, "
            f"opportunities={self.opportunities})"
        )
