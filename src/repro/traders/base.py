"""Poisson order flow: one participant's trading agent."""

from __future__ import annotations

import numpy as np

from repro.core.config import check_positive_finite
from repro.core.participant import Participant
from repro.sim.engine import Simulator
from repro.sim.rng import DRAW_BLOCK, block_stream
from repro.sim.timeunits import SECOND
from repro.traders.zi import ZeroIntelligenceStrategy


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
        check_positive_finite("rate_per_s", rate_per_s)
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
