"""Workload assembly helpers.

Functions for attaching strategy-driven Poisson order flow to a set of
participants -- the glue between :mod:`repro.core.cluster` and the
strategies in this package.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.core.participant import Participant
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.traders.base import PoissonArrivalStream, Strategy, TradingAgent
from repro.traders.zi import zi_bulk_fields

#: Builds a strategy for one participant: (participant index, its symbols) -> Strategy.
StrategyFactory = Callable[[int, Sequence[str]], Strategy]


def split_symbols(
    symbols: Sequence[str],
    n_participants: int,
    per_participant: int,
    rngs: RngRegistry,
) -> List[List[str]]:
    """Deterministically assign each participant a symbol subset.

    The base assignment walks the symbol list round-robin, so *when
    capacity allows* (``n_participants * per_participant >=
    len(symbols)``) every symbol gets at least one subscriber before
    any symbol gets a second, and market data flows for the whole
    universe while each participant works a small book.  With fewer
    total slots than symbols, full coverage is impossible; the walk
    then covers exactly the first ``n_participants * per_participant``
    symbols in list order and the remainder go unsubscribed -- a valid
    (if quiet) market, not an error.  Remaining per-participant slots
    beyond the round-robin base are filled randomly from the whole
    universe.
    """
    if per_participant < 1:
        raise ValueError(f"need at least one symbol per participant, got {per_participant}")
    if per_participant > len(symbols):
        raise ValueError(
            f"per_participant={per_participant} exceeds symbol universe {len(symbols)}"
        )
    rng = rngs.stream("workload:symbol-split")
    assignments: List[List[str]] = []
    for index in range(n_participants):
        chosen = {symbols[(index * per_participant + k) % len(symbols)] for k in range(per_participant)}
        while len(chosen) < per_participant:
            chosen.add(symbols[int(rng.integers(len(symbols)))])
        assignments.append(sorted(chosen))
    return assignments


class BulkOrderStream:
    """Bulk-generated merged ZI order flow for one engine shard.

    Where :func:`attach_agents` builds one event-driven
    :class:`TradingAgent` per participant (an event, an RNG draw, and a
    Python callback per opportunity), this models the *merged* flow of
    ``n_participants`` ZI traders over a symbol subset as a single
    chunked numpy stream: Poisson arrival times, participant / symbol /
    side / quantity / price-offset columns, and a gateway-stamp column
    (arrival + base latency + gamma jitter), all drawn whole chunks at
    a time.  This is the order-generation half of the batched kernel
    (:mod:`repro.core.shardrun`); matching consumes the columns in
    gateway-stamp order.

    Determinism contract: all draws are chunk-aligned (see
    :class:`~repro.traders.base.PoissonArrivalStream`), so the stream
    is bit-identical regardless of how the caller windows time -- the
    property that lets the sharded run cut time into conservative-sync
    windows without perturbing the workload.
    """

    def __init__(
        self,
        *,
        arrivals_rng: np.random.Generator,
        fields_rng: np.random.Generator,
        n_participants: int,
        rate_per_s: float,
        n_symbols: int,
        min_qty: int = 1,
        max_qty: int = 100,
        aggression: float = 0.18,
        market_order_fraction: float = 0.10,
        price_sigma_ticks: float = 15.0,
        latency_base_ns: int = 80_000,
        latency_jitter_shape: float = 0.7,
        latency_jitter_scale_ns: float = 30_000.0,
        start_ns: int = 0,
        chunk: int = 4096,
    ) -> None:
        if n_participants < 1:
            raise ValueError(f"need at least one participant, got {n_participants}")
        if n_symbols < 1:
            raise ValueError(f"need at least one symbol, got {n_symbols}")

        def draw_fields(n: int) -> dict:
            fields = zi_bulk_fields(
                fields_rng,
                n,
                n_symbols,
                min_qty=min_qty,
                max_qty=max_qty,
                aggression=aggression,
                price_sigma_ticks=price_sigma_ticks,
            )
            fields["market"] = fields.pop("roll") < market_order_fraction
            fields["participant"] = fields_rng.integers(0, n_participants, size=n)
            fields["latency"] = latency_base_ns + fields_rng.gamma(
                latency_jitter_shape, latency_jitter_scale_ns, size=n
            ).astype(np.int64)
            return fields

        self.arrivals = PoissonArrivalStream(
            arrivals_rng,
            rate_per_s,
            start_ns=start_ns,
            chunk=chunk,
            field_factory=draw_fields,
        )
        self.emitted = 0

    def take_until(self, t_end_ns: int):
        """Arrivals in the next window: ``(start_index, times, fields)``.

        ``fields`` additionally carries ``stamp`` (gateway timestamp =
        arrival + latency; monotone per arrival chunk only in
        expectation -- matching order is by stamp, not arrival).
        ``start_index`` is the global index of the first row, giving
        every order a stable stream-wide id.
        """
        times, fields = self.arrivals.take_until(t_end_ns)
        fields["stamp"] = times + fields.pop("latency")
        start = self.emitted
        self.emitted += len(times)
        return start, times, fields


def attach_agents(
    sim: Simulator,
    rngs: RngRegistry,
    participants: Sequence[Participant],
    strategy_factory: StrategyFactory,
    symbol_assignments: Sequence[Sequence[str]],
    rate_per_s: float,
    start_delay_ns: int = 0,
) -> List[TradingAgent]:
    """Create and start one agent per participant.

    Each agent gets its own named random stream, so adding or removing
    one participant never changes another's order flow.
    """
    if len(symbol_assignments) != len(participants):
        raise ValueError(
            f"{len(participants)} participants but {len(symbol_assignments)} symbol assignments"
        )
    agents: List[TradingAgent] = []
    for index, participant in enumerate(participants):
        strategy = strategy_factory(index, symbol_assignments[index])
        agent = TradingAgent(
            sim=sim,
            participant=participant,
            strategy=strategy,
            rate_per_s=rate_per_s,
            rng=rngs.stream(f"trader:{participant.name}"),
        )
        agent.start(delay_ns=start_delay_ns)
        agents.append(agent)
    return agents
