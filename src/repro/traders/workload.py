"""Workload assembly helpers: the symbol split behind the cluster's
per-participant agents, and :class:`BulkOrderStream`, the batched
kernel's merged order stream.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import (
    SHARDRUN_CHUNK,
    SHARDRUN_GATEWAY_BASE_US,
    SHARDRUN_GATEWAY_JITTER_SCALE_US,
    SHARDRUN_GATEWAY_JITTER_SHAPE,
    SHARDRUN_MARKET_ORDER_FRACTION,
    check_positive_finite,
)
from repro.sim.rng import RngRegistry
from repro.sim.timeunits import MICROSECOND, SECOND
from repro.traders.zi import zi_bulk_fields

_GATEWAY_BASE_NS = int(SHARDRUN_GATEWAY_BASE_US * MICROSECOND)
_GATEWAY_JITTER_SCALE_NS = SHARDRUN_GATEWAY_JITTER_SCALE_US * MICROSECOND


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

    Where the cluster builds one event-driven
    :class:`~repro.traders.base.TradingAgent` per participant (an event,
    an RNG draw, and a Python callback per opportunity), this models the
    *merged* flow of ``n_participants`` ZI traders over a symbol subset
    as a single Poisson stream at the aggregate ``rate_per_s``, drawn
    :data:`~repro.core.config.SHARDRUN_CHUNK` rows at a time: strictly
    increasing integer-ns arrival times (exponential gaps clamped to
    >= 1 ns, like a :class:`~repro.traders.base.TradingAgent`'s), then
    that chunk's participant / symbol / side / quantity / price-offset
    columns and a gateway-stamp column (arrival + the
    ``SHARDRUN_GATEWAY_*`` base latency and gamma jitter).  This is the
    order-generation half of the batched kernel
    (:mod:`repro.core.shardrun`); matching consumes the columns in
    gateway-stamp order.

    Determinism contract: every draw is chunk-aligned -- one chunk of
    gaps off ``arrivals_rng``, then that chunk's columns off
    ``fields_rng`` -- so the draw sequence never depends on how callers
    slice simulated time across :meth:`take_until` calls, and a
    windowed sharded run consumes the stream identically wherever the
    conservative-sync window boundaries fall.
    """

    def __init__(
        self,
        *,
        arrivals_rng: np.random.Generator,
        fields_rng: np.random.Generator,
        n_participants: int,
        rate_per_s: float,
        n_symbols: int,
    ) -> None:
        if n_participants < 1:
            raise ValueError(f"need at least one participant, got {n_participants}")
        if n_symbols < 1:
            raise ValueError(f"need at least one symbol, got {n_symbols}")
        check_positive_finite("rate_per_s", rate_per_s)
        self.arrivals_rng = arrivals_rng
        self.fields_rng = fields_rng
        self.n_participants = n_participants
        self.n_symbols = n_symbols
        self._scale = SECOND / rate_per_s
        self._last_ns = 0
        #: The current chunk's columns, arrival ``time`` first.
        self._cols: Dict[str, np.ndarray] = {"time": np.empty(0, dtype=np.int64)}
        self._pos = 0
        self.emitted = 0

    def _refill(self) -> None:
        """Draw the next chunk: its arrival times, then its columns."""
        n, rng = SHARDRUN_CHUNK, self.fields_rng
        gaps = np.maximum(1, self.arrivals_rng.exponential(self._scale, size=n).astype(np.int64))
        times = np.cumsum(gaps) + self._last_ns
        self._last_ns = int(times[-1])
        cols = {"time": times, **zi_bulk_fields(rng, n, self.n_symbols)}
        cols["market"] = cols.pop("roll") < SHARDRUN_MARKET_ORDER_FRACTION
        cols["participant"] = rng.integers(0, self.n_participants, size=n)
        cols["stamp"] = times + _GATEWAY_BASE_NS + rng.gamma(
            SHARDRUN_GATEWAY_JITTER_SHAPE, _GATEWAY_JITTER_SCALE_NS, size=n
        ).astype(np.int64)
        self._cols = cols
        self._pos = 0

    def take_until(self, t_end_ns: int):
        """Arrivals strictly before ``t_end_ns`` not yet taken:
        ``(start_index, times, fields)``.

        ``fields`` carries ``stamp`` (gateway timestamp = arrival +
        latency; monotone per arrival chunk only in expectation --
        matching order is by stamp, not arrival).  ``start_index`` is
        the global index of the first row, giving every order a stable
        stream-wide id.  Consecutive calls with increasing horizons
        tile the stream without gaps or overlaps.
        """
        parts = []
        while True:
            if self._pos >= len(self._cols["time"]):
                self._refill()
            times = self._cols["time"]
            idx = int(np.searchsorted(times[self._pos :], t_end_ns, side="left"))
            if idx == 0:
                break
            taken = slice(self._pos, self._pos + idx)
            parts.append({key: col[taken] for key, col in self._cols.items()})
            self._pos += idx
            if self._pos < len(times):
                break
        fields = {
            key: np.concatenate([part[key] for part in parts]) if parts else col[:0]
            for key, col in self._cols.items()
        }
        times = fields.pop("time")
        start = self.emitted
        self.emitted += len(times)
        return start, times, fields
