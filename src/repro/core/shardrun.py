"""Batched, sharded in-run execution: the scale-out kernel.

``python -m repro shardrun`` runs the paper's §3 symbol-sharded
matching engine at a scale the event-driven cluster cannot reach: each
shard is a *batched shard program* -- the same
:class:`~repro.core.matching.MatchingEngineCore` an
:class:`~repro.core.exchange.EngineShard` drives, but fed by
numpy-bulk-generated order streams (:class:`repro.traders.workload.BulkOrderStream`)
through :meth:`~repro.core.matching.MatchingEngineCore.process_batch`
instead of one network event per message.  Participants are array
indices, so a million of them cost no more than a thousand; run cost
scales with aggregate order count.

Time is cut into conservative-synchronization windows of length
``lookahead_ns`` (see :meth:`ShardRunConfig.lookahead_ns`): within a
window, shards are causally independent -- the only cross-shard
influence is the global price index computed at the previous barrier
(published every ``SHARDRUN_PUBLISH_INTERVAL_MS``), mirroring how
market data is the only cross-symbol coupling in the event-driven
cluster.  At each barrier the coordinator merges per-shard tallies
**in shard-id order**, computes the next index, and broadcasts it;
shards blend it into their per-symbol price centers, so the feedback is
genuinely load-bearing (prices correlate across shards) and the run is
a real conservative-sync problem, not embarrassingly parallel.

Determinism: a shard's computation depends only on ``(config,
shard_id, feedback history)``.  ``--jobs 1`` runs the identical
windowed protocol inline and is the golden baseline; any ``--jobs N``
process run emits byte-identical report JSON (pinned by tests and the
CI bench-smoke job).  Inside a shard, processing order is a rank
column: a window's arrivals stay the numpy columns the bulk stream
drew, go behind a small *carry* of rows stamped past an earlier
window's edge, and one stable sort on the gateway-stamp column
(:func:`split_due`) yields the due rows in ``(stamp, arrival id)``
order -- what a per-order event heap would pop, with no event per order.
"""

from __future__ import annotations

import argparse
import time as _time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cliutil import EXIT_OK, add_json_flag, emit_json, usage_error
from repro.core.config import (
    INITIAL_PRICE,
    SHARDRUN_CHUNK,
    SHARDRUN_GATEWAY_BASE_US,
    SHARDRUN_GATEWAY_JITTER_SCALE_US,
    SHARDRUN_GATEWAY_JITTER_SHAPE,
    SHARDRUN_MARKET_ORDER_FRACTION,
    SHARDRUN_PORTFOLIO_BUCKETS,
    SHARDRUN_PUBLISH_INTERVAL_MS,
    ZI_AGGRESSION,
    ZI_MAX_QTY,
    ZI_MIN_QTY,
    ZI_PRICE_SIGMA_TICKS,
    check_fields,
    check_rate,
    check_seed,
    check_symbol_count,
    checked,
    default_symbols,
    duration,
    integer,
)
from repro.core.matching import BatchMatchStats, MatchingEngineCore
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.sharding import SymbolRouter
from repro.core.types import OrderType, Side, TimeInForce
from repro.sim.engine import SimulationError, collector_paused
from repro.sim.parallel import ConservativeShardRunner
from repro.sim.rng import RngRegistry
from repro.sim.timeunits import MICROSECOND, MILLISECOND, SECOND
from repro.sim.worker import check_jobs
from repro.traders.workload import BulkOrderStream

Columns = Dict[str, np.ndarray]  #: named numpy columns, one row per order

#: The calibration a run reads, echoed beside the config in every report
#: under the names the reports have always carried.
_CALIBRATION_ECHO = {
    "initial_price": INITIAL_PRICE,
    "price_sigma_ticks": ZI_PRICE_SIGMA_TICKS,
    "aggression": ZI_AGGRESSION,
    "market_order_fraction": SHARDRUN_MARKET_ORDER_FRACTION,
    "min_qty": ZI_MIN_QTY,
    "max_qty": ZI_MAX_QTY,
    "gateway_base_latency_us": SHARDRUN_GATEWAY_BASE_US,
    "gateway_jitter_shape": SHARDRUN_GATEWAY_JITTER_SHAPE,
    "gateway_jitter_scale_us": SHARDRUN_GATEWAY_JITTER_SCALE_US,
    "md_publish_interval_ms": SHARDRUN_PUBLISH_INTERVAL_MS,
    "portfolio_buckets": SHARDRUN_PORTFOLIO_BUCKETS,
    "chunk": SHARDRUN_CHUNK,
}


@dataclass(frozen=True)
class ShardRunConfig:
    """Everything that identifies a sharded batched run.

    Two runs with equal configs produce byte-identical reports at any
    ``jobs``; the config is echoed into the report with the calibration
    (``ZI_*`` and ``SHARDRUN_*`` in :mod:`repro.core.config`) it reads.
    """

    seed: int = checked(2021, check_seed)
    n_participants: int = checked(1_000_000, integer(1))
    n_symbols: int = checked(10, check_symbol_count)
    n_shards: int = checked(10, integer(1))
    rate_per_participant_s: float = checked(0.45, check_rate)
    duration_s: float = checked(2.0, duration(SECOND, positive=True))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_shards > self.n_symbols:
            raise ValueError(
                f"n_shards must be in [1, n_symbols={self.n_symbols}], got {self.n_shards}"
            )

    def lookahead_ns(self) -> int:
        """Conservative-sync window length.

        A shard's local matching inside ``(t, t + W]`` can only be
        influenced by remote shards through the market-data index
        published at the window boundary, so the window may safely be
        as long as the publish interval plus the minimum inbound and
        outbound propagation floors -- the same "lookahead = minimum
        link latency" argument as Chandy-Misra null messages, with the
        publish interval dominating.
        """
        publish_ns = int(SHARDRUN_PUBLISH_INTERVAL_MS * MILLISECOND)
        floor_ns = int(SHARDRUN_GATEWAY_BASE_US * MICROSECOND)
        return publish_ns + 2 * floor_ns

    def duration_ns(self) -> int:
        return int(self.duration_s * SECOND)

    def n_windows(self) -> int:
        window = self.lookahead_ns()
        return -(-self.duration_ns() // window)  # ceil

    def to_dict(self) -> Dict[str, Any]:
        return dict(sorted({**asdict(self), **_CALIBRATION_ECHO}.items()))


def split_due(carry: Columns, new: Columns, t_end: int) -> Tuple[Columns, Columns]:
    """One window's ordering step: ``(due, carry)`` column sets.

    ``new`` (this window's arrivals, ascending ``id``) goes behind
    ``carry`` (rows stamped past an earlier edge, ascending and smaller
    ``id``), so one stable sort on ``stamp`` is ``(stamp, id)`` order.
    Rows with ``stamp <= t_end`` are due, in that order; the rest are
    carried, back in ascending ``id``.  An empty ``carry`` dict stands
    for no rows.
    """
    rows = {key: np.concatenate((carry[key], col)) for key, col in new.items()} if carry else new
    order = np.argsort(rows["stamp"], kind="stable")
    n_due = int(np.searchsorted(rows["stamp"][order], t_end, side="right"))
    picks = order[:n_due], np.sort(order[n_due:])  # due by (stamp, id); carried by id
    return tuple({key: col[pick] for key, col in rows.items()} for pick in picks)


@dataclass(eq=False, slots=True)
class BatchOrder(Order):
    """An :class:`Order` of the batched feed.  Its ``participant_id`` is
    the participant's population index, an int (the resting key,
    self-trade prevention and the trade sink only compare or hash it),
    and ``symbol_index`` is the other array index its trades settle by,
    so the trade sink never parses it back out of ``symbol``."""

    symbol_index: int = 0  #: position of ``symbol`` in the shard's symbol tuple


class ShardProgram:
    """One shard of the batched run: a symbol subset, its own bulk
    order stream and RNG streams, the carry of not-yet-due rows, and a
    plain :class:`MatchingEngineCore`.

    The per-shard RNG streams are named ``shardrun:<shard>:*`` from the
    run's master seed, so a shard's workload depends on its id, never
    on worker placement or count.
    """

    def __init__(self, config: ShardRunConfig, shard_id: int) -> None:
        self.config = config
        self.shard_id = shard_id
        router = SymbolRouter(default_symbols(config.n_symbols), config.n_shards)
        self.symbols: Tuple[str, ...] = router.symbols_of(shard_id)
        rngs = RngRegistry(config.seed)
        # The shard generates the merged flow of the whole participant
        # population restricted to its symbols: rate is apportioned by
        # symbol share, participants are global array indices.
        shard_rate = (
            config.n_participants
            * config.rate_per_participant_s
            * len(self.symbols)
            / config.n_symbols
        )
        self.stream = BulkOrderStream(
            arrivals_rng=rngs.stream(f"shardrun:{shard_id}:arrivals"),
            fields_rng=rngs.stream(f"shardrun:{shard_id}:fields"),
            n_participants=config.n_participants,
            rate_per_s=shard_rate,
            n_symbols=len(self.symbols),
        )
        self.core = MatchingEngineCore(self.symbols, PortfolioMatrix())
        self.stats = BatchMatchStats()
        self.windows = 0
        self._now = 0  # end of the last window run
        self._carry: Columns = {}  # rows stamped past it (see split_due)
        self._centers = [INITIAL_PRICE] * len(self.symbols)
        # Bucketed settlement: participant pid settles into bucket
        # pid % SHARDRUN_PORTFOLIO_BUCKETS -- per-(bucket, symbol)
        # positions and per-bucket cash, conserved exactly by construction.
        self._bucket_pos = [0] * (SHARDRUN_PORTFOLIO_BUCKETS * len(self.symbols))
        self._bucket_cash = [0] * SHARDRUN_PORTFOLIO_BUCKETS

    # ------------------------------------------------------------------
    # Window protocol
    # ------------------------------------------------------------------
    @collector_paused()
    def run_window(self, index: int, t_end: int, feedback: Optional[Dict[str, Any]]) -> Dict[str, int]:
        """Advance this shard to ``t_end`` and return window tallies."""
        # 1. Pull this window's arrivals.  The past is immutable: a
        # stamp before the window's start fails here, before it could
        # be matched out of order.
        start, _, new = self.stream.take_until(t_end)
        if len(new["stamp"]) and new["stamp"].min() < self._now:
            raise SimulationError(
                f"order stamped at t={new['stamp'].min()} ns; the shard is already at {self._now}"
            )
        new["id"] = np.arange(start, start + len(new["stamp"]))
        self.windows += 1
        self._now = t_end
        # 2. Refresh per-symbol price centers: local last trade price
        # blended 3:1 with the global index from the previous barrier --
        # the cross-shard coupling that makes the sync load-bearing.
        global_index = feedback.get("index") if feedback else None
        last = self.core.last_trade_price
        centers = self._centers
        for j, symbol in enumerate(self.symbols):
            local = last.get(symbol, centers[j])
            centers[j] = local if global_index is None else (3 * local + global_index) // 4
        # 3. Order by stamp, carry what is not due yet, batch-match the rest.
        due, self._carry = split_due(self._carry, new, t_end)
        stats = self.core.process_batch(
            self._build_orders(due), due["stamp"].tolist(), self._on_trade
        )
        self.stats.merge(stats)
        return {
            "orders": stats.orders,
            "trades": stats.trades,
            "volume": stats.traded_qty,
            "value": stats.notional,
        }

    def _build_orders(self, due: Columns) -> List[BatchOrder]:
        """Materialise the due rows' orders from their column slices.

        ``__new__`` plus one store per slot skips ``__init__``'s argument
        binding and ``__post_init__``; a differential test holds the
        result equal to ``BatchOrder(...)`` built from the same rows.
        """
        symbols = self.symbols
        buy, sell = Side.BUY, Side.SELL
        limit_t, market_t = OrderType.LIMIT, OrderType.MARKET
        gtc = TimeInForce.GTC
        prices = np.maximum(np.asarray(self._centers)[due["symbol"]] + due["offset"], 1)
        orders = []
        append = orders.append
        new = BatchOrder.__new__
        for i, j, is_buy, qty, market, price, pid, stamp in zip(
            due["id"].tolist(),
            due["symbol"].tolist(),
            due["side_buy"].tolist(),
            due["qty"].tolist(),
            due["market"].tolist(),
            prices.tolist(),
            due["participant"].tolist(),
            due["stamp"].tolist(),
        ):
            order = new(BatchOrder)
            order.client_order_id = i
            order.participant_id = pid
            order.symbol = symbols[j]
            order.side = buy if is_buy else sell
            order.order_type = market_t if market else limit_t
            order.quantity = qty
            order.limit_price = None if market else price
            order.time_in_force = gtc
            order.gateway_id = "B"
            order.gateway_timestamp = stamp
            order.gateway_seq = i
            order.remaining = qty
            order.submitted_true = -1
            order.stamped_true = stamp
            order.symbol_index = j
            append(order)
        return orders

    def _on_trade(
        self, trade_id: int, price: int, quantity: int, buyer: BatchOrder, seller: BatchOrder,
        aggressor_is_buy: bool, now_local: int,
    ) -> None:
        """The core's trade sink: settle into the per-bucket books."""
        notional = price * quantity
        j = buyer.symbol_index
        buy_bucket = buyer.participant_id % SHARDRUN_PORTFOLIO_BUCKETS
        sell_bucket = seller.participant_id % SHARDRUN_PORTFOLIO_BUCKETS
        pos = self._bucket_pos
        n_symbols = len(self.symbols)
        pos[buy_bucket * n_symbols + j] += quantity
        pos[sell_bucket * n_symbols + j] -= quantity
        cash = self._bucket_cash
        cash[buy_bucket] -= notional
        cash[sell_bucket] += notional

    def finish(self) -> Dict[str, Any]:
        """Final per-shard summary (deterministic fields only)."""
        return {
            "shard": self.shard_id,
            "symbols": len(self.symbols),
            "windows": self.windows,
            "arrivals": self.stream.emitted,
            "unprocessed": len(self._carry.get("id", ())),
            "stats": self.stats.to_dict(),
            "last_prices": {
                symbol: self.core.last_trade_price[symbol]
                for symbol in self.symbols
                if symbol in self.core.last_trade_price
            },
            "net_position": sum(self._bucket_pos),
            "abs_position": sum(abs(p) for p in self._bucket_pos),
            "net_cash": sum(self._bucket_cash),
            "abs_cash": sum(abs(c) for c in self._bucket_cash),
        }


def _make_shard(config: ShardRunConfig, shard_id: int) -> ShardProgram:
    """Module-level factory (picklable for the spawn fallback)."""
    return ShardProgram(config, shard_id)


def run_shardrun(
    config: ShardRunConfig,
    jobs: int = 1,
    timeout_s: float = 600.0,
) -> Dict[str, Any]:
    """Run the batched sharded kernel and return the report document.

    The report contains deterministic fields only -- no wall-clock --
    so serializing it yields byte-identical JSON for equal configs at
    any ``jobs``.
    """
    window_ns = config.lookahead_ns()
    duration_ns = config.duration_ns()
    n_windows = config.n_windows()
    runner = ConservativeShardRunner(
        _make_shard, (config,), config.n_shards, jobs=jobs, timeout_s=timeout_s
    )
    try:
        index = INITIAL_PRICE
        index_path: List[int] = []
        feedback: Dict[str, Any] = {"index": None}
        for w in range(n_windows):
            t_end = min((w + 1) * window_ns, duration_ns)
            results = runner.window(w, t_end, feedback)
            volume = sum(r["volume"] for r in results)
            value = sum(r["value"] for r in results)
            if volume:
                index = value // volume
            index_path.append(index)
            feedback = {"index": index}
        finals = runner.finish()
    finally:
        runner.close()
    totals = BatchMatchStats()
    for final in finals:
        totals.merge(BatchMatchStats(**final["stats"]))
    return {
        "schema": "repro-shardrun/1",
        "config": config.to_dict(),
        "lookahead_ns": window_ns,
        "windows": n_windows,
        "totals": {
            **totals.to_dict(),
            "arrivals": sum(final["arrivals"] for final in finals),
            "unprocessed": sum(final["unprocessed"] for final in finals),
        },
        "index_path": index_path,
        "per_shard": finals,
        "conservation": {
            "net_position": sum(final["net_position"] for final in finals),
            "net_cash": sum(final["net_cash"] for final in finals),
            "abs_position": sum(final["abs_position"] for final in finals),
            "abs_cash": sum(final["abs_cash"] for final in finals),
        },
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_shardrun_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro shardrun",
        description=(
            "Run the batched, sharded matching kernel (conservative-sync "
            "windows, bulk-generated ZI flow) and print throughput.  "
            "--jobs N runs shards in separate processes; the report is "
            "byte-identical to --jobs 1."
        ),
    )
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--participants", type=int, default=100_000)
    parser.add_argument("--symbols", type=int, default=10)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--rate", type=float, default=0.45, help="orders/s per participant")
    parser.add_argument("--duration", type=float, default=0.5, metavar="SECONDS")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (1 = inline)")
    add_json_flag(parser, "emit the deterministic report as JSON")
    return parser


def shardrun_main(argv=None) -> int:
    args = build_shardrun_parser().parse_args(argv)
    try:
        config = ShardRunConfig(
            seed=args.seed,
            n_participants=args.participants,
            n_symbols=args.symbols,
            n_shards=args.shards,
            rate_per_participant_s=args.rate,
            duration_s=args.duration,
        )
        check_jobs(args.jobs)
    except ValueError as exc:
        return usage_error(exc)
    started = _time.perf_counter()
    report = run_shardrun(config, jobs=args.jobs)
    wall_s = _time.perf_counter() - started
    totals = report["totals"]
    orders = totals["orders"]
    print(
        f"shardrun: {config.n_participants} participants, {config.n_symbols} symbols, "
        f"{config.n_shards} shards, jobs={args.jobs}"
    )
    print(
        f"  {report['windows']} windows x {report['lookahead_ns'] / 1e6:.2f} ms lookahead "
        f"over {config.duration_s} s simulated"
    )
    print(
        f"  {orders} orders, {totals['trades']} trades, {totals['traded_qty']} shares "
        f"({totals['unprocessed']} stamped past the horizon)"
    )
    print(f"  wall {wall_s:.2f} s, {orders / wall_s:,.0f} orders/s processed")
    if args.json is not None:
        emit_json(report, args.json)
    return EXIT_OK
