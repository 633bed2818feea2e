"""The central exchange server: sequencers, shards, dissemination.

One :class:`CentralExchangeServer` actor runs on the engine host and
contains, per Fig. 1:

- an ingress stage (single core) that receives stamped order replicas,
  deduplicates ROS replicas (earliest wins, duplicates still cost
  ingress service -- the Fig. 6a RF>3 degradation), and routes orders
  to shards by symbol;
- per shard, a :class:`~repro.core.sequencer.Sequencer` (the order
  priority queue with hold delay ``d_s``) and a
  :class:`~repro.core.matching.MatchingEngineCore`;
- a single global *portfolio lock* (:class:`~repro.sim.cpu.CorePool`
  with one core): every order's settlement passes through it, so
  throughput stops scaling once the lock saturates -- Table 1's
  plateau arises mechanically;
- the market-data publisher, which stamps every piece with a release
  time ``t_R = t_M + d_h`` and fans it out to subscribed gateways;
- optional DDP controllers tuning ``d_s`` and ``d_h`` from live
  unfairness samples.

Timing model per order: ingress service -> sequencer hold -> shard
book work (``BOOK_SERVICE_US``, one order at a time per shard) ->
portfolio critical section (``LOCK_SERVICE_US``, one order at a time
globally).  A shard does not start its next order until the current
one clears the lock, modelling a shard thread that blocks on the
shared-structure mutex.  There is one shard class and one way out of
it: :meth:`EngineShard._finalize` hands every order to
``_emit_order_result`` and every cancel to ``_emit_cancel_result``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import (
    BOOK_SERVICE_CV,
    BOOK_SERVICE_US,
    DDP_MAX_DELAY_US,
    ENGINE_CPU_PER_ORDER_US,
    ENGINE_CPU_PER_REPLICA_US,
    INGRESS_SERVICE_US,
    LOCK_SERVICE_CV,
    LOCK_SERVICE_US,
    CloudExConfig,
)
from repro.core.ddp import DdpController
from repro.core.marketdata import MarketDataPiece, TradeRecord
from repro.core.matching import MatchingEngineCore, MatchResult
from repro.core.messages import (
    HoldReleaseReport,
    StampedCancel,
    StampedOrder,
)
from repro.core.metrics import MetricsCollector
from repro.core.order import Order
from repro.obs import events as obs_events
from repro.obs import tracing
from repro.core.portfolio import PortfolioMatrix
from repro.core.ros import RosDeduplicator
from repro.core.sequencer import Sequencer, SequencerSample
from repro.core.sharding import SymbolRouter
from repro.core.types import OrderStatus
from repro.sim.cpu import CorePool
from repro.sim.engine import Actor, Simulator
from repro.sim.network import Host, Network
from repro.sim.rng import DRAW_BLOCK, block_stream
from repro.sim.timeunits import MICROSECOND

#: Items flowing through a sequencer: ("order", Order) or ("cancel", StampedCancel).
_SequencedItem = Tuple[str, object]


class EngineShard:
    """One matching-engine shard: its own sequencer, books, and a
    serially-blocking processing loop."""

    def __init__(
        self,
        sim: Simulator,
        server: "CentralExchangeServer",
        shard_id: int,
        symbols: Tuple[str, ...],
        portfolio: PortfolioMatrix,
        trade_ids,
    ) -> None:
        self.sim = sim
        self.server = server
        self.shard_id = shard_id
        self.core = MatchingEngineCore(
            symbols,
            portfolio,
            trade_id_counter=trade_ids,
            self_trade_prevention=server.config.self_trade_prevention,
        )
        self.sequencer = server._build_sequencer(self._maybe_start)
        self._book_times = server.book_times
        self._lock_times = server.lock_times
        self._busy = False
        self._backlog: Deque[_SequencedItem] = deque()

    # ------------------------------------------------------------------
    # Serial processing loop (pull model: the shard dequeues from its
    # sequencer whenever it goes idle, so backlog sits in the priority
    # queue -- timestamp-sorted -- not in a FIFO)
    # ------------------------------------------------------------------
    def _maybe_start(self) -> None:
        if self._busy:
            return
        item = self.sequencer.pop_eligible()
        if item is not None:
            self._begin(item)

    def _begin(self, item: _SequencedItem) -> None:
        self._busy = True
        self.sim.schedule(next(self._book_times), self._book_done, item)

    def _book_done(self, item: _SequencedItem) -> None:
        # Queue for the global portfolio lock; the shard stays blocked.
        self.server.lock_pool.submit(next(self._lock_times), self._finalize, item)

    def _finalize(self, item: _SequencedItem) -> None:
        kind, payload = item
        now_local = self.server.clock.now()
        if kind == "order":
            assert isinstance(payload, Order)
            result = self.core.process_order(payload, now_local)
            self.server._emit_order_result(payload, result)
        else:
            assert isinstance(payload, StampedCancel)
            confirmation = self.core.process_cancel(payload, now_local)
            self.server._emit_cancel_result(payload, confirmation)
        self._busy = False
        self._maybe_start()

    def backlog_size(self) -> int:
        """Eligible-or-held orders waiting in this shard's sequencer."""
        return self.sequencer.pending()

    def __repr__(self) -> str:
        return f"EngineShard({self.shard_id}, symbols={len(self.core.books)})"


class CentralExchangeServer(Actor):
    """The engine actor bound to the engine host."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: Host,
        config: CloudExConfig,
        router: SymbolRouter,
        portfolio: PortfolioMatrix,
        metrics: MetricsCollector,
        gateway_names: Sequence[str],
        trade_sink: Optional[Callable[[TradeRecord, int], None]] = None,
        snapshot_sink: Optional[Callable[[object, int], None]] = None,
        tracer=None,
        events=None,
        fairness=None,
    ) -> None:
        super().__init__(sim, host.name)
        self.network = network
        self.host = host
        self.config = config
        # The fairness policy supplies each shard's sequencer rule and
        # the two initial holds; the cluster builder shares one
        # instance with the gateways.
        if fairness is None:
            from repro.fairness import make_policy

            fairness = make_policy(config)
        self.fairness = fairness
        self.router = router
        self.portfolio = portfolio
        self.metrics = metrics
        self.trade_sink = trade_sink
        self.snapshot_sink = snapshot_sink
        self.tracer = tracer
        self.events = events
        self.clock = host.clock
        self.rng = network.rngs.stream("engine:service")
        self.book_times = self._service_times(BOOK_SERVICE_US, BOOK_SERVICE_CV)
        self.lock_times = self._service_times(LOCK_SERVICE_US, LOCK_SERVICE_CV)
        # Critical-path pools track their own utilization; Fig. 6b CPU
        # accounting is charged separately on host.cpu.
        self.ingress = CorePool(sim, 1)
        self.lock_pool = CorePool(sim, 1)
        self._ingress_service_ns = int(INGRESS_SERVICE_US * MICROSECOND)
        self._cpu_per_replica_ns = int(ENGINE_CPU_PER_REPLICA_US * MICROSECOND)
        self._cpu_per_order_ns = int(ENGINE_CPU_PER_ORDER_US * MICROSECOND)

        self.dedup = RosDeduplicator(ttl_ns=config.ros_dedup_ttl_ns)
        # Crash-safe recovery (repro.chaos): when participants retry on
        # ack timeout, a duplicate replica may mean "the confirmation
        # was lost with a crashed gateway" -- remember results and
        # replay them instead of dropping the duplicate silently.  Off
        # (and zero-cost beyond the flag test) when retries are off, so
        # RF > 1 duplicate replicas keep their seed behaviour.
        self._replay_confirmations = config.ack_timeout_ms is not None
        self.confirmations_replayed = 0
        # Optional repro.chaos.invariants hooks: called with each
        # admitted order / executed trade.  None costs one test.
        self.admit_listener: Optional[Callable[[Order], None]] = None
        self.trade_listener: Optional[Callable[[TradeRecord], None]] = None
        trade_ids = itertools.count(1)
        self.shards = [
            EngineShard(sim, self, shard_id, symbols, portfolio, trade_ids)
            for shard_id, symbols in enumerate(router.partition())
        ]

        self.d_h = self.fairness.engine_hold_ns(config, network.rngs)
        self._md_seq = itertools.count(1)
        # Market data goes to *every* gateway: simultaneous release
        # requires every H/R buffer to hold the piece, and the
        # outbound-unfairness statistic is "late at >= 1 gateway".
        self._md_gateways: List[str] = list(gateway_names)
        # participant -> gateway for confirmation routing.
        self._primary_gateway: Dict[str, str] = {}
        self._confirm_gateway: Dict[str, str] = {}

        self.ddp_inbound: Optional[DdpController] = None
        self.ddp_outbound: Optional[DdpController] = None
        if config.ddp_inbound_target is not None:
            self.ddp_inbound = DdpController(
                target_ratio=config.ddp_inbound_target,
                initial_delay_ns=config.sequencer_delay_ns,
                window=config.ddp_window,
                max_delay_ns=int(DDP_MAX_DELAY_US * MICROSECOND),
                update_every_samples=config.ddp_update_every,
                apply=self._apply_sequencer_delay,
            )
        if config.ddp_outbound_target is not None:
            self.ddp_outbound = DdpController(
                target_ratio=config.ddp_outbound_target,
                initial_delay_ns=config.holdrelease_delay_ns,
                window=config.ddp_window,
                max_delay_ns=int(DDP_MAX_DELAY_US * MICROSECOND),
                update_every_samples=config.ddp_update_every,
                apply=self._apply_holdrelease_delay,
            )

        host.bind(self)
        self._started = False

    # ------------------------------------------------------------------
    # Wiring (called by the cluster builder)
    # ------------------------------------------------------------------
    def register_participant(self, participant_id: str, primary_gateway: str) -> None:
        """Record the confirmation-routing default for a participant."""
        self._primary_gateway[participant_id] = primary_gateway

    def _service_times(self, mean_us: float, cv: float) -> Iterator[int]:
        """Endless gamma service times (>= 1 ns) with this mean and CV, one
        run of blocks that every shard reads; the bare mean at CV zero."""
        mean_ns = int(mean_us * MICROSECOND)
        if cv <= 0.0:
            return itertools.repeat(mean_ns)
        shape = 1.0 / (cv * cv)
        scale, rng = mean_ns / shape, self.rng
        return block_stream(
            lambda: np.maximum(1, rng.gamma(shape, scale, size=DRAW_BLOCK).astype(np.int64)).tolist()
        )

    def _build_sequencer(self, on_eligible: Callable[[], None]) -> Sequencer:
        """One shard's inbound queue, as the fairness policy rules it."""
        rank, guard = self.fairness.shard_rule(self.config)
        return Sequencer(
            sim=self.sim,
            clock=self.clock,
            on_eligible=on_eligible,
            delay_ns=self.fairness.inbound_hold_ns(self.config, self.network.rngs),
            on_sample=self._on_sequencer_sample,
            on_release=self._on_sequencer_release if self.tracer is not None else None,
            rank=rank,
            guard=guard,
        )

    def start(self) -> None:
        """Begin periodic work (book snapshots).  Idempotent."""
        if self._started:
            return
        self._started = True
        if self.config.snapshot_interval_ns > 0:
            self.sim.schedule(self.config.snapshot_interval_ns, self._snapshot_tick)

    # ------------------------------------------------------------------
    # DDP applications
    # ------------------------------------------------------------------
    def _apply_sequencer_delay(self, delay_ns: int) -> None:
        for shard in self.shards:
            shard.sequencer.set_delay(delay_ns)
        if self.events is not None:
            self.events.emit(
                self.sim.now, obs_events.Severity.INFO, self.name, "ddp.d_s",
                f"sequencer delay set to {delay_ns} ns", delay_ns=delay_ns,
            )

    def _apply_holdrelease_delay(self, delay_ns: int) -> None:
        self.d_h = delay_ns
        if self.events is not None:
            self.events.emit(
                self.sim.now, obs_events.Severity.INFO, self.name, "ddp.d_h",
                f"hold/release delay set to {delay_ns} ns", delay_ns=delay_ns,
            )

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, msg, sender: str) -> None:
        if isinstance(msg, StampedOrder):
            self._on_order_replica(msg.order)
        elif isinstance(msg, StampedCancel):
            self._on_cancel(msg)
        elif isinstance(msg, HoldReleaseReport):
            self._on_hr_report(msg)
        else:
            super().on_message(msg, sender)

    # ------------------------------------------------------------------
    # Ingress: dedup + routing
    # ------------------------------------------------------------------
    def _on_order_replica(self, order: Order) -> None:
        self.metrics.replicas_received += 1
        self.host.cpu.charge(self._cpu_per_replica_ns)
        self.ingress.submit(self._ingress_service_ns, self._ingress_done, order)

    def _ingress_done(self, order: Order) -> None:
        key = (order.participant_id, order.client_order_id)
        if not self.dedup.admit(key, order.gateway_id, self.clock.now()):
            if self.tracer is not None:
                # Losing replica: recorded so ROS critical-path
                # attribution can report the winner's margin.
                self.tracer.span(
                    order.participant_id, order.client_order_id, tracing.ROS_DEDUP,
                    self.sim.now, self.clock.now(), self.name, detail=order.gateway_id,
                )
            if self._replay_confirmations:
                # A duplicate under the retry regime may be a resend
                # whose original confirmation died with a gateway:
                # answer it through the replica's (live) gateway.
                replay = self.dedup.result(key)
                if replay is not None and order.gateway_id:
                    self.confirmations_replayed += 1
                    self.network.send(self.name, order.gateway_id, replay)
            return
        if self.admit_listener is not None:
            self.admit_listener(order)
        if self.tracer is not None:
            # First replica through ingress: the winner (detail carries
            # the gateway whose replica won).
            self.tracer.span(
                order.participant_id, order.client_order_id, tracing.ROS_DEDUP,
                self.sim.now, self.clock.now(), self.name, detail=order.gateway_id,
            )
        self.metrics.record_engine_receipt(
            order.participant_id, order.client_order_id, self.sim.now
        )
        self._confirm_gateway[order.participant_id] = order.gateway_id
        shard = self.shards[self.router.shard_of(order.symbol)]
        shard.sequencer.enqueue(order.priority_key(), ("order", order), order.stamped_true)

    def _on_cancel(self, cancel: StampedCancel) -> None:
        self.host.cpu.charge(self._cpu_per_replica_ns)
        self.ingress.submit(self._ingress_service_ns, self._cancel_ingress_done, cancel)

    def _cancel_ingress_done(self, cancel: StampedCancel) -> None:
        shard = self.shards[self.router.shard_of(cancel.symbol)]
        shard.sequencer.enqueue(cancel.priority_key(), ("cancel", cancel), cancel.stamped_true)

    # ------------------------------------------------------------------
    # Sequencer feedback
    # ------------------------------------------------------------------
    def _on_sequencer_sample(self, sample: SequencerSample) -> None:
        self.metrics.record_sequencer_sample(sample)
        if self.ddp_inbound is not None:
            self.ddp_inbound.on_sample(sample.out_of_sequence)

    def _on_sequencer_release(self, item: _SequencedItem, eligible_local: int) -> None:
        """Tracer hook: an item left a shard's sequencer (end of d_s hold).

        ``eligible_local`` (when the hold expired) can precede the
        dequeue when the shard was busy; it rides in ``detail`` so the
        trace can split pure d_s hold from engine-busy queueing.
        """
        kind, payload = item
        if kind != "order":
            return
        self.tracer.span(
            payload.participant_id, payload.client_order_id, tracing.SEQ_HOLD,
            self.sim.now, self.clock.now(), self.name,
            detail=f"eligible_local={eligible_local}",
        )

    # ------------------------------------------------------------------
    # Results and dissemination
    # ------------------------------------------------------------------
    def _emit_order_result(self, order: Order, result: MatchResult) -> None:
        self.host.cpu.charge(self._cpu_per_order_ns)
        self.metrics.orders_matched += 1
        if self.tracer is not None:
            self.tracer.span(
                order.participant_id, order.client_order_id, tracing.MATCH,
                self.sim.now, self.clock.now(), self.name,
                detail=str(result.confirmation.status),
            )
        if result.confirmation.status is OrderStatus.REJECTED:
            self.metrics.rejects += 1
        if self._replay_confirmations:
            self.dedup.record_result(
                (order.participant_id, order.client_order_id), result.confirmation
            )
        gateway = order.gateway_id or self._primary_gateway.get(order.participant_id)
        if gateway is not None:
            self.network.send(self.name, gateway, result.confirmation)
        for cancelled in result.stp_cancels:
            self._route_to_participant(
                MatchingEngineCore.confirm(cancelled, OrderStatus.CANCELLED, self.clock.now())
            )
        self._emit_trades(result.trades, result.trade_confirmations)

    def _emit_trades(self, trades, trade_confirmations) -> None:
        """Route trade confirmations, persist, and disseminate trades.

        Each confirmation is stamped with the same release time as the
        trade's market-data piece (Fig. 2 step 7): the counterparty
        learns of the fill when the market does, not earlier.
        """
        self.metrics.trades_executed += len(trades)
        now_local = self.clock.now()
        release_at = now_local + self.d_h
        for trade_conf in trade_confirmations:
            trade_conf.release_at = release_at
            self._route_to_participant(trade_conf)
        for trade in trades:
            if self.trade_listener is not None:
                self.trade_listener(trade)
            if self.trade_sink is not None:
                self.trade_sink(trade, now_local)
            self._publish(trade.symbol, trade)

    def _emit_cancel_result(self, cancel: StampedCancel, confirmation) -> None:
        self.host.cpu.charge(self._cpu_per_order_ns)
        if self.tracer is not None:
            self.tracer.span(
                cancel.participant_id, cancel.client_order_id, tracing.CANCEL,
                self.sim.now, self.clock.now(), self.name,
                detail=str(confirmation.status),
            )
        self.network.send(self.name, cancel.gateway_id, confirmation)

    def _route_to_participant(self, confirmation) -> None:
        participant = confirmation.participant_id
        gateway = self._confirm_gateway.get(participant) or self._primary_gateway.get(participant)
        if gateway is not None:
            self.network.send(self.name, gateway, confirmation)

    def _publish(self, symbol: str, payload) -> None:
        now_local = self.clock.now()
        piece = MarketDataPiece(
            seq=next(self._md_seq),
            symbol=symbol,
            payload=payload,
            created_local=now_local,
            release_at=now_local + self.d_h,
        )
        self.metrics.register_md_piece(piece.seq, len(self._md_gateways))
        # One piece fans out to every MD gateway: bulk-schedule the
        # train (bit-identical to a send loop, one heap pass).
        self.network.send_many(
            self.name, [(gateway, piece) for gateway in self._md_gateways]
        )

    def _snapshot_tick(self) -> None:
        now_local = self.clock.now()
        for symbol in self.router.symbols:
            shard = self.shards[self.router.shard_of(symbol)]
            snapshot = shard.core.snapshot(symbol, now_local)
            if self.snapshot_sink is not None:
                self.snapshot_sink(snapshot, now_local)
            self._publish(symbol, snapshot)
        self.sim.schedule(self.config.snapshot_interval_ns, self._snapshot_tick)

    # ------------------------------------------------------------------
    # Market-data plumbing
    # ------------------------------------------------------------------
    def _on_hr_report(self, batch: HoldReleaseReport) -> None:
        """Feed a gateway's report triples, in order, to the collector
        and each finalized piece's unfair flag to outbound DDP."""
        record, ddp = self.metrics.record_md_report, self.ddp_outbound
        for md_seq, late, hold_ns in batch.reports:
            finalized = record(md_seq, late, hold_ns)
            if finalized is not None and ddp is not None:
                ddp.on_sample(finalized)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def current_sequencer_delay_ns(self) -> int:
        return self.shards[0].sequencer.delay_ns

    def pending_orders(self) -> int:
        """Orders held in the shards' sequencers."""
        return sum(s.sequencer.pending() for s in self.shards)

    def __repr__(self) -> str:
        return f"CentralExchangeServer(shards={len(self.shards)}, d_h={self.d_h}ns)"
