"""The gateway: order handler + hold/release buffer (paper §2.1).

Gateways sit between market participants and the central exchange
server.  The order handler authenticates and validates incoming
orders, assigns each a globally synchronized timestamp (from the
gateway's Huygens-disciplined clock), and forwards it to the engine;
it also routes confirmations back to participants.  Inbound market
data passes through the hold/release buffer, which reports each
piece's hold or lateness on arrival (batched to the engine when an
outbound DDP controller reads reports there, else straight to the
collector) and dispenses it to this gateway's subscribed participants
at its prescribed release time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.auth import AuthRegistry
from repro.core.config import (
    GATEWAY_CPU_PER_REPLICA_US,
    GATEWAY_SERVICE_US,
    HR_REPORT_BATCH,
    HR_REPORT_WAIT_US,
    CloudExConfig,
)
from repro.core.holdrelease import HoldReleaseBuffer
from repro.core.marketdata import MarketDataPiece
from repro.core.messages import (
    CancelRequest,
    HoldReleaseReport,
    MarketDataDelivery,
    NewOrderRequest,
    OrderConfirmation,
    StampedCancel,
    StampedOrder,
    SubscriptionRequest,
    TradeConfirmation,
)
from repro.core.order import Order, OrderValidationError, validate_order
from repro.core.types import OrderStatus, RejectReason
from repro.obs import tracing
from repro.sim.engine import Actor, Event, Simulator
from repro.sim.network import Host, Network
from repro.sim.timeunits import MICROSECOND


class Gateway(Actor):
    """One gateway VM's logic.

    ``tracer`` and ``events`` are the optional observability hooks
    (:mod:`repro.obs`); each defaults to None and costs one
    ``is not None`` test on the paths it instruments.  What the gateway
    counts (``orders_handled``, ``restarts``, the H/R buffer's
    ``late_count``) it keeps as plain ints for the collector to read.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: Host,
        engine_name: str,
        auth: AuthRegistry,
        config: CloudExConfig,
        tracer=None,
        events=None,
        fairness=None,
    ) -> None:
        super().__init__(sim, host.name)
        self.network = network
        self.host = host
        self.auth = auth
        self.config = config
        self.tracer = tracer
        self.events = events
        self.clock = host.clock
        self._to_engine = network.link(host.name, engine_name)
        self._seq = 0
        self._service_ns = int(GATEWAY_SERVICE_US * MICROSECOND)
        self._cpu_per_replica_ns = int(GATEWAY_CPU_PER_REPLICA_US * MICROSECOND)
        self._listed_symbols = frozenset(config.symbols)
        # symbol -> participant host names subscribed through this
        # gateway (dict used as an insertion-ordered set).
        self.subscriptions: Dict[str, Dict[str, None]] = {}
        # H/R report triples queued for the engine, and the timer that
        # sends them HR_REPORT_WAIT_US after the first was queued.
        self._reports: List[Tuple[int, bool, int]] = []
        self._report_timer: Optional[Event] = None
        self._report_wait_ns = int(HR_REPORT_WAIT_US * MICROSECOND)
        # The fairness policy (repro.fairness) decides one thing here:
        # whether a piece that arrives early is held to its release time.
        if fairness is None:
            from repro.fairness import make_policy

            fairness = make_policy(config)
        self.hr_buffer = HoldReleaseBuffer(
            sim=sim,
            clock=self.clock,
            gateway_id=self.name,
            release=self._dispense_market_data,
            report=self._queue_report,
            events=events,
            hold_early=fairness.hold_early_pieces,
            subscribers=self.subscriptions,
        )
        self.orders_handled = 0
        self.orders_rejected = 0
        self.restarts = 0
        host.bind(self)

    # ------------------------------------------------------------------
    # Crash recovery (repro.chaos)
    # ------------------------------------------------------------------
    def rejoin(self) -> None:
        """Recover after a crash window (the host is already back up).

        A restarted gateway process lost its in-memory state: held
        market data is discarded (each piece was reported when it
        arrived; only this gateway's subscribers miss it), so are the
        report triples still queued for the engine (their pieces close
        partial, as a dropped report's do), and the stamping sequence
        continues monotonically -- correctness for in-flight orders
        rests on participants retrying and the engine's ROS dedup
        answering retries idempotently, not on this gateway recovering
        anything.
        """
        flushed = self.hr_buffer.flush()
        self._drop_reports()
        self.restarts += 1
        if self.events is not None:
            from repro.obs.events import Severity

            self.events.emit(
                self.sim.now, Severity.WARNING, self.name, "chaos.gateway_rejoin",
                f"gateway rejoined; flushed {flushed} held md pieces",
                flushed_pieces=flushed,
            )

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, msg, sender: str) -> None:
        if isinstance(msg, NewOrderRequest):
            self._handle_order(msg)
        elif isinstance(msg, CancelRequest):
            self._handle_cancel(msg)
        elif isinstance(msg, (OrderConfirmation, TradeConfirmation)):
            self._forward_to_participant(msg)
        elif isinstance(msg, MarketDataPiece):
            self.hr_buffer.offer(msg)
        elif isinstance(msg, SubscriptionRequest):
            self._handle_subscription(msg)
        else:
            super().on_message(msg, sender)

    # ------------------------------------------------------------------
    # Order handler (Fig. 2 steps 1-2, 4-5)
    # ------------------------------------------------------------------
    def _handle_order(self, request: NewOrderRequest) -> None:
        self.host.cpu.charge(self._cpu_per_replica_ns)
        order = request.order
        if not self.auth.verify(order.participant_id, request.auth_token):
            self._reject_locally(order, RejectReason.BAD_CREDENTIALS)
            return
        try:
            validate_order(order, known_symbols=self._listed_symbols)
        except OrderValidationError as exc:
            self._reject_locally(order, exc.reason)
            return
        self.orders_handled += 1
        self._seq += 1
        stamped = order.stamped_clone(
            gateway_id=self.name,
            gateway_timestamp=self.clock.now(),
            gateway_seq=self._seq,
            stamped_true=self.sim.now,
        )
        if self.tracer is not None:
            self.tracer.span(
                order.participant_id,
                order.client_order_id,
                tracing.GW_INGRESS,
                self.sim.now,
                stamped.gateway_timestamp,
                self.name,
            )
        # The handler's processing time separates stamping (at arrival)
        # from forwarding.
        self.sim.schedule(self._service_ns, self._forward_order, stamped)

    def _forward_order(self, stamped: Order) -> None:
        self._to_engine.send(StampedOrder(order=stamped))

    def _reject_locally(self, order: Order, reason: RejectReason) -> None:
        """Gateway-side rejection: never reaches the matching engine."""
        self.orders_rejected += 1
        confirmation = OrderConfirmation(
            participant_id=order.participant_id,
            client_order_id=order.client_order_id,
            symbol=order.symbol,
            status=OrderStatus.REJECTED,
            filled=0,
            remaining=order.quantity,
            engine_timestamp=self.clock.now(),
            reason=reason,
        )
        self.network.send(self.name, order.participant_id, confirmation)

    def _handle_cancel(self, request: CancelRequest) -> None:
        self.host.cpu.charge(self._cpu_per_replica_ns)
        if not self.auth.verify(request.participant_id, request.auth_token):
            # A forged cancel is silently dropped: confirming anything
            # to an unauthenticated sender would leak order state.
            return
        self._seq += 1
        stamped = StampedCancel(
            participant_id=request.participant_id,
            client_order_id=request.client_order_id,
            symbol=request.symbol,
            gateway_id=self.name,
            gateway_timestamp=self.clock.now(),
            gateway_seq=self._seq,
            stamped_true=self.sim.now,
        )
        self.sim.schedule(self._service_ns, self._to_engine.send, stamped)

    # ------------------------------------------------------------------
    # Confirmation routing (engine -> participant)
    # ------------------------------------------------------------------
    def _forward_to_participant(self, confirmation) -> None:
        """Order confirmations forward immediately (Fig. 2 step 5);
        trade confirmations are held to their release time (step 7)."""
        release_at = getattr(confirmation, "release_at", None)
        if release_at is not None and release_at > self.clock.now():
            if self.tracer is not None:
                self.tracer.span(
                    confirmation.participant_id,
                    confirmation.client_order_id,
                    tracing.HR_HOLD,
                    self.sim.now,
                    self.clock.now(),
                    self.name,
                )
            self.clock.schedule_at_local(release_at, self._release_held, confirmation)
            return
        self.network.send(self.name, confirmation.participant_id, confirmation)

    def _release_held(self, confirmation) -> None:
        """Dispatch a held trade confirmation at its release time."""
        if self.tracer is not None:
            self.tracer.span(
                confirmation.participant_id,
                confirmation.client_order_id,
                tracing.MD_RELEASE,
                self.sim.now,
                self.clock.now(),
                self.name,
            )
        self.network.send(self.name, confirmation.participant_id, confirmation)

    # ------------------------------------------------------------------
    # Market data (H/R buffer -> subscribers)
    # ------------------------------------------------------------------
    def _handle_subscription(self, request: SubscriptionRequest) -> None:
        for symbol in request.symbols:
            # dict-as-ordered-set: deterministic dispense order.
            self.subscriptions.setdefault(symbol, {})[request.participant_id] = None

    def _dispense_market_data(self, piece: MarketDataPiece, released_local: int) -> None:
        subscribers = self.subscriptions.get(piece.symbol)
        if not subscribers:
            return  # most (gateway, symbol) pairs: nobody here to deliver to
        delivery = MarketDataDelivery(piece=piece, released_local=released_local)
        for participant in subscribers:
            self.network.send(self.name, participant, delivery)

    def _queue_report(self, md_seq: int, late: bool, hold_ns: int) -> None:
        """Queue one piece's report; send the batch when it is full, and
        arm the wait timer when it is the first."""
        reports = self._reports
        reports.append((md_seq, late, hold_ns))
        if len(reports) >= HR_REPORT_BATCH:
            self._send_reports()
        elif self._report_timer is None:
            self._report_timer = self.sim.schedule(self._report_wait_ns, self._send_reports)

    def _send_reports(self) -> None:
        """Send every queued triple to the engine as one message."""
        batch = HoldReleaseReport(self.name, tuple(self._reports))
        self._drop_reports()
        self._to_engine.send(batch)

    def _drop_reports(self) -> None:
        """Forget the queued triples and cancel their timer."""
        self._reports.clear()
        if self._report_timer is not None:
            self._report_timer.cancel()
            self._report_timer = None

    def settle_reports_into(self, record) -> None:
        """Hand each report to ``record(md_seq, late, hold_ns)`` at
        arrival instead of batching it to the engine (wired when no
        outbound DDP controller reads reports there).  The report is then
        a measurement, not traffic: it takes no link draw, and no fault
        on the link to the engine touches it."""
        self.hr_buffer.report = record

    def __repr__(self) -> str:
        return f"Gateway({self.name!r}, handled={self.orders_handled})"
