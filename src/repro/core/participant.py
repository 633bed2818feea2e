"""Market participants and their API.

Paper §2.1: each participant owns a VM connected to (with ROS, several
of) the gateways, with APIs to (1) submit orders and receive order and
trade confirmations, (2) subscribe to real-time market data streams,
and (3) query historical market data from long-term cloud storage.

:class:`Participant` is the client library + VM in one actor.  Trading
logic plugs in as a strategy object (see :mod:`repro.traders`); the
participant invokes its callbacks on confirmations, trades, and market
data, and exposes ``submit_limit`` / ``submit_market`` / ``cancel`` /
``subscribe`` / ``query_trades``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.config import CloudExConfig
from repro.core.marketdata import BookSnapshot, TradeRecord
from repro.core.messages import (
    CancelRequest,
    MarketDataDelivery,
    NewOrderRequest,
    OrderConfirmation,
    SubscriptionRequest,
    TradeConfirmation,
)
from repro.core.metrics import MetricsCollector
from repro.core.order import ClientOrderIdAllocator, Order
from repro.core.types import OrderStatus, OrderType, Price, Quantity, Side, Symbol, TimeInForce
from repro.obs import tracing
from repro.obs.events import Severity
from repro.sim.engine import Actor, Event, Simulator
from repro.sim.network import Host, Network
from repro.sim.timeunits import MICROSECOND


@dataclass
class MarketView:
    """The participant's local, possibly stale picture of one symbol."""

    symbol: Symbol
    last_trade_price: Optional[Price] = None
    best_bid: Optional[Price] = None
    best_ask: Optional[Price] = None
    last_update_local: int = -1

    @property
    def reference_price(self) -> Optional[Price]:
        """Best available price estimate: last trade, else book mid."""
        if self.last_trade_price is not None:
            return self.last_trade_price
        if self.best_bid is not None and self.best_ask is not None:
            return (self.best_bid + self.best_ask) // 2
        return self.best_bid if self.best_bid is not None else self.best_ask


@dataclass
class _PendingAck:
    """An order awaiting its confirmation under the ack-timeout regime."""

    order: Order
    attempts: int
    timer: Event


class Participant(Actor):
    """One market participant VM plus its exchange client library.

    Parameters
    ----------
    gateways:
        This participant's gateway names, primary first.  Orders fan
        out to the first ``replication_factor`` of them (ROS);
        subscriptions and cancels go through the primary only.
    history_client:
        Optional :class:`repro.storage.query.HistoricalDataClient` for
        the historical market-data API.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: Host,
        gateways: Sequence[str],
        auth_token: str,
        config: CloudExConfig,
        metrics: MetricsCollector,
        id_allocator: ClientOrderIdAllocator,
        history_client=None,
        tracer=None,
        events=None,
    ) -> None:
        super().__init__(sim, host.name)
        if not gateways:
            raise ValueError(f"participant {host.name!r} needs at least one gateway")
        if config.replication_factor > len(gateways):
            raise ValueError(
                f"participant {host.name!r} has {len(gateways)} gateways but "
                f"replication factor is {config.replication_factor}"
            )
        self.network = network
        self.host = host
        self.gateways = list(gateways)
        self.auth_token = auth_token
        self.config = config
        self.metrics = metrics
        self.ids = id_allocator
        self.history = history_client
        self.tracer = tracer
        self.events = events
        self.strategy = None
        self._cpu_per_replica_ns = int(config.participant_cpu_per_replica_us * MICROSECOND)

        self.market: Dict[Symbol, MarketView] = {}
        #: client_order_id -> Order as submitted (pre-stamping).
        self.working: Dict[int, Order] = {}
        self.orders_submitted = 0
        self.confirmations_received = 0
        self.trades_received = 0
        self.md_received = 0
        # Ack-timeout reaction path (repro.chaos).  None disables it
        # entirely: submit/confirm then pay one `is not None` test.
        self._ack_timeout_ns = config.ack_timeout_ns
        self._pending_acks: Dict[int, _PendingAck] = {}
        self._consecutive_timeouts = 0
        self.retries_sent = 0
        self.failovers = 0
        self.orders_abandoned = 0
        host.bind(self)

    # ------------------------------------------------------------------
    # API (1): order submission
    # ------------------------------------------------------------------
    @property
    def primary_gateway(self) -> str:
        return self.gateways[0]

    def submit_order(
        self,
        symbol: Symbol,
        side: Side,
        quantity: Quantity,
        order_type: OrderType,
        limit_price: Optional[Price] = None,
        time_in_force: TimeInForce = TimeInForce.GTC,
    ) -> int:
        """Submit an order through ``replication_factor`` gateways (ROS).

        Returns the client order id.  All replicas share it; the engine
        processes the earliest-arriving replica and drops the rest.
        """
        order = Order(
            client_order_id=self.ids.next_id(),
            participant_id=self.name,
            symbol=symbol,
            side=side,
            order_type=order_type,
            quantity=quantity,
            limit_price=limit_price,
            time_in_force=time_in_force,
            submitted_true=self.sim.now,
        )
        self.working[order.client_order_id] = order
        self.orders_submitted += 1
        self.metrics.record_submission(self.name, order.client_order_id, self.sim.now)
        if self.tracer is not None:
            self.tracer.begin_order(
                self.name, order.client_order_id, symbol,
                self.sim.now, self.host.clock.now(), self.name,
            )
        request = NewOrderRequest(order=order, auth_token=self.auth_token)
        for gateway in self.gateways[: self.config.replication_factor]:
            self.host.cpu.charge("tx", self._cpu_per_replica_ns)
            self.network.send(self.name, gateway, request)
        if self._ack_timeout_ns is not None:
            timer = self.sim.schedule(
                self._ack_timeout_ns, self._on_ack_timeout, order.client_order_id
            )
            self._pending_acks[order.client_order_id] = _PendingAck(
                order=order, attempts=0, timer=timer
            )
        return order.client_order_id

    # ------------------------------------------------------------------
    # Ack timeout, retry, and gateway failover (repro.chaos)
    # ------------------------------------------------------------------
    def _on_ack_timeout(self, client_order_id: int) -> None:
        pending = self._pending_acks.get(client_order_id)
        if pending is None:
            return
        self._consecutive_timeouts += 1
        if (
            self.config.gateway_failover
            and len(self.gateways) > 1
            and self._consecutive_timeouts >= self.config.failover_after_timeouts
        ):
            self._fail_over()
        if pending.attempts >= self.config.ack_max_retries:
            # Out of retries: give the order up *loudly*.  The chaos
            # report surfaces abandoned orders as findings.
            del self._pending_acks[client_order_id]
            self.orders_abandoned += 1
            if self.events is not None:
                self.events.emit(
                    self.sim.now, Severity.ERROR, self.name, "chaos.order_abandoned",
                    f"order {client_order_id} unconfirmed after "
                    f"{pending.attempts} retries",
                    client_order_id=client_order_id,
                )
            return
        pending.attempts += 1
        self.retries_sent += 1
        request = NewOrderRequest(order=pending.order, auth_token=self.auth_token)
        for gateway in self.gateways[: self.config.replication_factor]:
            self.host.cpu.charge("tx", self._cpu_per_replica_ns)
            self.network.send(self.name, gateway, request)
        backoff_ns = int(
            self._ack_timeout_ns * self.config.ack_retry_backoff ** pending.attempts
        )
        pending.timer = self.sim.schedule(
            backoff_ns, self._on_ack_timeout, client_order_id
        )

    def _fail_over(self) -> None:
        """Demote the primary gateway: rotate the replica list and move
        subscriptions to the new primary."""
        old_primary = self.gateways[0]
        self.gateways = self.gateways[1:] + self.gateways[:1]
        self._consecutive_timeouts = 0
        self.failovers += 1
        if self.events is not None:
            self.events.emit(
                self.sim.now, Severity.WARNING, self.name, "chaos.failover",
                f"failed over from {old_primary} to {self.gateways[0]}",
                old_primary=old_primary, new_primary=self.gateways[0],
            )
        # Market data flowed through the old primary's H/R buffer;
        # re-subscribe through the new one.
        symbols = tuple(self.market)
        if symbols:
            self.network.send(
                self.name,
                self.primary_gateway,
                SubscriptionRequest(participant_id=self.name, symbols=symbols),
            )

    def submit_limit(
        self,
        symbol: Symbol,
        side: Side,
        quantity: Quantity,
        price: Price,
        time_in_force: TimeInForce = TimeInForce.GTC,
    ) -> int:
        """Convenience wrapper for a limit order."""
        return self.submit_order(
            symbol, side, quantity, OrderType.LIMIT, price, time_in_force
        )

    def submit_market(self, symbol: Symbol, side: Side, quantity: Quantity) -> int:
        """Convenience wrapper for a market order."""
        return self.submit_order(symbol, side, quantity, OrderType.MARKET)

    def cancel(self, client_order_id: int, symbol: Symbol) -> None:
        """Request cancellation of a working order (via the primary)."""
        self.host.cpu.charge("tx", self._cpu_per_replica_ns)
        self.network.send(
            self.name,
            self.primary_gateway,
            CancelRequest(
                participant_id=self.name,
                client_order_id=client_order_id,
                symbol=symbol,
                auth_token=self.auth_token,
            ),
        )

    # ------------------------------------------------------------------
    # API (2): market data subscription
    # ------------------------------------------------------------------
    def subscribe(self, symbols: Sequence[Symbol]) -> None:
        """Subscribe to real-time market data for ``symbols``."""
        for symbol in symbols:
            self.view(symbol)
        self.network.send(
            self.name,
            self.primary_gateway,
            SubscriptionRequest(participant_id=self.name, symbols=tuple(symbols)),
        )

    def view(self, symbol: Symbol) -> MarketView:
        """Current local market view for ``symbol`` (creates if absent)."""
        view = self.market.get(symbol)
        if view is None:
            view = self.market[symbol] = MarketView(symbol=symbol)
        return view

    # ------------------------------------------------------------------
    # API (3): historical data
    # ------------------------------------------------------------------
    def query_trades(self, symbol: Symbol, start_ns: int = 0, end_ns: Optional[int] = None):
        """Historical trade records from cloud storage (paper API 3)."""
        if self.history is None:
            raise RuntimeError(f"participant {self.name!r} has no history client configured")
        return self.history.trades(symbol, start_ns=start_ns, end_ns=end_ns)

    # ------------------------------------------------------------------
    # Inbound messages
    # ------------------------------------------------------------------
    def on_message(self, msg, sender: str) -> None:
        if isinstance(msg, OrderConfirmation):
            self._on_confirmation(msg)
        elif isinstance(msg, TradeConfirmation):
            self._on_trade(msg)
        elif isinstance(msg, MarketDataDelivery):
            self._on_market_data(msg)
        else:
            super().on_message(msg, sender)

    def _on_confirmation(self, conf: OrderConfirmation) -> None:
        if self._ack_timeout_ns is not None:
            pending = self._pending_acks.pop(conf.client_order_id, None)
            if pending is not None:
                pending.timer.cancel()
                self._consecutive_timeouts = 0
        self.confirmations_received += 1
        self.metrics.record_confirmation(self.name, conf.client_order_id, self.sim.now)
        if self.tracer is not None:
            self.tracer.span(
                self.name, conf.client_order_id, tracing.CONFIRM_DELIVERY,
                self.sim.now, self.host.clock.now(), self.name,
            )
        if conf.status in (OrderStatus.FILLED, OrderStatus.REJECTED, OrderStatus.CANCELLED):
            self.working.pop(conf.client_order_id, None)
        if self.strategy is not None:
            self.strategy.on_confirmation(self, conf)

    def _on_trade(self, trade_conf: TradeConfirmation) -> None:
        self.trades_received += 1
        view = self.view(trade_conf.symbol)
        view.last_trade_price = trade_conf.price
        view.last_update_local = self.host.clock.now()
        if self.strategy is not None:
            self.strategy.on_trade(self, trade_conf)

    def _on_market_data(self, delivery: MarketDataDelivery) -> None:
        self.md_received += 1
        piece = delivery.piece
        view = self.view(piece.symbol)
        payload = piece.payload
        if isinstance(payload, TradeRecord):
            view.last_trade_price = payload.price
        elif isinstance(payload, BookSnapshot):
            view.best_bid = payload.best_bid or view.best_bid
            view.best_ask = payload.best_ask or view.best_ask
        view.last_update_local = self.host.clock.now()
        if self.strategy is not None:
            self.strategy.on_market_data(self, delivery)

    def __repr__(self) -> str:
        return f"Participant({self.name!r}, submitted={self.orders_submitted})"
