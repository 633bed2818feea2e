"""Continuous price-time matching.

The algorithm "used by most exchanges" (paper §2.1): an incoming bid
(ask) matches whenever its price is greater (less) than or equal to the
lowest ask (highest bid); executions occur at the *resting* order's
price; unmatched limit remainders rest in the book; ties at one price
go to the earlier gateway timestamp.

This module is pure logic -- no simulator, no network.  The sharded
exchange server (:mod:`repro.core.exchange`) drives one
:class:`MatchingEngineCore` per shard and handles timing, CPU cost, and
dissemination around it, so the matching rules themselves are
exhaustively testable in isolation (including with hypothesis).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.book import LimitOrderBook
from repro.core.marketdata import BookSnapshot, TradeRecord
from repro.core.messages import OrderConfirmation, StampedCancel, TradeConfirmation
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.types import OrderStatus, OrderType, RejectReason, Side, Symbol, TimeInForce

# Enum members read on the per-order path, bound once: member lookup on
# an Enum class costs ~15x a module global.
_BUY = Side.BUY
_MARKET = OrderType.MARKET
_GTC, _IOC = TimeInForce.GTC, TimeInForce.IOC
_ACCEPTED, _PARTIALLY_FILLED, _FILLED, _CANCELLED, _REJECTED = (
    OrderStatus.ACCEPTED,
    OrderStatus.PARTIALLY_FILLED,
    OrderStatus.FILLED,
    OrderStatus.CANCELLED,
    OrderStatus.REJECTED,
)


@dataclass
class BatchMatchStats:
    """Aggregate outcome of a :meth:`MatchingEngineCore.process_batch`.

    Field semantics mirror the scalar path's per-order confirmation
    statuses exactly, so a batch's tallies equal the status histogram a
    ``process_order`` loop would have produced (pinned by differential
    tests): ``rejected`` counts unknown-symbol / duplicate-id rejects
    plus market orders that found no liquidity; ``cancelled`` counts
    unfilled IOC orders; ``filled`` / ``partially_filled`` / ``accepted``
    follow ``OrderStatus``.
    """

    orders: int = 0
    accepted: int = 0
    partially_filled: int = 0
    filled: int = 0
    cancelled: int = 0
    rejected: int = 0
    trades: int = 0
    traded_qty: int = 0
    notional: int = 0

    def merge(self, other: "BatchMatchStats") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class MatchResult:
    """Everything one order produced: a confirmation, zero or more
    trades, the per-counterparty trade confirmations, and any resting
    orders cancelled by self-trade prevention."""

    confirmation: OrderConfirmation
    trades: List[TradeRecord] = field(default_factory=list)
    trade_confirmations: List[TradeConfirmation] = field(default_factory=list)
    stp_cancels: List[Order] = field(default_factory=list)

    @property
    def traded_quantity(self) -> int:
        return sum(trade.quantity for trade in self.trades)


class MatchingEngineCore:
    """Order books + matching rules for one set of symbols (one shard).

    Parameters
    ----------
    symbols:
        The symbols this core is responsible for.
    portfolio:
        The (shared) portfolio matrix to settle trades into.
    trade_id_counter:
        Shared iterator yielding globally unique trade ids; pass the
        same iterator to every shard.
    snapshot_depth:
        Price levels per side included in book snapshots.
    """

    def __init__(
        self,
        symbols: Iterable[Symbol],
        portfolio: PortfolioMatrix,
        trade_id_counter: Optional[Iterable[int]] = None,
        snapshot_depth: int = 5,
        risk_policy=None,
        self_trade_prevention: bool = False,
        circuit_breaker=None,
    ) -> None:
        self.books: Dict[Symbol, LimitOrderBook] = {s: LimitOrderBook(s) for s in symbols}
        self.portfolio = portfolio
        self._trade_ids = iter(trade_id_counter) if trade_id_counter is not None else itertools.count(1)
        self.snapshot_depth = snapshot_depth
        self.risk_policy = risk_policy
        #: When True, an incoming order never executes against the same
        #: participant's resting order; the *resting* order is cancelled
        #: instead (the common "cancel resting" STP policy).  The course
        #: deployments ran without it (self-trades net to zero).
        self.self_trade_prevention = self_trade_prevention
        #: Optional :class:`repro.core.surveillance.CircuitBreaker`;
        #: halted symbols reject incoming orders, resting orders stay.
        self.circuit_breaker = circuit_breaker
        self.orders_processed: int = 0
        #: Running fill totals; a batch's tallies are their deltas.
        self.trades_executed: int = 0
        self.traded_quantity: int = 0
        self.traded_notional: int = 0
        self.risk_rejects: int = 0
        self.halt_rejects: int = 0
        self.stp_cancellations: int = 0
        self.last_trade_price: Dict[Symbol, int] = {}

    # ------------------------------------------------------------------
    # Orders
    # ------------------------------------------------------------------
    def process_order(self, order: Order, now_local: int) -> MatchResult:
        """Run one order through continuous price-time matching."""
        trades: List[TradeRecord] = []
        confs: List[TradeConfirmation] = []
        stp_cancels: List[Order] = []

        def sink(trade_id, price, quantity, buyer, seller, aggressor_is_buy, now_local):
            trades.append(
                self._settle(trade_id, price, quantity, buyer, seller, aggressor_is_buy, now_local)
            )
            # Aggressor's confirmation first, then the resting side's.
            sides = ((buyer, True), (seller, False))
            for party, is_buy in sides if aggressor_is_buy else sides[::-1]:
                confs.append(
                    TradeConfirmation(
                        participant_id=party.participant_id,
                        client_order_id=party.client_order_id,
                        trade_id=trade_id,
                        symbol=party.symbol,
                        is_buy=is_buy,
                        quantity=quantity,
                        price=price,
                        engine_timestamp=now_local,
                    )
                )

        status, reason = self._execute(order, now_local, sink, stp_cancels)
        return MatchResult(
            self.confirm(order, status, now_local, reason), trades, confs, stp_cancels
        )

    def process_batch(
        self, orders: List[Order], times: List[int], on_trade=None
    ) -> BatchMatchStats:
        """Match a pre-ordered batch of orders without per-order results.

        The same admit -> cross -> dispose path as ``process_order(order,
        t)`` for each ``(order, t)`` pair in sequence -- every feature
        (risk policy, circuit breaker, self-trade prevention) included
        -- but statuses are tallied instead of wrapped in an
        ``OrderConfirmation`` / ``MatchResult`` per order, which is most
        of the scalar feed's cost once the network layer is out of the
        picture.  This is the batched kernel's feed
        (:mod:`repro.core.shardrun`).

        Parameters
        ----------
        orders, times:
            Parallel sequences; ``times[i]`` is the engine-local
            timestamp for ``orders[i]`` (the batch must already be in
            processing order -- the caller owns sequencing).
        on_trade:
            The trade sink: a callable ``(trade_id, price, quantity,
            buyer, seller, aggressor_is_buy, now_local)`` invoked per
            execution with the two :class:`Order` objects.  The sink
            owns settlement: the default settles into the portfolio
            matrix exactly as ``process_order`` does; the shard runner
            passes its bucket accounting instead.
        """
        sink = self._settle if on_trade is None else on_trade
        execute = self._execute
        stp_cancels: List[Order] = []  # counted in stp_cancellations; not reported per order
        trades = self.trades_executed
        traded_qty = self.traded_quantity
        notional = self.traded_notional
        accepted = partially_filled = filled = cancelled = rejected = 0
        for order, now_local in zip(orders, times):
            status, _ = execute(order, now_local, sink, stp_cancels)
            if status is _FILLED:
                filled += 1
            elif status is _ACCEPTED:
                accepted += 1
            elif status is _PARTIALLY_FILLED:
                partially_filled += 1
            elif status is _REJECTED:
                rejected += 1
            else:
                cancelled += 1
        return BatchMatchStats(
            orders=accepted + partially_filled + filled + cancelled + rejected,
            accepted=accepted,
            partially_filled=partially_filled,
            filled=filled,
            cancelled=cancelled,
            rejected=rejected,
            trades=self.trades_executed - trades,
            traded_qty=self.traded_quantity - traded_qty,
            notional=self.traded_notional - notional,
        )

    def _execute(
        self, order: Order, now_local: int, sink, stp_cancels: List[Order]
    ) -> Tuple[OrderStatus, Optional[RejectReason]]:
        """Admit -> cross -> dispose: the one matching path behind both
        feeds.  Every fill is reported to ``sink``, every resting order
        removed by self-trade prevention is appended to ``stp_cancels``,
        and the order's final ``(status, reject reason)`` is returned."""
        # Admit.
        symbol = order.symbol
        book = self.books.get(symbol)
        if book is None:
            return _REJECTED, RejectReason.UNKNOWN_SYMBOL
        if (key := (order.participant_id, order.client_order_id)) in book.resting:  # reused to rest
            return _REJECTED, RejectReason.DUPLICATE_ORDER_ID
        breaker = self.circuit_breaker
        if breaker is not None and breaker.is_halted(symbol, now_local):
            self.halt_rejects += 1
            return _REJECTED, RejectReason.SYMBOL_HALTED
        if self.risk_policy is not None and self.portfolio.has_account(order.participant_id):
            reason = self.risk_policy.check(
                order,
                self.portfolio.account(order.participant_id),
                self.reference_price(symbol),
            )
            if reason is not None:
                self.risk_rejects += 1
                return _REJECTED, reason
        self.orders_processed += 1

        # Cross.
        limit = order.limit_price
        is_buy = order.side is _BUY
        opposite = book.asks if is_buy else book.bids
        stp = self.self_trade_prevention
        trade_ids = self._trade_ids
        trades = traded_qty = notional = 0
        while order.remaining > 0:
            level = opposite.best_level()
            # A market order (no limit) crosses any resting liquidity.
            if level is None or (
                limit is not None and (level.price > limit if is_buy else level.price < limit)
            ):
                break
            resting = level.front()
            if stp and resting.participant_id == order.participant_id:
                level.pop_front()
                book.forget(resting)
                stp_cancels.append(resting)
                self.stp_cancellations += 1
                continue
            quantity = min(order.remaining, resting.remaining)
            price = level.price
            order.remaining -= quantity
            resting.remaining -= quantity
            if resting.remaining == 0:
                level.pop_front()
                book.forget(resting)
            else:
                level.reduce(quantity)
            trades += 1
            traded_qty += quantity
            notional += price * quantity
            if is_buy:
                sink(next(trade_ids), price, quantity, order, resting, True, now_local)
            else:
                sink(next(trade_ids), price, quantity, resting, order, False, now_local)
            if breaker is not None and breaker.on_trade(symbol, price, now_local):
                break  # the triggering execution stands; the sweep stops with the halt
        if trades:
            self.last_trade_price[symbol] = price
            self.trades_executed += trades
            self.traded_quantity += traded_qty
            self.traded_notional += notional

        # Dispose.
        remaining = order.remaining
        if order.order_type is _MARKET:  # a market remainder never rests
            if remaining == order.quantity:
                return _REJECTED, RejectReason.NO_LIQUIDITY
            return (_FILLED if remaining == 0 else _PARTIALLY_FILLED), None
        if remaining > 0 and order.time_in_force is _GTC:
            book.add_resting(order, key)
        if remaining == 0:
            return _FILLED, None
        if remaining < order.quantity:
            return _PARTIALLY_FILLED, None
        if order.time_in_force is _IOC:
            return _CANCELLED, None
        return _ACCEPTED, None

    def _settle(
        self, trade_id, price, quantity, buyer, seller, aggressor_is_buy, now_local
    ) -> TradeRecord:
        """The default trade sink: build the :class:`TradeRecord` and
        settle it into the portfolio matrix."""
        trade = TradeRecord(
            trade_id=trade_id,
            symbol=buyer.symbol,
            price=price,
            quantity=quantity,
            buyer=buyer.participant_id,
            seller=seller.participant_id,
            buy_client_order_id=buyer.client_order_id,
            sell_client_order_id=seller.client_order_id,
            executed_local=now_local,
            aggressor_is_buy=aggressor_is_buy,
        )
        self.portfolio.apply_trade(trade)
        return trade

    @staticmethod
    def confirm(
        order: Order, status: OrderStatus, now_local: int, reason: Optional[RejectReason] = None
    ) -> OrderConfirmation:
        """The engine's confirmation of ``order`` in ``status`` -- the one
        place an order's :class:`OrderConfirmation` is built (matching
        outcome, client cancel, STP cancel).  A market or IOC remainder
        never rests, so unless rejected it reports ``remaining=0``."""
        keeps_remainder = status is _REJECTED or (
            order.order_type is not _MARKET and order.time_in_force is _GTC
        )
        return OrderConfirmation(
            participant_id=order.participant_id,
            client_order_id=order.client_order_id,
            symbol=order.symbol,
            status=status,
            filled=order.quantity - order.remaining,
            remaining=order.remaining if keeps_remainder else 0,
            engine_timestamp=now_local,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Cancels
    # ------------------------------------------------------------------
    def process_cancel(self, cancel: StampedCancel, now_local: int) -> OrderConfirmation:
        """Cancel a resting order; rejects unknown/filled/foreign orders."""
        book = self.books.get(cancel.symbol)
        order = (
            book.cancel(cancel.participant_id, cancel.client_order_id)
            if book is not None
            else None
        )
        if order is None:
            return OrderConfirmation(
                participant_id=cancel.participant_id,
                client_order_id=cancel.client_order_id,
                symbol=cancel.symbol,
                status=OrderStatus.REJECTED,
                filled=0,
                remaining=0,
                engine_timestamp=now_local,
                reason=RejectReason.UNKNOWN_ORDER,
            )
        return self.confirm(order, _CANCELLED, now_local)

    # ------------------------------------------------------------------
    # Market data
    # ------------------------------------------------------------------
    def snapshot(self, symbol: Symbol, now_local: int) -> BookSnapshot:
        """Depth snapshot of one symbol's book."""
        book = self.books[symbol]
        bids, asks = book.depth_snapshot(self.snapshot_depth)
        return BookSnapshot(symbol=symbol, bids=bids, asks=asks, taken_local=now_local)

    def reference_price(self, symbol: Symbol) -> Optional[int]:
        """Last trade price, falling back to the book midpoint."""
        last = self.last_trade_price.get(symbol)
        if last is not None:
            return last
        book = self.books[symbol]
        bid, ask = book.best_bid(), book.best_ask()
        if bid is not None and ask is not None:
            return (bid + ask) // 2
        return bid if bid is not None else ask

    def __repr__(self) -> str:
        return f"MatchingEngineCore(symbols={len(self.books)}, processed={self.orders_processed})"
