"""Frequent batch auctions (FBA): the §5/§7 alternative market design.

The paper positions CloudEx's infrastructure-level fairness as
complementary to *algorithmic* fixes such as frequent batch auctions
(Budish, Cramton & Shim -- the paper's [25]), and names "new auction
mechanisms" as a target use of CloudEx as a market simulator (§7).
This module provides that mechanism as a standalone core: a
uniform-price call auction the caller clears at whatever cadence it
chooses.  The cluster matches continuously (§2.1); the §5 ablation
drives this core directly.

Semantics (following Budish et al.):

- Orders accumulate during each batch interval; nothing matches
  continuously.
- At the batch boundary a single *clearing price* ``p*`` maximizes the
  executable volume between aggregate demand (buys willing to pay
  >= p) and supply (sells willing to accept <= p); ties between
  equally-voluminous prices resolve toward the previous reference
  price.
- Every execution in the batch happens at ``p*``.  Better-priced
  levels fill before worse ones (price priority); the level whose
  demand exceeds the volume left for it is rationed **pro-rata** among
  its orders -- time within the batch carries no priority, which is
  exactly how FBA removes the latency race.
- Unfilled remainders of GTC limit orders carry over to the next batch
  (they rest in the book).

The ablation benchmark (``benchmarks/bench_ablation_matching.py``)
races a fast and a slow trader for a stale quote under continuous
price-time matching vs FBA and reproduces the economics: continuous
matching awards (nearly) every race to the faster trader; FBA splits
the margin regardless of speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.marketdata import TradeRecord
from repro.core.order import Order
from repro.core.portfolio import PortfolioMatrix
from repro.core.types import OrderType, Symbol


@dataclass
class AuctionResult:
    """Outcome of one batch auction for one symbol."""

    symbol: Symbol
    clearing_price: Optional[int]
    executed_volume: int
    trades: List[TradeRecord] = field(default_factory=list)

    @property
    def cleared(self) -> bool:
        return self.clearing_price is not None and self.executed_volume > 0


class BatchAuctionCore:
    """Uniform-price call auctions over a set of symbols.

    A standalone core, not a cluster mode: the caller buffers with
    ``add_order`` (nothing matches on arrival) and decides when
    ``run_auction`` clears one symbol.  Market orders are treated as
    limit orders at the most aggressive representable price, the
    standard call-auction convention.
    """

    #: Price cap used to represent market orders inside an auction.
    MARKET_BUY_PRICE = 10**9

    def __init__(
        self,
        symbols: Iterable[Symbol],
        portfolio: PortfolioMatrix,
        trade_id_counter: Optional[Iterable[int]] = None,
        reference_prices: Optional[Dict[Symbol, int]] = None,
    ) -> None:
        self._books: Dict[Symbol, List[Order]] = {s: [] for s in symbols}
        self.portfolio = portfolio
        self._trade_ids = (
            iter(trade_id_counter) if trade_id_counter is not None else itertools.count(1)
        )
        self.reference_prices: Dict[Symbol, int] = dict(reference_prices or {})
        self.auctions_run = 0
        self.orders_processed = 0

    # ------------------------------------------------------------------
    # Order intake
    # ------------------------------------------------------------------
    def add_order(self, order: Order) -> None:
        """Buffer an order for the symbol's next auction."""
        book = self._books.get(order.symbol)
        if book is None:
            raise KeyError(f"symbol {order.symbol!r} is not listed")
        book.append(order)
        self.orders_processed += 1

    def cancel(self, participant_id: str, client_order_id: int, symbol: Symbol) -> bool:
        """Remove a buffered/resting order; True if found."""
        book = self._books.get(symbol, [])
        for index, order in enumerate(book):
            if (
                order.participant_id == participant_id
                and order.client_order_id == client_order_id
            ):
                del book[index]
                return True
        return False

    def resting_count(self, symbol: Symbol) -> int:
        return len(self._books[symbol])

    # ------------------------------------------------------------------
    # Clearing
    # ------------------------------------------------------------------
    def _effective_price(self, order: Order) -> int:
        if order.order_type is OrderType.MARKET:
            return self.MARKET_BUY_PRICE if order.is_buy else 0
        assert order.limit_price is not None
        return order.limit_price

    def _clearing_price(
        self, buys: List[Order], sells: List[Order], symbol: Symbol
    ) -> Tuple[Optional[int], int]:
        """The volume-maximizing uniform price and its volume."""
        if not buys or not sells:
            return None, 0
        candidates = sorted(
            {self._effective_price(o) for o in buys + sells
             if 0 < self._effective_price(o) < self.MARKET_BUY_PRICE}
        )
        if not candidates:
            # Only market orders on both sides: clear at the reference.
            reference = self.reference_prices.get(symbol)
            if reference is None:
                return None, 0
            candidates = [reference]
        best_price, best_volume = None, 0
        reference = self.reference_prices.get(symbol)
        for price in candidates:
            demand = sum(o.remaining for o in buys if self._effective_price(o) >= price)
            supply = sum(o.remaining for o in sells if self._effective_price(o) <= price)
            volume = min(demand, supply)
            better = volume > best_volume
            tie = volume == best_volume and volume > 0 and best_price is not None
            closer_to_ref = (
                tie
                and reference is not None
                and abs(price - reference) < abs(best_price - reference)
            )
            if better or closer_to_ref:
                best_price, best_volume = price, volume
        return best_price, best_volume

    def _allocate(
        self, orders: List[Order], price: int, volume: int, is_buy: bool
    ) -> List[Tuple[Order, int]]:
        """Fill plan for one side: price priority between levels,
        pro-rata *within* the level that gets rationed.

        Time within the batch never matters -- that is the whole point
        of FBA -- so whenever a price level's total demand exceeds the
        volume left for it, every order at that level is filled
        proportionally, regardless of arrival order.
        """
        if is_buy:
            eligible = [o for o in orders if self._effective_price(o) >= price]
            levels_best_first = sorted(
                {self._effective_price(o) for o in eligible}, reverse=True
            )
        else:
            eligible = [o for o in orders if self._effective_price(o) <= price]
            levels_best_first = sorted({self._effective_price(o) for o in eligible})

        fills: List[Tuple[Order, int]] = []
        remaining_volume = volume
        for level_price in levels_best_first:
            if remaining_volume <= 0:
                break
            level_orders = [o for o in eligible if self._effective_price(o) == level_price]
            level_total = sum(o.remaining for o in level_orders)
            if level_total <= remaining_volume:
                # The whole level fills.
                for order in level_orders:
                    if order.remaining > 0:
                        fills.append((order, order.remaining))
                remaining_volume -= level_total
                continue
            # Rationed level: pro-rata by remaining size.
            shares = []
            allocated = 0
            for order in level_orders:
                share = remaining_volume * order.remaining // level_total
                shares.append(share)
                allocated += share
            # Integer remainder: round-robin (at most len(level)-1 units).
            index = 0
            while allocated < remaining_volume:
                if shares[index] < level_orders[index].remaining:
                    shares[index] += 1
                    allocated += 1
                index = (index + 1) % len(level_orders)
            for order, share in zip(level_orders, shares):
                if share > 0:
                    fills.append((order, share))
            remaining_volume = 0
        return fills

    def run_auction(self, symbol: Symbol, now_local: int) -> AuctionResult:
        """Clear one symbol's buffered orders at the uniform price."""
        book = self._books[symbol]
        self.auctions_run += 1
        buys = [o for o in book if o.is_buy]
        sells = [o for o in book if not o.is_buy]
        price, volume = self._clearing_price(buys, sells, symbol)
        if price is None or volume == 0:
            self._expire_market_orders(book)
            return AuctionResult(symbol=symbol, clearing_price=None, executed_volume=0)

        buy_fills = self._allocate(buys, price, volume, is_buy=True)
        sell_fills = self._allocate(sells, price, volume, is_buy=False)
        trades = self._cross(buy_fills, sell_fills, symbol, price, now_local)

        # Drop filled orders; unfilled limit remainders carry over.
        book[:] = [o for o in book if o.remaining > 0 and o.order_type is OrderType.LIMIT]
        self.reference_prices[symbol] = price
        return AuctionResult(
            symbol=symbol, clearing_price=price, executed_volume=volume, trades=trades
        )

    def _expire_market_orders(self, book: List[Order]) -> None:
        """Market orders do not carry over across failed auctions."""
        book[:] = [o for o in book if o.order_type is OrderType.LIMIT]

    def _cross(
        self,
        buy_fills: List[Tuple[Order, int]],
        sell_fills: List[Tuple[Order, int]],
        symbol: Symbol,
        price: int,
        now_local: int,
    ) -> List[TradeRecord]:
        """Pair the two fill plans into trade records and settle them."""
        trades: List[TradeRecord] = []
        buy_queue = [(o, q) for o, q in buy_fills]
        sell_queue = [(o, q) for o, q in sell_fills]
        bi = si = 0
        while bi < len(buy_queue) and si < len(sell_queue):
            buy, buy_need = buy_queue[bi]
            sell, sell_need = sell_queue[si]
            quantity = min(buy_need, sell_need)
            trade = TradeRecord(
                trade_id=next(self._trade_ids),
                symbol=symbol,
                price=price,
                quantity=quantity,
                buyer=buy.participant_id,
                seller=sell.participant_id,
                buy_client_order_id=buy.client_order_id,
                sell_client_order_id=sell.client_order_id,
                executed_local=now_local,
                aggressor_is_buy=False,  # no aggressor in a call auction
            )
            buy.fill(quantity)
            sell.fill(quantity)
            self.portfolio.apply_trade(trade)
            trades.append(trade)
            buy_need -= quantity
            sell_need -= quantity
            buy_queue[bi] = (buy, buy_need)
            sell_queue[si] = (sell, sell_need)
            if buy_need == 0:
                bi += 1
            if sell_need == 0:
                si += 1
        return trades

    def __repr__(self) -> str:
        return f"BatchAuctionCore(symbols={len(self._books)}, auctions={self.auctions_run})"
