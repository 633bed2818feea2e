"""CloudEx core: the paper's contribution.

Public API highlights:

- :class:`CloudExConfig` / :class:`CloudExCluster` -- configure and run
  a whole simulated deployment.
- :class:`LimitOrderBook`, :class:`MatchingEngineCore`,
  :class:`PortfolioMatrix` -- the matching machinery, usable standalone.
- :class:`Sequencer`, :class:`HoldReleaseBuffer`, :class:`DdpController`,
  :class:`RosDeduplicator` -- the fairness mechanisms.
- :class:`MetricsCollector` -- unfairness ratios, delays, latencies.
"""

from repro.core.auth import AuthRegistry
from repro.core.batchauction import AuctionResult, BatchAuctionCore
from repro.core.book import BookSide, LimitOrderBook, PriceLevel
from repro.core.config import CloudExConfig, default_symbols
from repro.core.ddp import DdpController
from repro.core.exchange import CentralExchangeServer, EngineShard
from repro.core.gateway import Gateway
from repro.core.holdrelease import HoldReleaseBuffer
from repro.core.marketdata import BookSnapshot, MarketDataPiece, TradeRecord
from repro.core.matching import MatchingEngineCore, MatchResult
from repro.core.metrics import LatencySummary, MetricsCollector
from repro.core.order import ClientOrderIdAllocator, Order, OrderValidationError, validate_order
from repro.core.participant import MarketView, Participant
from repro.core.portfolio import Account, PortfolioMatrix
from repro.core.risk import MarginRiskPolicy, RiskPolicy, UnlimitedRisk
from repro.core.ros import RosDeduplicator
from repro.core.sequencer import Sequencer, SequencerSample
from repro.core.sharding import SymbolRouter
from repro.core.surveillance import CircuitBreaker, HaltRecord
from repro.core.types import (
    OrderStatus,
    OrderType,
    RejectReason,
    Side,
    TimeInForce,
)

from repro.core.cluster import CloudExCluster, gateway_name, participant_name

__all__ = [
    "Account",
    "CircuitBreaker",
    "HaltRecord",
    "AuctionResult",
    "BatchAuctionCore",
    "MarginRiskPolicy",
    "RiskPolicy",
    "UnlimitedRisk",
    "AuthRegistry",
    "BookSide",
    "BookSnapshot",
    "CentralExchangeServer",
    "ClientOrderIdAllocator",
    "CloudExCluster",
    "CloudExConfig",
    "DdpController",
    "EngineShard",
    "Gateway",
    "HoldReleaseBuffer",
    "LatencySummary",
    "LimitOrderBook",
    "MarketDataPiece",
    "MarketView",
    "MatchResult",
    "MatchingEngineCore",
    "MetricsCollector",
    "Order",
    "OrderStatus",
    "OrderType",
    "OrderValidationError",
    "Participant",
    "PortfolioMatrix",
    "PriceLevel",
    "RejectReason",
    "RosDeduplicator",
    "Sequencer",
    "SequencerSample",
    "Side",
    "SymbolRouter",
    "TimeInForce",
    "TradeRecord",
    "default_symbols",
    "gateway_name",
    "participant_name",
    "validate_order",
]
