"""Trading strategies and workload generation.

The paper's evaluations run ~450 orders/s per participant (22k/s
aggregate) of synthetic zero-intelligence flow.  This package provides
the Poisson order-flow driver (:class:`TradingAgent`), the
:class:`Strategy` callbacks it drives, and the zero-intelligence
strategy every workload uses.
"""

from repro.traders.base import Strategy, TradingAgent
from repro.traders.workload import attach_agents, split_symbols
from repro.traders.zi import ZeroIntelligenceStrategy

__all__ = [
    "Strategy",
    "TradingAgent",
    "ZeroIntelligenceStrategy",
    "attach_agents",
    "split_symbols",
]
