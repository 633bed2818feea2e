"""Workload generation: zero-intelligence order flow.

The paper's evaluations run ~450 orders/s per participant (22k/s
aggregate) of synthetic zero-intelligence flow.  This package provides
the Poisson order-flow agent (:class:`TradingAgent`), the
zero-intelligence trader it drives, and the batched kernel's merged
order stream.
"""

from repro.traders.base import TradingAgent
from repro.traders.workload import split_symbols
from repro.traders.zi import ZeroIntelligenceStrategy

__all__ = [
    "TradingAgent",
    "ZeroIntelligenceStrategy",
    "split_symbols",
]
