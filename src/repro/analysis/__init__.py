"""Analysis helpers: rendering, reports, and market analytics."""

from repro.analysis.bookview import render_book
from repro.analysis.candles import Candle, candles_from_trades
from repro.analysis.report import summarize_run
from repro.analysis.tables import format_table, render_series

__all__ = [
    "Candle",
    "candles_from_trades",
    "format_table",
    "render_book",
    "render_series",
    "summarize_run",
]
