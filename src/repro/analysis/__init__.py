"""Analysis helpers: rendering and reports."""

from repro.analysis.report import summarize_run
from repro.analysis.tables import format_table, render_series

__all__ = [
    "format_table",
    "render_series",
    "summarize_run",
]
