"""Experiment-layer helpers: parameter sweeps, result tables, trade-off reports.

The benchmarks under ``benchmarks/`` and the example scripts under
``examples/`` are thin wrappers around this subpackage: ``sweep`` runs a
scheme or baseline over a family of instance sizes, ``tables`` renders
the resulting rows as aligned text / Markdown, and ``tradeoff`` builds
the advice-size versus round-complexity comparison that summarises the
paper's results (experiment E6 in DESIGN.md).
"""

from repro.analysis.tables import format_markdown_table, format_table
from repro.analysis.sweep import (
    SweepResult,
    run_baseline_sweep,
    run_scheme_sweep,
)
from repro.analysis.tradeoff import theoretical_tradeoff_rows, tradeoff_rows

__all__ = [
    "format_markdown_table",
    "format_table",
    "SweepResult",
    "run_baseline_sweep",
    "run_scheme_sweep",
    "theoretical_tradeoff_rows",
    "tradeoff_rows",
]
