"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment of the paper (E0–E8): it
runs the corresponding workload once, prints the regenerated table,
writes it to ``benchmarks/results/`` so it can be inspected after a
quiet run, and asserts the qualitative shape the paper predicts.  They
are checks, not timings; the repository benchmark is ``perfbench/``.
Run them by path: ``pytest -q benchmarks/bench_*.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

# allow running the benchmarks from a fresh checkout without installation
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def publish(name: str, text: str) -> None:
    """Print a regenerated table and persist it under ``benchmarks/results/``."""
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
