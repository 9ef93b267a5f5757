"""E2 — Theorem 2: the ``(O(log² n), 1)`` scheme with constant average advice.

Regenerates the series over ``n``: average advice (expected flat, below
the paper's constant ``c = 12``), maximum advice (expected to grow —
``Θ(log² n)`` in the worst case), exactly one round, CONGEST-size
messages.  Run on random connected graphs and on the lower-bound family
``G_n`` (whose spine forces deep Borůvka merge chains).
"""

from conftest import publish

from repro.analysis import format_table, run_scheme_sweep
from repro.core.scheme_average import paper_average_constant
from repro.runner import GraphSpec

SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)


def _run_experiment():
    sweep = run_scheme_sweep(
        "theorem2",
        SIZES,
        graph_factory=GraphSpec("random", 0.04),
        seeds=(0, 1),
    )
    gn = run_scheme_sweep(
        "theorem2",
        (16, 32, 64, 128),
        graph_factory=GraphSpec("gn"),
        seeds=(0,),
    )
    return sweep, gn


def test_average_scheme_scaling():
    sweep, gn = _run_experiment()
    columns = [
        "n",
        "log2_n",
        "max_advice_bits",
        "avg_advice_bits",
        "rounds",
        "congest_factor",
        "correct",
    ]
    publish(
        "E2_average_scheme",
        format_table(sweep.rows, columns=columns, title="E2a  Theorem 2, random connected graphs")
        + "\n\n"
        + format_table(gn.rows, columns=columns, title="E2b  Theorem 2, lower-bound family G_n")
        + f"\n\npaper average-advice constant: c = {paper_average_constant():.1f} bits",
    )

    constant = paper_average_constant()
    for result in (sweep, gn):
        assert all(result.series("correct"))
        assert all(r == 1 for r in result.series("rounds"))
        assert all(avg <= constant for avg in result.series("avg_advice_bits"))
    # the average stays flat while the maximum grows with n
    averages = sweep.series("avg_advice_bits")
    maxima = sweep.series("max_advice_bits")
    assert max(averages) - min(averages) < 3.0
    assert maxima[-1] > maxima[0]
    # CONGEST: one parent-claim message of O(1) bits
    assert all(row["max_edge_bits"] <= 8 for row in sweep.rows)
