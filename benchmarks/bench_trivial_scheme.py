"""E0 — the trivial ``(⌈log n⌉, 0)``-advising scheme (Section 1).

Regenerates the series: maximum and average advice size and round count
of the trivial scheme as a function of ``n``, on random connected graphs
and on complete graphs.  Expected shape: max advice ≈ ``⌈log₂ n⌉`` (+1
root-flag bit), zero rounds, always correct.
"""

import math

from conftest import publish

from repro.analysis import format_table, run_scheme_sweep
from repro.analysis.sweep import default_graph_factory
from repro.runner import GraphSpec

SIZES = (16, 32, 64, 128, 256, 512, 1024)


def _run_experiment():
    sparse = run_scheme_sweep(
        "trivial", SIZES, graph_factory=default_graph_factory(0.04), seeds=(0, 1)
    )
    dense = run_scheme_sweep(
        "trivial",
        (16, 32, 64, 128),
        graph_factory=GraphSpec("complete"),
        seeds=(0,),
    )
    return sparse, dense


def test_trivial_scheme_scaling():
    sparse, dense = _run_experiment()

    columns = ["n", "log2_n", "max_advice_bits", "avg_advice_bits", "rounds", "correct", "advice_bound"]
    publish(
        "E0_trivial_scheme",
        format_table(sparse.rows, columns=columns, title="E0a  trivial scheme, random connected graphs")
        + "\n\n"
        + format_table(dense.rows, columns=columns, title="E0b  trivial scheme, complete graphs"),
    )

    for sweep in (sparse, dense):
        assert all(sweep.series("correct"))
        assert all(r == 0 for r in sweep.series("rounds"))
        for row in sweep.rows:
            # the measured maximum respects the ⌈log2 n⌉ + 1 bound and grows with n
            assert row["max_advice_bits"] <= math.ceil(math.log2(row["n"])) + 1
    # monotone growth of the maximum advice with n (the log n curve)
    maxima = sparse.series("max_advice_bits")
    assert maxima == sorted(maxima)
    assert maxima[-1] >= maxima[0] + 2
