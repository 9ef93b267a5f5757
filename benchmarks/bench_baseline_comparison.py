"""E4 — the abstract's claim: advice buys an exponential round speed-up.

Compares, on the same instances, the Theorem-3 scheme (constant advice,
``O(log n)`` rounds) against computing the MST with no a-priori
information: the GHS-style synchronised Borůvka (CONGEST-size messages,
``Θ(n log n)`` rounds) and the LOCAL full-information algorithm
(``D + O(1)`` rounds but messages of ``Θ(m log n)`` bits).  Expected
shape: the advised scheme's round count grows like ``log n`` while the
GHS-style baseline's grows (super-)linearly — the gap widens with ``n``
— and the LOCAL baseline's per-edge message size explodes while the
advised scheme stays ``O(log n)`` bits.
"""

import math

from conftest import publish

from repro.analysis import format_table
from repro.core.oracle import run_scheme
from repro.core.scheme_main import ShortAdviceScheme
from repro.distributed.base import run_baseline
from repro.distributed.boruvka_sync import SynchronizedBoruvkaMST
from repro.distributed.full_info import FullInformationMST
from repro.graphs.generators import random_connected_graph

SIZES = (16, 32, 64, 96, 128)


def _run_experiment():
    rows = []
    for n in SIZES:
        graph = random_connected_graph(n, min(1.0, 6 / n), seed=1)
        advised = run_scheme(ShortAdviceScheme(), graph, root=0)
        ghs = run_baseline(SynchronizedBoruvkaMST(), graph)
        local = run_baseline(FullInformationMST(), graph)
        assert advised.correct and ghs.correct and local.correct
        rows.append(
            {
                "n": n,
                "log2_n": round(math.log2(n), 2),
                "theorem3_rounds": advised.rounds,
                "theorem3_advice_max": advised.advice.max_bits,
                "theorem3_edge_bits": advised.metrics.max_edge_bits_per_round,
                "ghs_rounds": ghs.rounds,
                "ghs_edge_bits": ghs.metrics.max_edge_bits_per_round,
                "local_rounds": local.rounds,
                "local_edge_bits": local.metrics.max_edge_bits_per_round,
                "speedup_vs_ghs": round(ghs.rounds / advised.rounds, 1),
            }
        )
    return rows


def test_advice_vs_no_advice():
    rows = _run_experiment()
    publish(
        "E4_baseline_comparison",
        format_table(rows, title="E4  Theorem 3 vs no-advice baselines (same instances)"),
    )

    # the advised scheme stays within O(log n) rounds with constant advice
    for row in rows:
        assert row["theorem3_rounds"] <= 9 * math.ceil(math.log2(row["n"])) + 10
        assert row["theorem3_advice_max"] <= ShortAdviceScheme().advice_bound_bits(row["n"])
        # the no-advice CONGEST baseline is slower on every instance ...
        assert row["ghs_rounds"] > row["theorem3_rounds"]
        # ... and the LOCAL baseline needs messages orders of magnitude larger
        assert row["local_edge_bits"] > 20 * row["theorem3_edge_bits"]

    # the gap to the GHS-style baseline widens with n (exponential separation)
    speedups = [row["speedup_vs_ghs"] for row in rows]
    assert speedups[-1] > speedups[0]
    assert speedups[-1] >= 10
