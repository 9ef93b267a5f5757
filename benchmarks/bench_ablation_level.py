"""E7 — ablation of deviation D1: rank-coded vs level-coded Theorem 3.

The paper's fragment advice identifies the selected edge through the
*level* of the neighbouring fragment; our primary implementation encodes
the edge's *rank* at the choosing node instead (DESIGN.md, deviation
D1), because the paper leaves the neighbour-level announcement
unspecified.  The executable level variant pays for that gap with a
``⌈log log n⌉``-bit per-node level bitmap and one extra round per phase.

This benchmark runs both variants on the same instances and regenerates
the comparison: both are correct and decode the same tree; the rank
variant's maximum advice is constant while the level variant's grows
(slowly) with ``log log n``; the level variant needs a few more rounds.
"""

import math

from conftest import publish

from repro.analysis import format_table
from repro.core.oracle import run_scheme
from repro.core.scheme_level import LevelAdviceScheme
from repro.core.scheme_main import ShortAdviceScheme, num_boruvka_phases
from repro.graphs.generators import random_connected_graph

SIZES = (16, 64, 256, 1024, 4096)


def _run_experiment():
    rows = []
    for n in SIZES:
        graph = random_connected_graph(n, min(1.0, 5 / n), seed=2)
        main = run_scheme(ShortAdviceScheme(), graph, root=0)
        level = run_scheme(LevelAdviceScheme(), graph, root=0)
        assert main.correct and level.correct
        assert main.check.tree_edge_ids == level.check.tree_edge_ids
        rows.append(
            {
                "n": n,
                "phases": num_boruvka_phases(n),
                "rank_max_advice": main.advice.max_bits,
                "level_max_advice": level.advice.max_bits,
                "rank_avg_advice": round(main.advice.average_bits, 2),
                "level_avg_advice": round(level.advice.average_bits, 2),
                "rank_rounds": main.rounds,
                "level_rounds": level.rounds,
            }
        )
    return rows


def test_level_ablation():
    rows = _run_experiment()
    publish(
        "E7_ablation_level",
        format_table(rows, title="E7  Theorem 3 ablation: rank-coded (ours) vs level-coded (paper)"),
    )

    # the rank variant's maximum advice is flat across three decades of n
    rank_max = [row["rank_max_advice"] for row in rows]
    assert max(rank_max) - min(rank_max) <= 3
    for row in rows:
        # the level variant carries the extra per-phase level bitmap on average
        assert row["level_avg_advice"] > row["rank_avg_advice"]
        # and needs a bounded number of extra rounds (level exchange per phase)
        assert row["rank_rounds"] < row["level_rounds"] <= row["rank_rounds"] + 2 * row["phases"] + 4
        # both stay within the paper's round budget (+ slack for the final wave)
        assert row["level_rounds"] <= 9 * math.ceil(math.log2(row["n"])) + 2 * row["phases"] + 10
