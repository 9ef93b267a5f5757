#!/usr/bin/env python
"""Demonstration of Theorem 1: 0-round schemes need Ω(log n) advice on average.

The script walks through the proof's ingredients, executably:

1. build the two-clique family ``G_n`` (Figure 1 of the paper) and verify
   that its unique MST is the spine path, whatever the admissible weight
   assignment;
2. build the *fooling family* for a spine node ``u_i``: ``h - i``
   instances whose local view at ``u_i`` is identical while the correct
   output port differs — so advice is the only way to tell them apart;
3. run the pigeonhole: truncate the advice of the (otherwise correct)
   trivial scheme at ``u_i`` to ``b`` bits and count how many instances
   *any* deterministic 0-round decoder must get wrong;
4. compare the paper's ``Ω(log n)`` average-advice lower bound with the
   average advice actually used by the trivial scheme (the matching
   upper bound).

Run with:  python examples/lower_bound_demo.py
"""

import math

from repro import TrivialRankScheme, build_gn, run_scheme
from repro.analysis import format_table
from repro.core.lower_bound import average_advice_lower_bound, run_fooling_experiment
from repro.mst.verify import unique_mst_edge_ids


def main() -> None:
    h = 12  # nodes per clique; the graph G_n has 2h nodes

    # ---- 1. the construction --------------------------------------------
    inst = build_gn(h)
    unique, mst = unique_mst_edge_ids(inst.graph)
    print(f"G_n with h={h} (|V|={inst.graph.n}, |E|={inst.graph.m})")
    print(f"  unique MST: {unique};  MST == spine path: {sorted(mst) == inst.expected_mst_edge_ids()}\n")

    # ---- 2. the fooling family -------------------------------------------
    i = 4
    experiment = run_fooling_experiment(h, i)
    print(f"fooling family for spine node u_{i}:")
    print(f"  variants                  : {experiment.num_variants}")
    print(f"  identical local views     : {experiment.views_identical}")
    print(f"  pairwise-distinct answers : {experiment.distinct_correct_ports == experiment.num_variants}")
    print(f"  advice bits forced at u_{i}: >= log2({h - i}) = {experiment.required_bits:.2f}\n")

    # ---- 3. the pigeonhole ------------------------------------------------
    rows = []
    for budget in range(0, math.ceil(math.log2(h - i)) + 1):
        result = experiment.failures(budget)
        rows.append(
            {
                "advice bits at u_i": budget,
                "distinguishable groups": result["num_groups"],
                "guaranteed failures": result["min_failures"],
            }
        )
    print(format_table(rows, title=f"pigeonhole over the {h - i} fooling variants"))
    print()

    # ---- 4. lower bound vs. the achievable upper bound --------------------
    rows = []
    for hh in (8, 16, 32, 64):
        gn = build_gn(hh)
        stats = TrivialRankScheme().compute_advice(gn.graph, root=gn.v(1)).stats()
        rows.append(
            {
                "h": hh,
                "n = 2h": 2 * hh,
                "lower bound (avg bits)": round(average_advice_lower_bound(hh), 2),
                "trivial scheme (avg bits)": round(stats.average_bits, 2),
                "log2(n)": round(math.log2(2 * hh), 2),
            }
        )
    print(format_table(rows, title="average advice on G_n: bound vs. the trivial scheme"))
    print(
        "\nReading: no 0-round scheme can beat the lower-bound column, and the trivial\n"
        "scheme shows the Θ(log n) scaling is achievable — both grow with log n, which\n"
        "is exactly Theorem 1."
    )

    # sanity: the trivial scheme is indeed correct on G_n
    report = run_scheme(TrivialRankScheme(), inst.graph, root=inst.v(1))
    assert report.correct


if __name__ == "__main__":
    main()
