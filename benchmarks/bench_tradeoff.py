"""E6 — the advice-size / time trade-off table (all schemes side by side).

Regenerates, for a fixed family of instances, the table that summarises
the paper: the trivial scheme ( ``⌈log n⌉`` bits, 0 rounds), Theorem 2
(``O(log² n)`` max / ``O(1)`` average bits, 1 round), Theorem 3
(``O(1)`` bits, ``O(log n)`` rounds), and the no-advice baselines.  The
assertions check the *ordering* relations the paper proves rather than
absolute values.
"""

from conftest import publish

from repro.analysis import format_table, theoretical_tradeoff_rows, tradeoff_rows
from repro.core.scheme_average import paper_average_constant
from repro.graphs.generators import random_connected_graph


def _run_experiment(n=384, seed=3):
    graph = random_connected_graph(n, 5 / n, seed=seed)
    measured = tradeoff_rows(graph, root=0, include_baselines=True, include_level_variant=True)
    claimed = theoretical_tradeoff_rows(n)
    return graph, measured, claimed


def test_tradeoff_table():
    graph, measured, claimed = _run_experiment()

    columns = [
        "scheme",
        "max_advice_bits",
        "avg_advice_bits",
        "rounds",
        "max_edge_bits_per_round",
        "congest_factor",
        "correct",
    ]
    publish(
        "E6_tradeoff",
        format_table(measured, columns=columns, title=f"E6a  measured trade-off (n={graph.n}, m={graph.m})")
        + "\n\n"
        + format_table(
            claimed,
            columns=["scheme", "max_advice_bits", "rounds"],
            title="E6b  the paper's claimed trade-off",
        ),
    )

    by_name = {row["scheme"]: row for row in measured}
    trivial = by_name["trivial-rank"]
    average = by_name["theorem2-average"]
    main = by_name["theorem3-main"]
    ghs = by_name["sync-boruvka"]
    local = by_name["local-full-info"]

    assert all(row["correct"] for row in measured)

    # round ordering: 0 (trivial) < 1 (Thm 2) < O(log n) (Thm 3) << no advice
    assert trivial["rounds"] == 0
    assert average["rounds"] == 1
    assert 1 < main["rounds"] < ghs["rounds"]

    # advice ordering: Theorem 2's average is below the paper constant;
    # Theorem 3's maximum is a constant (compare against its declared bound);
    # the trivial scheme's maximum tracks log n.
    assert average["avg_advice_bits"] <= paper_average_constant()
    assert main["max_advice_bits"] <= 25
    assert trivial["max_advice_bits"] <= 11  # ceil(log2 384) + 1

    # bandwidth: the LOCAL baseline is the only non-CONGEST algorithm
    assert local["congest_factor"] > 10 * max(
        main["congest_factor"], ghs["congest_factor"], 1.0
    )
