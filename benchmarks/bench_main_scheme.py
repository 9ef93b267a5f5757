"""E3 — Theorem 3 (main result): the ``(O(1), O(log n))``-advising scheme.

Regenerates the headline series of the paper: over growing ``n`` and
several topologies, the maximum advice size stays constant while the
number of rounds stays within ``9⌈log₂ n⌉`` and per-edge messages stay
``O(log n)`` bits.
"""

import math

from conftest import publish

from repro.analysis import format_table, run_scheme_sweep
from repro.core.scheme_main import ShortAdviceScheme
from repro.runner import GraphSpec

SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)


def _run_experiment():
    # serial, on the round-by-round engine: every message of the decoder
    # is simulated
    random_sweep = run_scheme_sweep(
        "theorem3", SIZES, graph_factory=GraphSpec("random", 0.03), seeds=(0, 1)
    )
    grid_sweep = run_scheme_sweep(
        "theorem3", (64, 256, 1024), graph_factory=GraphSpec("grid"), seeds=(0,)
    )
    cycle_sweep = run_scheme_sweep(
        "theorem3", (64, 256, 1024), graph_factory=GraphSpec("cycle"), seeds=(0,)
    )
    complete_sweep = run_scheme_sweep(
        "theorem3", (16, 64, 128), graph_factory=GraphSpec("complete"), seeds=(0,)
    )
    return random_sweep, grid_sweep, cycle_sweep, complete_sweep


def test_main_scheme_scaling():
    random_sweep, grid_sweep, cycle_sweep, complete_sweep = _run_experiment()

    columns = [
        "n",
        "log2_n",
        "max_advice_bits",
        "avg_advice_bits",
        "rounds",
        "rounds_per_log_n",
        "congest_factor",
        "correct",
    ]
    text = []
    for title, sweep in [
        ("E3a  Theorem 3, random connected graphs", random_sweep),
        ("E3b  Theorem 3, square grids", grid_sweep),
        ("E3c  Theorem 3, cycles", cycle_sweep),
        ("E3d  Theorem 3, complete graphs", complete_sweep),
    ]:
        text.append(format_table(sweep.rows, columns=columns, title=title))
    text.append(
        f"paper bounds: m = 12 bits (our rank-coded variant: "
        f"{ShortAdviceScheme().advice_bound_bits(0):.0f}), t <= 9 ceil(log2 n)"
    )
    publish("E3_main_scheme", "\n\n".join(text))

    all_sweeps = (random_sweep, grid_sweep, cycle_sweep, complete_sweep)
    bound = ShortAdviceScheme().advice_bound_bits(0)
    for sweep in all_sweeps:
        assert all(sweep.series("correct"))
        for row in sweep.rows:
            # constant maximum advice, independent of n and topology
            assert row["max_advice_bits"] <= bound
            # O(log n) rounds, within the paper's 9 ceil(log2 n) budget (+ slack
            # for the final collection wave of our DFS variant)
            assert row["rounds"] <= 9 * math.ceil(math.log2(row["n"])) + 10
            # CONGEST-size messages
            assert row["congest_factor"] <= 20

    # the defining contrast with the trivial scheme: no growth of the maximum
    maxima = random_sweep.series("max_advice_bits")
    assert max(maxima) - min(maxima) <= 3
    # rounds grow with log n but stay within a constant multiple of it
    ratios = random_sweep.series("rounds_per_log_n")
    assert max(ratios) <= 9
