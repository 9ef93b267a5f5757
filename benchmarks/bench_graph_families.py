"""E8 — scenario coverage: theorem3 across structurally extreme families.

The paper's bounds are per-instance, so they must hold on every family
the generators can produce, not just the random-connected workhorse.
This experiment runs the Theorem-3 scheme over the family zoo — flat
bounded-degree (torus), log-diameter regular (hypercube), hub-heavy
power-law, the geometric "sensor network" workload, and the baseline
random family — through the report pipeline's task grid, and asserts
the bounds on each.
"""

from conftest import publish

from repro.analysis import format_table
from repro.analysis.sweep import aggregate_scheme_rows
from repro.runner.registry import resolve_scheme
from repro.runner.runner import run_tasks
from repro.runner.tasks import GraphSpec, SweepTask, clear_graph_memo

FAMILIES = ("random", "torus", "hypercube", "powerlaw", "geometric")
SIZES = (64, 128, 256)
SEEDS = (0, 1)


def _run_experiment():
    clear_graph_memo()
    tasks = [
        SweepTask(
            kind="scheme",
            target="theorem3",
            graph=GraphSpec(family, 0.05),
            n=n,
            seed=seed,
        )
        for family in FAMILIES
        for n in SIZES
        for seed in SEEDS
    ]
    raw = run_tasks(tasks)
    scheme = resolve_scheme("theorem3")
    per_family = len(SIZES) * len(SEEDS)
    rows = []
    for index, family in enumerate(FAMILIES):
        chunk = raw[index * per_family : (index + 1) * per_family]
        for row in aggregate_scheme_rows(scheme, SIZES, len(SEEDS), chunk):
            rows.append({"family": family, **row})
    return rows


def test_theorem3_family_zoo():
    rows = _run_experiment()

    publish(
        "E8_graph_families",
        format_table(
            rows,
            columns=[
                "family",
                "n",
                "max_advice_bits",
                "rounds",
                "rounds_per_log_n",
                "congest_factor",
                "correct",
            ],
            title="E8  theorem3 across the family zoo",
        ),
    )

    assert all(row["correct"] for row in rows)
    for row in rows:
        # Theorem 3's contract on every family: constant-bounded advice,
        # rounds within the declared 9-log-n-flavoured budget
        assert row["max_advice_bits"] <= row["advice_bound"], row["family"]
        assert row["rounds"] <= row["round_bound"], row["family"]
