"""E1 — Theorem 1 / Figure 1: the ``Ω(log n)`` average-advice lower bound.

Regenerates three tables:

* the construction check — for growing ``h``, the family ``G_n`` has the
  spine path as its unique MST under every weight policy;
* the fooling-family pigeonhole — for a fixed instance, the number of
  guaranteed failures of *any* 0-round decoder as a function of the
  advice budget at the target node;
* the scaling of the average-advice lower bound against the average
  advice of the (achievable) trivial scheme — both ``Θ(log n)``.
"""

import math

from conftest import publish

from repro.analysis import format_table
from repro.core.lower_bound import average_advice_lower_bound, run_fooling_experiment
from repro.core.scheme_trivial import TrivialRankScheme
from repro.graphs.lowerbound_family import build_gn
from repro.mst.verify import unique_mst_edge_ids


def _construction_rows():
    rows = []
    for h in (4, 8, 16, 24, 32):
        for policy in ("distinct", "low", "random"):
            inst = build_gn(h, policy=policy, seed=1)
            unique, mst = unique_mst_edge_ids(inst.graph)
            rows.append(
                {
                    "h": h,
                    "n": 2 * h,
                    "policy": policy,
                    "unique_mst": unique,
                    "mst_is_spine": sorted(mst) == inst.expected_mst_edge_ids(),
                }
            )
    return rows


def _pigeonhole_rows(h=16, i=4):
    rows = []
    experiment = run_fooling_experiment(h, i)
    for budget in range(0, math.ceil(math.log2(h - i)) + 2):
        result = experiment.failures(budget)
        rows.append(
            {
                "h": h,
                "target": f"u_{i}",
                "variants": result["num_variants"],
                "advice_bits": budget,
                "required_bits": round(experiment.required_bits, 2),
                "guaranteed_failures": result["min_failures"],
            }
        )
    return rows, experiment


def _scaling_rows():
    rows = []
    scheme = TrivialRankScheme()
    for h in (8, 16, 32, 64, 128):
        inst = build_gn(h)
        stats = scheme.compute_advice(inst.graph, root=inst.v(1)).stats()
        rows.append(
            {
                "h": h,
                "n": 2 * h,
                "log2_n": round(math.log2(2 * h), 2),
                "lower_bound_avg_bits": round(average_advice_lower_bound(h), 3),
                "trivial_scheme_avg_bits": round(stats.average_bits, 3),
            }
        )
    return rows


def _run_experiment():
    return _construction_rows(), _pigeonhole_rows(), _scaling_rows()


def test_lower_bound_family():
    construction, (pigeonhole, experiment), scaling = _run_experiment()

    publish(
        "E1_lower_bound",
        format_table(construction, title="E1a  G_n construction: the spine is the unique MST")
        + "\n\n"
        + format_table(pigeonhole, title="E1b  pigeonhole at the target node (0-round decoders)")
        + "\n\n"
        + format_table(scaling, title="E1c  average advice on G_n: lower bound vs trivial scheme"),
    )

    # construction: unique spine MST in every case
    assert all(r["unique_mst"] and r["mst_is_spine"] for r in construction)

    # fooling family premises hold
    assert experiment.premises_hold

    # pigeonhole: with fewer than log2(h - i) bits there are guaranteed failures,
    # with enough bits the guarantee vanishes
    for row in pigeonhole:
        if row["advice_bits"] < row["required_bits"]:
            assert row["guaranteed_failures"] > 0
    assert pigeonhole[-1]["guaranteed_failures"] == 0 or pigeonhole[-1]["advice_bits"] < math.log2(
        pigeonhole[-1]["variants"]
    )

    # scaling: both curves grow with n, and no 0-round scheme goes below the bound
    bounds = [r["lower_bound_avg_bits"] for r in scaling]
    achieved = [r["trivial_scheme_avg_bits"] for r in scaling]
    assert bounds == sorted(bounds)
    assert achieved == sorted(achieved)
    assert all(a >= b for a, b in zip(achieved, bounds))
