"""The benchmark's own tests.

Kept out of the repository's tier-1 collection (the file name does not
match ``test_*.py``); run them by path::

    python3 -m pytest perfbench/check_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from layers import layer_metrics  # noqa: E402
from spans import Span, Tracer, chrome_trace, self_times, union_length  # noqa: E402
from workloads import (  # noqa: E402
    SCALES,
    WORKLOADS,
    compute_tasks,
    paper_spec_data,
    rows_digest,
    service_spec_data,
)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_names_and_units_follow_the_benchmark_format():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    bounds = [m["bound"] for m in DECLARED["end_to_end"]]
    assert all(0 < bound <= 0.25 for bound in bounds)
    assert setup[0]["bound"] == max(bounds)
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr[-3000:]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_smoke_emits_every_declared_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def task_hashes(scale, workload, seed, unit=0):
    """Content hashes of the tasks one request hands the program."""
    from repro.report.pipeline import compile_tasks
    from repro.report.spec import spec_from_dict

    if workload == "sweep":
        return [task.task_hash() for task in compute_tasks(scale, workload, seed, unit)]
    make = service_spec_data if workload == "service" else paper_spec_data
    spec = spec_from_dict(make(scale, seed, unit))
    return [task.task_hash() for _, tasks in compile_tasks(spec) for task in tasks]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_seed_changes_the_generated_tasks(workload):
    scale = SCALES["tiny"]
    assert task_hashes(scale, workload, 1) == task_hashes(scale, workload, 1)
    assert task_hashes(scale, workload, 1) != task_hashes(scale, workload, 2)
    assert task_hashes(scale, workload, 1, 0) != task_hashes(scale, workload, 1, 1)


def test_same_seed_reproduces_the_digest():
    from repro.runner.runner import run_tasks
    from repro.runner.tasks import clear_graph_memo

    def digest(seed):
        clear_graph_memo()
        return rows_digest(run_tasks(compute_tasks(SCALES["tiny"], "sweep", seed, 0)))

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_self_time_on_a_synthetic_nested_trace():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 9]; the first child has a grandchild [2, 3]
    spans = [
        Span(1, None, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),
        Span(4, 1, "c", 8.0, 9.0),
        Span(5, 2, "d", 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 6
    bench_unit = [Span(1, None, "bench.unit", 0.0, 10.0, run=1), Span(2, 1, "mst.trace", 0.0, 4.0, run=1)]
    metrics = layer_metrics(bench_unit, units=1)
    assert metrics["mst.trace_s"] == 4.0 and metrics["mst.traces"] == 1
    assert metrics["trace.uncovered_frac"] == pytest.approx(0.6)
    events = chrome_trace(spans)["traceEvents"]
    assert [e["dur"] for e in events] == [10e6, 3e6, 3e6, 1e6, 1e6]


def test_tracer_wraps_every_binding_and_restores_it():
    import repro.problems.verify as verify
    import repro.simulator.analytic as analytic
    from repro.mst.kruskal import kruskal_mst

    tracer = Tracer()
    assert tracer.patch_function(kruskal_mst, "mst.kruskal") >= 2
    assert verify.kruskal_mst is analytic.kruskal_mst is not kruskal_mst
    from repro.graphs.generators import random_connected_graph

    verify.kruskal_mst(random_connected_graph(16, 0.2, seed=1))
    tracer.restore()
    assert verify.kruskal_mst is kruskal_mst and analytic.kruskal_mst is kruskal_mst
    assert [span.name for span in tracer.spans] == ["mst.kruskal"]
