"""The decision rule of ``scripts/perf_gate.py``, on synthetic samples.

No benchmark runs here: each test builds the perfbench results of a few
pairs by hand and asks the gate whether the head regressed.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("perf_gate", ROOT / "scripts" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)

END_TO_END = perf_gate.load_end_to_end(ROOT)
K = len(perf_gate.SEEDS)
#: one plausible ``sweep`` result, the starting point of every sample
BASE_VALUES = {"setup_s": 0.4, "runs_per_s": 50.0, "latency_s": 0.3, "peak_rss_mb": 116.0}


def _result(correct=True, **overrides):
    values = {**BASE_VALUES, **overrides}
    return {
        "correct": correct,
        "attempted": 100,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    }


def _decide(base, head, end_to_end=END_TO_END):
    failures, _ = perf_gate.decide({"sweep": {"base": base, "head": head}}, end_to_end)
    return failures


def _slower(pairs_lost, factor=1.5):
    """Head latency ``factor`` times the base's in ``pairs_lost`` pairs, a bit faster in the rest."""
    base = [_result() for _ in range(K)]
    head = [
        _result(latency_s=BASE_VALUES["latency_s"] * (factor if pair < pairs_lost else 0.99))
        for pair in range(K)
    ]
    return base, head


def test_equal_samples_pass():
    assert _decide([_result() for _ in range(K)], [_result() for _ in range(K)]) == []


def test_head_worse_than_the_bound_in_every_pair_fails():
    failures = _decide(*_slower(K))
    assert len(failures) == 1
    assert "latency_s" in failures[0] and f"lost {K} of {K}" in failures[0]


def test_head_worse_in_all_but_one_pair_fails():
    failures = _decide(*_slower(K - 1))
    assert len(failures) == 1 and "latency_s" in failures[0]


def test_head_worse_in_only_k_minus_2_pairs_passes():
    base, head = _slower(K - 2)
    # the median alone would call it a regression; the pair count does not
    median_change = perf_gate.worse_by(
        BASE_VALUES["latency_s"],
        statistics.median(r["metrics"]["latency_s"]["value"] for r in head),
        "lower",
    )
    assert median_change > 0.25
    assert _decide(base, head) == []


def test_head_worse_within_the_bound_in_every_pair_passes():
    assert _decide(*_slower(K, factor=1.2)) == []


def test_falling_higher_is_better_metric_fails():
    base = [_result() for _ in range(K)]
    head = [_result(runs_per_s=BASE_VALUES["runs_per_s"] * 0.6) for _ in range(K)]
    failures = _decide(base, head)
    assert len(failures) == 1 and "runs_per_s" in failures[0]


def test_rising_higher_is_better_metric_passes():
    base = [_result() for _ in range(K)]
    head = [_result(runs_per_s=BASE_VALUES["runs_per_s"] * 2) for _ in range(K)]
    assert _decide(base, head) == []


@pytest.mark.parametrize("side", perf_gate.SIDES)
def test_a_side_with_incorrect_outputs_fails(side):
    samples = {"base": [_result() for _ in range(K)], "head": [_result() for _ in range(K)]}
    samples[side][K // 2] = _result(correct=False)
    failures = _decide(samples["base"], samples["head"])
    assert failures == [f"sweep: 1 {side} run(s) failed their checks"]


def test_a_crashed_run_counts_as_failed(tmp_path):
    # a checkout whose benchmark prints no JSON result: the stand-in fails
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    result = perf_gate.run_benchmark(tmp_path, "sweep", 1)
    assert result["correct"] is False
    assert _decide([_result()] * K, [_result()] * (K - 1) + [result]) == [
        "sweep: 1 head run(s) failed their checks"
    ]


def test_bounds_are_read_from_benchmark_json(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert END_TO_END == declared
    assert {m["name"] for m in END_TO_END} == set(BASE_VALUES)
    # the same 50% slowdown passes once BENCHMARK.json allows it
    loose = [{**metric, "bound": 0.9} for metric in declared]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": loose}))
    assert _decide(*_slower(K), end_to_end=perf_gate.load_end_to_end(tmp_path)) == []
    assert _decide(*_slower(K)) != []


def test_schedule_alternates_sides_and_shares_seeds():
    runs = perf_gate.schedule()
    assert len(runs) == K * len(perf_gate.WORKLOADS)
    assert [seed for seed, _, _ in runs[:: len(perf_gate.WORKLOADS)]] == list(perf_gate.SEEDS)
    orders = [order for _, _, order in runs]
    assert orders[0] == ("base", "head")
    assert orders[len(perf_gate.WORKLOADS)] == ("head", "base")
    assert {workload for _, workload, _ in runs} == {"sweep", "paper"}


def test_prepare_gives_both_sides_the_heads_benchmark(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for checkout, tag in ((base, "old"), (head, "new")):
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(tag)
        (checkout / "BENCHMARK.json").write_text(tag)
    (base / "perfbench" / "stale.py").write_text("old")
    perf_gate.prepare(base, head)
    assert (base / "perfbench" / "run.py").read_text() == "new"
    assert (base / "BENCHMARK.json").read_text() == "new"
    assert not (base / "perfbench" / "stale.py").exists()


def test_prepare_gives_both_sides_the_same_bytecode(tmp_path):
    # only the base held bytecode, one file of it without a source
    base, head = tmp_path / "base", tmp_path / "head"
    for checkout in (base, head):
        (checkout / "src" / "pkg").mkdir(parents=True)
        (checkout / "src" / "pkg" / "mod.py").write_text("VALUE = 1\n")
        (checkout / "perfbench").mkdir()
        (checkout / "perfbench" / "run.py").write_text("RUN = 1\n")
        (checkout / "BENCHMARK.json").write_text("{}")
    stale = base / "src" / "pkg" / "__pycache__"
    stale.mkdir()
    (stale / "gone.cpython-0.pyc").write_bytes(b"stale")
    perf_gate.prepare(base, head)

    def bytecode(checkout):
        return sorted(str(path.relative_to(checkout)) for path in checkout.rglob("*.pyc"))

    expected = sorted(
        str(Path(importlib.util.cache_from_source(str(head / name))).relative_to(head))
        for name in ("perfbench/run.py", "src/pkg/mod.py")
    )
    assert bytecode(base) == bytecode(head) == expected


def test_usage_errors_exit_2(tmp_path, capsys):
    assert perf_gate.main([]) == 2
    assert "usage" in capsys.readouterr().err
    assert perf_gate.main([str(tmp_path), str(tmp_path)]) == 2
    assert "not a checkout" in capsys.readouterr().err
