"""Tests of the analysis layer: tables, sweeps and the trade-off report."""

import json

import pytest

from repro.analysis.sweep import run_baseline_sweep, run_scheme_sweep
from repro.analysis.tables import format_markdown_table, format_table
from repro.analysis.tradeoff import theoretical_tradeoff_rows, tradeoff_rows
from repro.core.scheme_main import ShortAdviceScheme
from repro.graphs.generators import random_connected_graph
from repro.runner.tasks import GraphSpec


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": None}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert "22" in lines[-1] and "-" in lines[-1]

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="t")

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_markdown_table(self):
        rows = [{"n": 8, "value": 1.25}]
        text = format_markdown_table(rows)
        assert text.startswith("| n | value |")
        assert "| 8 | 1.25 |" in text
        assert format_markdown_table([]) == "(no rows)"

    def test_rows_are_json_serialisable(self):
        graph = random_connected_graph(20, 0.1, seed=1)
        rows = tradeoff_rows(graph, include_baselines=False, include_level_variant=False)
        json.dumps(rows)  # must not raise


class TestSweeps:
    def test_scheme_sweep_shapes(self):
        result = run_scheme_sweep(
            "trivial",
            sizes=(8, 16, 32),
            graph_factory=GraphSpec("random", 0.1),
            seeds=(0, 1),
        )
        assert len(result.rows) == 3
        assert result.series("n") == [8, 16, 32]
        assert all(result.series("correct"))
        assert all(r == 0 for r in result.series("rounds"))
        assert "trivial-rank" in result.to_text()

    def test_main_scheme_sweep_constant_advice(self):
        result = run_scheme_sweep(
            "theorem3", sizes=(16, 64), seeds=(0,), graph_factory=GraphSpec("random", 0.1)
        )
        assert all(result.series("correct"))
        advice = result.series("max_advice_bits")
        assert advice[-1] <= ShortAdviceScheme().advice_bound_bits(64)

    def test_baseline_sweep(self):
        result = run_baseline_sweep(
            "full-info", sizes=(8, 16), seeds=(0,), graph_factory=GraphSpec("random", 0.2)
        )
        assert all(result.series("correct"))
        assert all(r > 0 for r in result.series("rounds"))
        assert all(r["max_advice_bits"] == 0 for r in result.rows)

    @pytest.mark.parametrize(
        "sweep,target", [(run_scheme_sweep, "trivial"), (run_baseline_sweep, "ghs")]
    )
    def test_empty_seeds_rejected_before_planning(self, monkeypatch, sweep, target):
        import repro.analysis.sweep as sweep_module

        def no_run(*args, **kwargs):
            raise AssertionError("an empty seed list must not reach the runner")

        monkeypatch.setattr(sweep_module, "run_tasks", no_run)
        with pytest.raises(ValueError, match="at least one seed"):
            sweep(target, [16], seeds=())


class TestTradeoff:
    def test_measured_rows_cover_all_schemes(self):
        graph = random_connected_graph(30, 0.1, seed=2)
        rows = tradeoff_rows(graph, include_baselines=True, include_level_variant=True)
        names = [r["scheme"] for r in rows]
        assert names == [
            "trivial-rank",
            "theorem2-average",
            "theorem3-main",
            "theorem3-level",
            "local-full-info",
            "sync-boruvka",
        ]
        assert all(r["correct"] for r in rows)

    def test_measured_rows_reproduce_the_tradeoff_shape(self):
        graph = random_connected_graph(40, 0.08, seed=3)
        rows = {r["scheme"]: r for r in tradeoff_rows(graph, include_level_variant=False)}
        assert rows["trivial-rank"]["rounds"] == 0
        assert rows["theorem2-average"]["rounds"] == 1
        assert rows["theorem3-main"]["rounds"] > 1
        assert rows["theorem3-main"]["rounds"] < rows["sync-boruvka"]["rounds"]
        assert rows["theorem3-main"]["max_advice_bits"] < rows["trivial-rank"]["max_advice_bits"] * 4

    def test_theoretical_rows(self):
        rows = theoretical_tradeoff_rows(1024)
        assert len(rows) == 5
        assert rows[2]["max_advice_bits"] == 10  # trivial scheme at n = 1024
        assert rows[4]["rounds"].endswith(str(9 * 10))
