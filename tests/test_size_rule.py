"""Tests of the per-family size rule (`repro.runner.registry.graph_shape`).

The rule says what ``build_graph(family, n, seed)`` realises without
building it; report rendering labels rows with it, so a warm report
builds no graph at all.  These tests pin the rule against real builds
and count the builds a report makes.
"""

import sys
from pathlib import Path

import pytest

import repro.runner.registry as registry
from repro.analysis.sweep import resolve_actual_sizes
from repro.report import compile_tasks, generate_report, load_spec
from repro.runner.registry import GRAPH_FAMILIES, build_graph, graph_shape
from repro.runner.tasks import GraphSpec, clear_graph_memo

SMOKE_SPEC = Path(__file__).resolve().parent.parent / "specs" / "smoke.toml"

#: requested sizes around every power of two a spec is likely to name
SIZES = list(range(2, 81)) + [127, 128, 129, 255, 256, 257, 511, 512, 513]


def _count_builds(monkeypatch) -> list:
    """Count calls of ``registry.build_graph`` through every binding of it."""
    original = registry.build_graph
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    return calls


class TestSizeRule:
    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_rule_matches_the_built_instance(self, family):
        checked = 0
        for n in SIZES:
            for seed in (0, 1):
                try:
                    graph = build_graph(family, n, seed)
                except ValueError:
                    continue  # a size the family rejects (e.g. a cycle below 3)
                assert graph_shape(family, n).n == graph.n, (family, n, seed)
                checked += 1
        assert checked >= 2 * (len(SIZES) - 1)

    @pytest.mark.parametrize(
        "family,requested,realised",
        [
            ("torus", 24, 16),
            ("torus", 15, 9),
            ("torus", 2, 9),
            ("grid", 10, 9),
            ("grid", 2, 4),
            ("hypercube", 40, 32),
            ("hypercube", 48, 64),
            ("hypercube", 1, 2),
            ("gn", 9, 8),
            ("gn", 1, 4),
            ("powerlaw", 1, 2),
            ("random", 37, 37),
        ],
    )
    def test_clamps_and_round_downs(self, family, requested, realised):
        assert graph_shape(family, requested).n == realised

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            graph_shape("moebius", 16)


class TestResolveActualSizes:
    def test_graph_spec_sizes_build_nothing(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        clear_graph_memo()
        assert resolve_actual_sizes(GraphSpec("torus"), [15, 24, 64]) == [9, 16, 64]
        assert calls == []

    def test_ad_hoc_factories_still_build(self):
        built = []

        def factory(n, seed):
            built.append((n, seed))
            return build_graph("hypercube", n, seed)

        assert resolve_actual_sizes(factory, [10, 20], seed=3) == [8, 16]
        assert built == [(10, 3), (20, 3)]


class TestReportBuildCounts:
    def test_cold_builds_once_per_instance_group_and_warm_builds_nothing(
        self, monkeypatch, tmp_path
    ):
        spec = load_spec(SMOKE_SPEC)
        tasks = [task for _, grid in compile_tasks(spec) for task in grid]
        groups = {
            (t.graph.family, t.graph.key_dict()["density"], t.n, t.seed) for t in tasks
        }
        calls = _count_builds(monkeypatch)
        store = str(tmp_path / "store")

        clear_graph_memo()
        generate_report(spec, tmp_path / "cold", cache_dir=store)
        assert len(calls) == len(groups)

        calls.clear()
        clear_graph_memo()
        generate_report(spec, tmp_path / "warm", cache_dir=store)
        assert calls == []
        for path in sorted((tmp_path / "cold").iterdir()):
            assert (tmp_path / "warm" / path.name).read_bytes() == path.read_bytes()
