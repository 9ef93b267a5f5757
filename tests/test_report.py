"""Tests of the declarative report subsystem (`repro.report`).

The core guarantee is the determinism contract: a report is a pure
function of its spec.  The committed golden artifacts under
``tests/golden/report_smoke/`` pin the bytes of ``specs/smoke.toml``'s
output, and the equivalence tests regenerate them serial, parallel and
on the analytic backend — every variant must be byte-identical.
"""

import gc
import json
import re
import weakref
from pathlib import Path

import pytest

from repro.cli import main
from repro.report import (
    LowerBoundExperiment,
    ReportSpec,
    RobustnessExperiment,
    SweepExperiment,
    TradeoffExperiment,
    compile_tasks,
    generate_report,
    load_spec,
    spec_from_dict,
)
from repro.mst.boruvka import BoruvkaTrace
from repro.mst.fragments import FragmentPartition
from repro.mst.rooted_tree import RootedSpanningTree
from repro.runner import tasks as runner_tasks
from repro.runner.tasks import GraphSpec, clear_graph_memo

REPO = Path(__file__).resolve().parent.parent
SMOKE_SPEC = REPO / "specs" / "smoke.toml"
PAPER_SPEC = REPO / "specs" / "paper.toml"
ROBUSTNESS_SPEC = REPO / "specs" / "robustness_smoke.toml"
GOLDEN = REPO / "tests" / "golden" / "report_smoke"
ROBUSTNESS_GOLDEN = REPO / "tests" / "golden" / "robustness_report"


# ------------------------------------------------------------------ #
# spec parsing and validation
# ------------------------------------------------------------------ #


class TestSpecParsing:
    def test_smoke_spec_loads(self):
        spec = load_spec(SMOKE_SPEC)
        assert spec.title.startswith("Smoke report")
        assert spec.backend == "engine"
        assert [e.kind for e in spec.experiments] == [
            "sweep",
            "sweep",
            "tradeoff",
            "lowerbound",
        ]
        assert spec.source == "smoke.toml"

    def test_paper_spec_loads_and_names_new_families(self):
        spec = load_spec(PAPER_SPEC)
        families = {
            e.graph.family for e in spec.experiments if not isinstance(e, LowerBoundExperiment)
        }
        assert {"torus", "hypercube", "powerlaw", "geometric", "random"} <= families
        assert spec.backend == "analytic"

    def test_json_spec_equivalent_to_toml(self, tmp_path):
        data = {
            "title": "t",
            "defaults": {"backend": "analytic"},
            "experiment": [
                {"name": "s", "schemes": ["trivial"], "sizes": [8], "seeds": [0, 7]}
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        spec = load_spec(path)
        assert spec.backend == "analytic"
        assert spec.experiments[0].seeds == (0, 7)

    def test_seeds_count_expands_to_range(self):
        spec = spec_from_dict(
            {
                "title": "t",
                "experiment": [
                    {"name": "s", "schemes": ["trivial"], "sizes": [8], "seeds": 3}
                ],
            }
        )
        assert spec.experiments[0].seeds == (0, 1, 2)

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            ({"title": ""}, "title"),
            ({"defaults": {"backend": "quantum"}}, "backend"),
            ({"experiment": []}, "at least one"),
            ({"bogus_key": 1}, "bogus_key"),
        ],
    )
    def test_invalid_top_level_rejected(self, mutation, needle):
        data = {
            "title": "t",
            "experiment": [
                {"name": "s", "schemes": ["trivial"], "sizes": [8], "seeds": 1}
            ],
        }
        data.update(mutation)
        with pytest.raises(ValueError, match=needle):
            spec_from_dict(data)

    @pytest.mark.parametrize(
        "experiment,needle",
        [
            ({"name": "s", "schemes": ["nope"], "sizes": [8]}, "unknown scheme"),
            ({"name": "s", "baselines": ["nope"], "sizes": [8]}, "unknown baseline"),
            ({"name": "s", "schemes": ["trivial"], "sizes": []}, "sizes"),
            ({"name": "s", "schemes": ["trivial"], "sizes": [8], "typo": 1}, "typo"),
            ({"name": "s", "sizes": [8]}, "at least one scheme"),
            ({"name": "bad/name", "schemes": ["trivial"], "sizes": [8]}, "name"),
            ({"name": "s", "kind": "mystery"}, "mystery"),
            (
                {"name": "s", "schemes": ["trivial"], "sizes": [8],
                 "graph": {"family": "moebius"}},
                "family",
            ),
            ({"name": "s", "kind": "lowerbound", "h": 4, "i": 9}, "2 <= i"),
        ],
    )
    def test_invalid_experiment_rejected(self, experiment, needle):
        with pytest.raises(ValueError, match=needle):
            spec_from_dict({"title": "t", "experiment": [experiment]})

    def test_duplicate_experiment_names_rejected(self):
        e = {"name": "s", "schemes": ["trivial"], "sizes": [8]}
        with pytest.raises(ValueError, match="duplicate"):
            spec_from_dict({"title": "t", "experiment": [e, dict(e)]})

    def test_artifact_name_collision_rejected(self):
        # "lb" (lowerbound) writes lb_pigeonhole.csv; a sweep named
        # "lb_pigeonhole" would clobber it even though the names differ
        experiments = [
            {"name": "lb", "kind": "lowerbound", "h": 6, "i": 2},
            {"name": "lb_pigeonhole", "schemes": ["trivial"], "sizes": [8]},
        ]
        with pytest.raises(ValueError, match="already claims"):
            spec_from_dict({"title": "t", "experiment": experiments})

    def test_index_md_is_a_reserved_artifact_name(self):
        with pytest.raises(ValueError, match="already claims"):
            spec_from_dict(
                {
                    "title": "t",
                    "experiment": [{"name": "index", "schemes": ["trivial"], "sizes": [8]}],
                }
            )

    @pytest.mark.parametrize(
        "experiment",
        [
            {"name": "s", "schemes": ["trivial"], "sizes": [8], "root": [1]},
            {"name": "s", "kind": "tradeoff", "schemes": ["trivial"], "seed": "x"},
            {"name": "s", "kind": "lowerbound", "h": {"v": 4}},
        ],
    )
    def test_non_integer_fields_raise_valueerror_not_typeerror(self, experiment):
        # the CLI only maps ValueError to a clean exit-2 "error:" line
        with pytest.raises(ValueError, match="must be an integer"):
            spec_from_dict({"title": "t", "experiment": [experiment]})

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("title: t")
        with pytest.raises(ValueError, match=".toml or .json"):
            load_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_spec(tmp_path / "nope.toml")


# ------------------------------------------------------------------ #
# task compilation
# ------------------------------------------------------------------ #


class TestCompile:
    def _spec(self, backend="engine"):
        return ReportSpec(
            title="t",
            backend=backend,
            experiments=(
                SweepExperiment(
                    name="s",
                    schemes=("trivial", "theorem3"),
                    baselines=("ghs",),
                    graph=GraphSpec("random", 0.1),
                    sizes=(8, 16),
                    seeds=(0, 1),
                ),
                TradeoffExperiment(
                    name="t6",
                    schemes=("trivial",),
                    baselines=(),
                    graph=GraphSpec("cycle"),
                    n=9,
                ),
                LowerBoundExperiment(name="lb", h=6, i=2),
            ),
        )

    def test_grid_shape_and_order(self):
        compiled = compile_tasks(self._spec())
        names = [name for name, _ in compiled]
        assert names == ["s", "t6", "lb"]
        sweep_tasks = compiled[0][1]
        # schemes-major, then sizes, then seeds; baselines appended
        assert len(sweep_tasks) == 2 * 2 * 2 + 1 * 2 * 2
        assert [t.target for t in sweep_tasks[:4]] == ["trivial"] * 4
        assert [(t.n, t.seed) for t in sweep_tasks[:4]] == [(8, 0), (8, 1), (16, 0), (16, 1)]
        assert all(t.kind == "baseline" for t in sweep_tasks[8:])
        assert compiled[1][1][0].n == 9
        assert compiled[2][1] == []  # lower bound is pure computation

    def test_baselines_follow_the_backend(self):
        for backend in ("analytic", "engine"):
            compiled = compile_tasks(self._spec(), backend=backend)
            sweep_tasks = compiled[0][1]
            assert {t.kind for t in sweep_tasks} == {"scheme", "baseline"}
            assert all(t.backend == backend for t in sweep_tasks)

    def test_every_task_has_a_sha256_key(self):
        for _, tasks in compile_tasks(self._spec()):
            for task in tasks:
                key = task.task_hash()
                assert isinstance(key, str) and len(key) == 64
                assert set(key) <= set("0123456789abcdef")


# ------------------------------------------------------------------ #
# the golden report: byte-identity across jobs and backends
# ------------------------------------------------------------------ #


def _artifact_map(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class TestGoldenReport:
    @pytest.fixture(scope="class")
    def smoke_spec(self):
        return load_spec(SMOKE_SPEC)

    def test_golden_directory_is_complete(self):
        names = set(_artifact_map(GOLDEN))
        assert names == {
            "curves.md",
            "curves.csv",
            "families.md",
            "families.csv",
            "tradeoff.md",
            "tradeoff.csv",
            "lowerbound.md",
            "lowerbound_pigeonhole.csv",
            "lowerbound_curve.csv",
            "index.md",
        }

    @pytest.mark.parametrize(
        "variant,kwargs",
        [
            ("serial-engine", {}),
            ("parallel", {"jobs": 2}),
            ("analytic", {"backend": "analytic"}),
        ],
    )
    def test_regenerated_report_matches_golden(self, smoke_spec, tmp_path, variant, kwargs):
        result = generate_report(smoke_spec, tmp_path / variant, **kwargs)
        assert result.all_correct
        regenerated = _artifact_map(tmp_path / variant)
        golden = _artifact_map(GOLDEN)
        assert set(regenerated) == set(golden)
        for name in sorted(golden):
            assert regenerated[name] == golden[name], f"{variant}: {name} drifted"

    def test_cold_vs_warm_cache_identical(self, smoke_spec, tmp_path):
        cache = tmp_path / "cache"
        cold = generate_report(smoke_spec, tmp_path / "cold", cache_dir=str(cache))
        warm = generate_report(smoke_spec, tmp_path / "warm", cache_dir=str(cache))
        assert cold.all_correct and warm.all_correct
        assert _artifact_map(tmp_path / "cold") == _artifact_map(tmp_path / "warm")
        # the default cache backend is the one-file SQLite store
        assert (cache / "results.sqlite").exists()
        assert list(cache.glob("*.json")) == []

    def test_resumed_report_matches_golden_and_reexecutes_nothing(
        self, smoke_spec, tmp_path, capsys
    ):
        """A report regenerated on its store: same bytes, zero recomputation."""
        cache = tmp_path / "cache"
        first = generate_report(smoke_spec, tmp_path / "first", cache_dir=str(cache))
        resumed = generate_report(
            smoke_spec, tmp_path / "resumed", cache_dir=str(cache), progress=True
        )
        assert first.all_correct and resumed.all_correct
        golden = _artifact_map(GOLDEN)
        assert _artifact_map(tmp_path / "first") == golden
        assert _artifact_map(tmp_path / "resumed") == golden
        # every simulator task of the second run came from the store
        err = capsys.readouterr().err
        total = resumed.tasks_run
        assert f"{total}/{total} done ({total} cached)" in err
        assert "tasks/s" not in err


# ------------------------------------------------------------------ #
# the robustness kind: spec validation and the degradation golden
# ------------------------------------------------------------------ #


class TestRobustnessSpec:
    def test_robustness_smoke_spec_loads(self):
        spec = load_spec(ROBUSTNESS_SPEC)
        assert [e.kind for e in spec.experiments] == ["robustness"]
        exp = spec.experiments[0]
        assert isinstance(exp, RobustnessExperiment)
        assert exp.deltas == (0, 1, 3)
        assert exp.crash_rates == (0.0, 0.125, 0.25)
        assert exp.sizes == (64, 256)

    def test_grid_covers_every_fault_cell_on_the_engine_backend(self):
        spec = load_spec(ROBUSTNESS_SPEC)
        exp = spec.experiments[0]
        (_, tasks), = compile_tasks(spec)
        targets = len(exp.schemes) + len(exp.baselines)
        grid = len(exp.sizes) * len(exp.deltas) * len(exp.crash_rates) * len(exp.seeds)
        assert len(tasks) == targets * grid
        # faults only exist on the engine backend, so the compiler pins it
        assert all(t.backend == "engine" for t in tasks)
        cells = {
            (t.target, t.n, t.fault.delta if t.fault else 0,
             t.fault.crash_rate if t.fault else 0.0)
            for t in tasks
        }
        assert len(cells) == len(tasks)
        # the null corner normalises to a fault-free task: cache hits are
        # shared with plain sweeps of the same scheme
        assert any(t.fault is None for t in tasks)

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            ({"deltas": []}, "deltas"),
            ({"deltas": [-1]}, "deltas"),
            ({"deltas": [True]}, "deltas"),
            ({"crash_rates": []}, "crash_rates"),
            ({"crash_rates": [0.5]}, "crash_rates"),
            ({"recovery": 0}, "recovery"),
            ({"churn": -1}, "churn"),
            ({"problem": "leader", "schemes": ["flag"], "churn": 1}, "MST"),
        ],
    )
    def test_invalid_robustness_fields_rejected(self, mutation, needle):
        experiment = {
            "name": "r",
            "kind": "robustness",
            "schemes": ["trivial"],
            "sizes": [8],
            "seeds": 1,
        }
        experiment.update(mutation)
        with pytest.raises(ValueError, match=needle):
            spec_from_dict({"title": "t", "experiment": [experiment]})


class TestRobustnessGolden:
    """The degradation report is a pure function of its spec.

    These are the pytest half of the CI golden diff: the committed
    artifacts under ``tests/golden/robustness_report/`` pin the exact
    bytes, and serial / parallel / warm-cache regenerations must all
    reproduce them.
    """

    @pytest.fixture(scope="class")
    def robustness_spec(self):
        return load_spec(ROBUSTNESS_SPEC)

    def test_golden_directory_is_complete(self):
        names = set(_artifact_map(ROBUSTNESS_GOLDEN))
        assert names == {"index.md", "mst_degradation.md", "mst_degradation.csv"}

    @pytest.mark.parametrize(
        "variant,kwargs",
        [("serial", {}), ("parallel", {"jobs": 2})],
    )
    def test_regenerated_report_matches_golden(
        self, robustness_spec, tmp_path, variant, kwargs
    ):
        result = generate_report(robustness_spec, tmp_path / variant, **kwargs)
        assert result.all_correct
        regenerated = _artifact_map(tmp_path / variant)
        golden = _artifact_map(ROBUSTNESS_GOLDEN)
        assert set(regenerated) == set(golden)
        for name in sorted(golden):
            assert regenerated[name] == golden[name], f"{variant}: {name} drifted"

    def test_cold_vs_warm_cache_identical(self, robustness_spec, tmp_path):
        cache = tmp_path / "cache"
        cold = generate_report(robustness_spec, tmp_path / "cold", cache_dir=str(cache))
        warm = generate_report(robustness_spec, tmp_path / "warm", cache_dir=str(cache))
        assert cold.all_correct and warm.all_correct
        assert _artifact_map(tmp_path / "cold") == _artifact_map(ROBUSTNESS_GOLDEN)
        assert _artifact_map(tmp_path / "warm") == _artifact_map(ROBUSTNESS_GOLDEN)


# ------------------------------------------------------------------ #
# the CLI command
# ------------------------------------------------------------------ #


class TestSweepActualSize:
    def test_rounding_family_sweep_rows_use_real_sizes(self, tmp_path):
        # hypercube rounds 10 and 20 to 8 and 16: the rows (and the
        # log-derived columns and bounds computed from n) must say so
        spec = spec_from_dict(
            {
                "title": "t",
                "experiment": [
                    {
                        "name": "hc",
                        "kind": "sweep",
                        "schemes": ["trivial"],
                        "graph": {"family": "hypercube"},
                        "sizes": [10, 20],
                        "seeds": 1,
                    }
                ],
            }
        )
        result = generate_report(spec, tmp_path)
        assert result.all_correct
        lines = (tmp_path / "hc.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in lines[1:]] == ["8", "16"]


class TestTradeoffActualSize:
    def test_rounding_family_renders_the_real_instance_size(self, tmp_path):
        # hypercube rounds a requested n=100 to 128: the artifact must
        # report 128 everywhere, not the requested size
        spec = spec_from_dict(
            {
                "title": "t",
                "experiment": [
                    {
                        "name": "hc",
                        "kind": "tradeoff",
                        "n": 100,
                        "schemes": ["trivial"],
                        "graph": {"family": "hypercube"},
                    }
                ],
            }
        )
        result = generate_report(spec, tmp_path)
        assert result.all_correct
        md = (tmp_path / "hc.md").read_text()
        assert "n = 128" in md and "n = 100" not in md
        csv_rows = (tmp_path / "hc.csv").read_text().splitlines()
        assert csv_rows[1].split(",")[1] == "128"


class TestReportCommand:
    def test_report_command_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["report", "--spec", str(SMOKE_SPEC), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "all correct: True" in captured.err
        listed = [Path(line).name for line in captured.out.splitlines() if line]
        assert "index.md" in listed and "curves.md" in listed
        assert (out / "index.md").exists()

    def test_warm_rerun_reports_every_task_cached(self, tmp_path, capsys):
        """``--progress`` on a warm rerun ends in ``N/N done (N cached)``,
        the line CI greps for, and executes nothing."""
        argv = ["report", "--spec", str(SMOKE_SPEC), "--cache-dir", str(tmp_path / "store")]
        assert main(argv + ["--out", str(tmp_path / "cold"), "--progress"]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "warm"), "--progress"]) == 0
        err = capsys.readouterr().err
        assert re.search(r" ([0-9]+)/\1 done \(\1 cached\)$", err, re.MULTILINE)
        assert "tasks/s" not in err
        assert _artifact_map(tmp_path / "warm") == _artifact_map(GOLDEN)

    def test_report_command_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('title = "t"\n')  # no experiments
        code = main(["report", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestInstanceLifetime:
    """Instances die by reference counting once the graph memo lets go.

    Graphs memoise their traces, rooted trees and partitions, which refer
    back to them only weakly; with the cyclic collector off, nothing a
    report derived from an instance may keep it alive.
    """

    @pytest.mark.parametrize("backend", ["engine", "analytic"])
    def test_report_instances_die_without_the_cyclic_gc(self, tmp_path, monkeypatch, backend):
        graphs = []  # every instance built through build_graph
        derived = []  # (kind, ref) of every trace, tree and partition of one

        build = runner_tasks.build_graph

        def tracked_build(*args, **kwargs):
            graph = build(*args, **kwargs)
            graphs.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(runner_tasks, "build_graph", tracked_build)

        def track(cls, graph_of):
            init = cls.__init__

            def tracked_init(self, *args, **kwargs):
                init(self, *args, **kwargs)
                if any(ref() is graph_of(self) for ref in graphs):
                    derived.append((cls.__name__, weakref.ref(self)))

            monkeypatch.setattr(cls, "__init__", tracked_init)

        track(BoruvkaTrace, lambda trace: trace.graph)
        track(RootedSpanningTree, lambda tree: tree.graph)
        track(FragmentPartition, lambda partition: partition.tree.graph)

        clear_graph_memo()
        gc.collect()
        gc.disable()
        try:
            result = generate_report(load_spec(SMOKE_SPEC), tmp_path, backend=backend)
            clear_graph_memo()
            alive = [kind for kind, ref in derived if ref() is not None]
            alive += ["graph" for ref in graphs if ref() is not None]
        finally:
            gc.enable()
        assert result.all_correct
        assert graphs
        assert {kind for kind, _ in derived} == {
            "BoruvkaTrace",
            "RootedSpanningTree",
            "FragmentPartition",
        }
        assert alive == []
