"""Tests of the parallel experiment runner (repro.runner)."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.sweep import run_baseline_sweep, run_scheme_sweep
from repro.core.scheme_trivial import TrivialRankScheme
from repro.distributed.full_info import FullInformationMST
from repro.runner import (
    GraphSpec,
    SQLiteResultStore,
    SweepTask,
    execute_task,
    resolve_baseline,
    resolve_scheme,
    run_tasks,
)
from repro.runner.registry import BASELINES, SCHEMES, build_graph
from repro.simulator.adversary import FaultSpec

SPECS = Path(__file__).resolve().parent.parent / "specs"


class TestRegistry:
    def test_resolve_scheme_by_name_and_instance(self):
        assert resolve_scheme("trivial").name == "trivial-rank"
        with pytest.raises(ValueError, match="registry name"):
            resolve_scheme(TrivialRankScheme())
        with pytest.raises(ValueError):
            resolve_scheme("nope")

    def test_resolve_baseline(self):
        assert resolve_baseline("full-info").name == "local-full-info"
        with pytest.raises(ValueError, match="registry name"):
            resolve_baseline(FullInformationMST())
        with pytest.raises(ValueError):
            resolve_baseline("nope")

    @pytest.mark.parametrize("family", ["random", "complete", "cycle", "grid", "geometric", "gn"])
    def test_graph_families_build_connected_instances(self, family):
        graph = build_graph(family, 20, seed=1, density=0.1)
        graph.validate()
        assert graph.is_connected()

    def test_registries_nonempty(self):
        assert set(SCHEMES) >= {"trivial", "theorem2", "theorem3"}
        assert set(BASELINES) >= {"ghs", "full-info"}


class TestGraphSpec:
    def test_spec_builds_the_registry_instance(self):
        spec = GraphSpec("random", 0.1)
        graph = spec.build(16, 3)
        assert graph.n == 16
        assert graph.wiring_table() == build_graph("random", 16, 3, 0.1).wiring_table()
        assert spec.build(16, 3) is graph  # memoised per process
        assert not callable(spec)  # a spec describes a family; it is not a factory

    def test_spec_is_hashable_and_comparable(self):
        assert GraphSpec("cycle") == GraphSpec("cycle")
        assert len({GraphSpec("cycle"), GraphSpec("cycle"), GraphSpec("grid")}) == 2


class TestTaskHashing:
    def test_hash_is_stable_and_discriminates(self):
        task = SweepTask("scheme", "trivial", GraphSpec("random", 0.1), 16, 0)
        same = SweepTask("scheme", "trivial", GraphSpec("random", 0.1), 16, 0)
        assert task.task_hash() == same.task_hash()
        assert task.task_hash() != SweepTask("scheme", "trivial", GraphSpec("random", 0.1), 16, 1).task_hash()
        assert task.task_hash() != SweepTask("scheme", "theorem2", GraphSpec("random", 0.1), 16, 0).task_hash()
        assert task.task_hash() != SweepTask("scheme", "trivial", GraphSpec("random", 0.2), 16, 0).task_hash()

    def test_density_is_ignored_in_keys_of_density_free_families(self):
        # cycle graphs do not depend on density: same workload, same key
        a = SweepTask("scheme", "trivial", GraphSpec("cycle", 0.05), 16, 0)
        b = SweepTask("scheme", "trivial", GraphSpec("cycle", 0.03), 16, 0)
        assert a.task_hash() == b.task_hash()
        # ... but random graphs do
        c = SweepTask("scheme", "trivial", GraphSpec("random", 0.05), 16, 0)
        d = SweepTask("scheme", "trivial", GraphSpec("random", 0.03), 16, 0)
        assert c.task_hash() != d.task_hash()
        # densities above 1.0 are clamped by build_graph, and the key agrees
        e = SweepTask("scheme", "trivial", GraphSpec("random", 1.5), 16, 0)
        f = SweepTask("scheme", "trivial", GraphSpec("random", 1.0), 16, 0)
        assert e.task_hash() == f.task_hash()

    def test_key_includes_library_version(self, monkeypatch):
        # a new release must never serve rows produced by an older one
        import repro

        task = SweepTask("scheme", "trivial", GraphSpec("random", 0.1), 16, 0)
        before = task.task_hash()
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert task.task_hash() != before

    def test_task_keys_match_the_pinned_fingerprint(self, monkeypatch):
        # every stored row stays a hit and every service job id stays
        # stable only while the key format does: pin the keys of the
        # committed specs, their job ids and a few edge tasks
        import repro
        from repro.report import compile_tasks, load_spec
        from repro.service.queue import run_id_for

        monkeypatch.setattr(repro, "__version__", "0.0.0-fingerprint")
        digest = hashlib.sha256()
        for name in ("paper", "smoke", "problems", "robustness_smoke"):
            grid = compile_tasks(load_spec(SPECS / f"{name}.toml"))
            keys = [task.task_hash() for _, tasks in grid for task in tasks]
            digest.update(("\n".join(keys) + "\n" + run_id_for(keys) + "\n").encode())
        edge_tasks = [
            SweepTask("scheme", "leader/flag", GraphSpec("random", 0.1), 16, 0),
            SweepTask("scheme", "theorem3", GraphSpec("cycle", 0.3), 24, 1),
            SweepTask("scheme", "trivial", GraphSpec("random", 1.5), 16, 2),
            SweepTask("scheme", "theorem3", GraphSpec("hypercube"), 32, 0, backend="analytic"),
            SweepTask("baseline", "ghs", GraphSpec(), 16, 3, fault=FaultSpec(delta=2, crash_rate=0.1)),
            SweepTask("scheme", "theorem2", GraphSpec("grid"), 16, 0, root=5),
        ]
        digest.update("\n".join(task.task_hash() for task in edge_tasks).encode())
        assert digest.hexdigest() == (
            "fa3a8a3523516e7ffa40edb15b403aac637a4a5056b8b9fe313e3c13efe9f645"
        )

    def test_non_name_targets_and_factory_graphs_are_rejected(self):
        with pytest.raises(ValueError, match="registry name"):
            SweepTask("scheme", TrivialRankScheme(), GraphSpec("random", 0.1), 16, 0)
        with pytest.raises(ValueError, match="GraphSpec"):
            SweepTask("scheme", "trivial", lambda n, seed: build_graph("cycle", n, seed), 16, 0)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            SweepTask("wat", "trivial", GraphSpec(), 8, 0)


class TestExecuteTask:
    def test_scheme_row_shape(self):
        row = execute_task(SweepTask("scheme", "trivial", GraphSpec("random", 0.1), 16, 0))
        assert row["kind"] == "scheme"
        assert row["correct"] is True
        assert row["rounds"] == 0
        assert row["n"] == 16 and row["seed"] == 0
        json.dumps(row)  # must be JSON-able for the cache

    def test_baseline_row_shape(self):
        row = execute_task(SweepTask("baseline", "full-info", GraphSpec("random", 0.1), 12, 1))
        assert row["kind"] == "baseline"
        assert row["correct"] is True
        assert "round_bound" in row


class TestRunTasks:
    TASKS = [
        SweepTask("scheme", "trivial", GraphSpec("random", 0.1), n, seed)
        for n in (8, 16)
        for seed in (0, 1)
    ]

    def test_results_in_task_order(self):
        rows = run_tasks(self.TASKS, jobs=1)
        assert [(r["n"], r["seed"]) for r in rows] == [(8, 0), (8, 1), (16, 0), (16, 1)]

    def test_parallel_matches_serial_byte_for_byte(self):
        serial = run_tasks(self.TASKS, jobs=1)
        parallel = run_tasks(self.TASKS, jobs=2)
        assert json.dumps(serial) == json.dumps(parallel)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_tasks(self.TASKS, jobs=0)

    def test_sqlite_cache_round_trip_is_the_default(self, tmp_path):
        fresh = run_tasks(self.TASKS, jobs=1, cache_dir=tmp_path)
        assert list(tmp_path.glob("*.json")) == []  # one sqlite file, not files
        assert (tmp_path / "results.sqlite").exists()
        store = SQLiteResultStore(tmp_path)
        cached = run_tasks(self.TASKS, jobs=1, cache_dir=store)
        assert store.hits == len(self.TASKS)
        assert json.dumps(fresh) == json.dumps(cached)

    def test_cold_and_warm_store_rows_are_byte_identical(self, tmp_path):
        cold_serial = run_tasks(self.TASKS, cache_dir=tmp_path / "serial")
        cold_parallel = run_tasks(self.TASKS, jobs=2, cache_dir=tmp_path / "parallel")
        store = SQLiteResultStore(tmp_path / "serial")
        warm_parallel = run_tasks(self.TASKS, jobs=2, cache_dir=store)
        assert store.hits == len(self.TASKS) and store.misses == 0
        blobs = {json.dumps(rows) for rows in (cold_serial, cold_parallel, warm_parallel)}
        assert len(blobs) == 1

    def test_corrupt_stored_row_is_recomputed(self, tmp_path):
        import sqlite3
        from contextlib import closing

        (fresh,) = run_tasks(self.TASKS[:1], cache_dir=tmp_path)
        store = SQLiteResultStore(tmp_path)
        key = self.TASKS[0].task_hash()
        store.close()
        with closing(sqlite3.connect(store.path)) as conn:
            with conn:
                conn.execute("UPDATE results SET result = ? WHERE key = ?", ("{not json", key))
        store = SQLiteResultStore(tmp_path)
        (rows,) = run_tasks(self.TASKS[:1], cache_dir=store)
        assert store.misses == 1 and store.hits == 0
        assert json.dumps(rows) == json.dumps(fresh)
        assert SQLiteResultStore(tmp_path).get(key) == fresh  # rewritten

    def test_every_task_is_stored_under_its_hash(self, tmp_path):
        rows = run_tasks(self.TASKS, cache_dir=tmp_path)
        store = SQLiteResultStore(tmp_path)
        assert store.stats()["rows"] == len(self.TASKS)
        for task, row in zip(self.TASKS, rows):
            assert store.get(task.task_hash()) == row


class TestSweepRouting:
    def test_scheme_sweep_serial_vs_parallel_identical(self):
        kwargs = dict(
            sizes=(8, 16),
            graph_factory=GraphSpec("random", 0.1),
            seeds=(0, 1),
        )
        serial = run_scheme_sweep("trivial", jobs=1, **kwargs)
        parallel = run_scheme_sweep("trivial", jobs=2, **kwargs)
        assert json.dumps(serial.rows) == json.dumps(parallel.rows)

    def test_baseline_sweep_serial_vs_parallel_identical(self):
        kwargs = dict(sizes=(8,), graph_factory=GraphSpec("random", 0.1), seeds=(0, 1))
        serial = run_baseline_sweep("full-info", jobs=1, **kwargs)
        parallel = run_baseline_sweep("full-info", jobs=2, **kwargs)
        assert json.dumps(serial.rows) == json.dumps(parallel.rows)

    def test_sweeps_reject_instances_and_closures(self):
        # instances run through run_scheme/run_baseline; a sweep takes names
        closure = lambda n, seed: build_graph("cycle", n, seed)  # noqa: E731
        with pytest.raises(ValueError, match="registry name"):
            run_scheme_sweep(TrivialRankScheme(), sizes=(8,), seeds=(0,))
        with pytest.raises(ValueError, match="registry name"):
            run_baseline_sweep(FullInformationMST(), sizes=(8,), seeds=(0,))
        with pytest.raises(ValueError, match="GraphSpec"):
            run_scheme_sweep("trivial", sizes=(8,), graph_factory=closure, seeds=(0,))
        with pytest.raises(ValueError, match="GraphSpec"):
            run_baseline_sweep("full-info", sizes=(8,), graph_factory=closure, seeds=(0,))

    def test_sweep_cache_reuse(self, tmp_path):
        kwargs = dict(sizes=(8, 16), graph_factory=GraphSpec("random", 0.1), seeds=(0, 1))
        first = run_scheme_sweep("trivial", cache_dir=tmp_path, **kwargs)
        cache = SQLiteResultStore(tmp_path)
        second = run_scheme_sweep("trivial", cache_dir=cache, **kwargs)
        assert cache.hits == 4
        assert json.dumps(first.rows) == json.dumps(second.rows)
