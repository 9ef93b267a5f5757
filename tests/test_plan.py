"""Tests of the instance-grouped batch executor (repro.runner.plan)."""

import json
import sys

import pytest

from repro.runner import (
    ExecutionStats,
    GraphSpec,
    SQLiteResultStore,
    SweepTask,
    execute_task,
    plan_groups,
    run_tasks,
)
from repro.mst.boruvka import boruvka_trace
from repro.mst.kruskal import kruskal_mst
from repro.runner.plan import instance_key
from repro.runner.registry import build_graph
from repro.runner.tasks import clear_graph_memo

SCHEMES = ("trivial", "theorem2", "theorem3", "theorem3-level")
BASELINES = ("ghs", "full-info")


def _mixed_grid():
    """Schemes on both backends plus a baseline, over a shared seed grid."""
    tasks = [
        SweepTask("scheme", target, GraphSpec("random", 0.1), n, seed, backend=backend)
        for n in (12, 20)
        for seed in (0, 1)
        for target in ("trivial", "theorem2", "theorem3", "theorem3-level")
        for backend in ("engine", "analytic")
    ]
    tasks += [
        SweepTask("baseline", name, GraphSpec("random", 0.1), n, seed)
        for n in (12, 20)
        for seed in (0, 1)
        for name in ("ghs", "full-info")
    ]
    return tasks


def _point_tasks(family, num_seeds, n=16, backend="analytic", density=0.2):
    """Every scheme and baseline of one sweep point over ``num_seeds`` seeds."""
    tasks = [
        SweepTask("scheme", target, GraphSpec(family, density), n, seed, backend=backend)
        for seed in range(num_seeds)
        for target in SCHEMES
    ]
    tasks += [
        SweepTask("baseline", name, GraphSpec(family, density), n, seed)
        for seed in range(num_seeds)
        for name in BASELINES
    ]
    return tasks


def _isolated_rows(tasks):
    """The reference rows: every task on a freshly built instance.

    The graph memo is cleared before each task, so no trace, rooted tree,
    Kruskal MST or advice is shared between tasks — unlike the grouped
    path, where one instance carries all of them for its whole group.
    """
    rows = []
    for task in tasks:
        clear_graph_memo()
        rows.append(execute_task(task))
    clear_graph_memo()
    return rows


def _spy(monkeypatch, fn, record):
    """Route every ``repro`` module binding of ``fn`` through ``record(graph)``."""

    def spy(graph, *args, **kwargs):
        record(graph)
        return fn(graph, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)


class TestPlanGroups:
    def test_groups_partition_the_task_list(self):
        tasks = _mixed_grid()
        groups = plan_groups(tasks)
        covered = sorted(i for g in groups for i in g.indices)
        assert covered == list(range(len(tasks)))
        # 2 sizes x 2 seeds = 4 shared instances
        assert len(groups) == 4
        for group in groups:
            keys = {instance_key(task) for task in group.tasks}
            assert len(keys) == 1

    def test_groups_preserve_first_seen_order(self):
        tasks = _mixed_grid()
        groups = plan_groups(tasks)
        first_indices = [g.indices[0] for g in groups]
        assert first_indices == sorted(first_indices)
        # within a group, indices stay in task order
        for group in groups:
            assert list(group.indices) == sorted(group.indices)

    def test_closure_tasks_become_singleton_groups(self):
        factory = lambda n, seed: build_graph("cycle", n, seed)  # noqa: E731
        tasks = [
            SweepTask("scheme", "trivial", factory, 8, 0),
            SweepTask("scheme", "trivial", factory, 8, 0),
        ]
        groups = plan_groups(tasks)
        assert [g.indices for g in groups] == [(0,), (1,)]
        assert all(g.key is None for g in groups)

    def test_density_normalisation_matches_task_identity(self):
        # density shapes only the "random" family, so cycle specs with
        # different densities describe the same instance -> one group
        a = SweepTask("scheme", "trivial", GraphSpec("cycle", 0.05), 8, 0)
        b = SweepTask("scheme", "theorem2", GraphSpec("cycle", 0.9), 8, 0)
        assert instance_key(a) == instance_key(b)
        c = SweepTask("scheme", "trivial", GraphSpec("random", 0.05), 8, 0)
        d = SweepTask("scheme", "trivial", GraphSpec("random", 0.9), 8, 0)
        assert instance_key(c) != instance_key(d)

    def test_each_seed_of_a_point_is_one_group(self):
        tasks = _point_tasks("random", 5)
        groups = plan_groups(tasks)
        assert len(groups) == 5
        for seed, group in enumerate(groups):
            assert {task.seed for task in group.tasks} == {seed}
            assert len(group.tasks) == len(SCHEMES) + len(BASELINES)

    def test_partial_treatment_sets_still_group_by_instance(self):
        # seed 1 lost a treatment (e.g. to a cache hit): grouping only
        # looks at the instance, not at which treatments remain
        tasks = [
            SweepTask("scheme", "trivial", GraphSpec("random", 0.2), 12, 0),
            SweepTask("scheme", "theorem3", GraphSpec("random", 0.2), 12, 0),
            SweepTask("scheme", "trivial", GraphSpec("random", 0.2), 12, 1),
        ]
        assert [g.indices for g in plan_groups(tasks)] == [(0, 1), (2,)]

    def test_roots_share_one_instance_group(self):
        tasks = [
            SweepTask("scheme", target, GraphSpec("random", 0.2), 12, 0, root=root)
            for root in (0, 5, 11)
            for target in ("trivial", "theorem3")
        ]
        (group,) = plan_groups(tasks)
        assert group.indices == tuple(range(len(tasks)))
        # per-root traces and advice inside one context: rows unchanged
        assert json.dumps(run_tasks(tasks)) == json.dumps(_isolated_rows(tasks))

    def test_problems_share_one_instance_group(self):
        tasks = [
            SweepTask("scheme", target, GraphSpec("random", 0.2), 12, seed)
            for seed in (0, 1)
            for target in ("leader/rank", "trivial", "theorem3")
        ]
        groups = plan_groups(tasks)
        assert [g.indices for g in groups] == [(0, 1, 2), (3, 4, 5)]
        assert json.dumps(run_tasks(tasks)) == json.dumps(_isolated_rows(tasks))


class TestGroupedMatchesIsolated:
    """Every scheme plus the baselines over three graph families and three
    seed counts: grouping is observable only as speed."""

    @pytest.mark.parametrize("family", ["random", "powerlaw", "hypercube"])
    @pytest.mark.parametrize("num_seeds", [1, 5, 16])
    def test_grouped_rows_equal_isolated_rows(self, family, num_seeds):
        tasks = _point_tasks(family, num_seeds)
        reference = _isolated_rows(tasks)
        assert json.dumps(run_tasks(tasks)) == json.dumps(reference)

    def test_engine_backend_rows_are_identical_too(self):
        # the engine backend shares traces and advice across the group
        # as well; rounds/messages must not shift by a bit
        tasks = _point_tasks("random", 4, n=12, backend="engine")
        reference = _isolated_rows(tasks)
        assert json.dumps(run_tasks(tasks)) == json.dumps(reference)

    def test_parallel_grouped_rows_are_identical(self):
        tasks = _point_tasks("random", 6, n=12)
        serial = run_tasks(tasks)
        parallel = run_tasks(tasks, jobs=2)
        assert json.dumps(serial) == json.dumps(parallel)

    def test_heterogeneous_grid_keeps_sizes_apart(self):
        # two sizes: the seeds of each size form their own groups
        tasks = [
            SweepTask("scheme", "theorem3", GraphSpec("random", 0.2), n, seed)
            for n in (12, 20)
            for seed in (0, 1, 2)
        ]
        groups = plan_groups(tasks)
        assert len(groups) == 6
        assert all(len({t.n for t in g.tasks}) == 1 for g in groups)
        reference = _isolated_rows(tasks)
        assert json.dumps(run_tasks(tasks)) == json.dumps(reference)


class TestGroupedExecution:
    def test_grouped_serial_parallel_and_ungrouped_are_byte_identical(self):
        tasks = _mixed_grid()
        grouped = run_tasks(tasks)
        # the ungrouped reference: every task in its own fresh context
        ungrouped = [execute_task(task) for task in tasks]
        parallel = run_tasks(tasks, jobs=4)
        assert json.dumps(grouped) == json.dumps(ungrouped)
        assert json.dumps(grouped) == json.dumps(parallel)

    def test_execute_task_matches_grouped_row(self):
        task = SweepTask("scheme", "theorem3", GraphSpec("random", 0.1), 16, 3)
        (grouped_row,) = run_tasks([task])
        assert json.dumps(execute_task(task)) == json.dumps(grouped_row)

    def test_stats_report_groups_and_stages(self):
        from repro.runner.tasks import clear_graph_memo

        clear_graph_memo()
        tasks = _mixed_grid()
        stats = ExecutionStats()
        run_tasks(tasks, stats=stats)
        assert stats.groups == 4
        assert stats.cache_misses == len(tasks) and stats.cache_hits == 0

    def test_stats_count_one_group_per_seed(self):
        clear_graph_memo()
        tasks = _point_tasks("random", 4)
        stats = ExecutionStats()
        run_tasks(tasks, stats=stats)
        assert stats.groups == 4
        assert stats.cache_misses == len(tasks) and stats.cache_hits == 0

    def test_parallel_stats_merge_worker_stages(self):
        tasks = _point_tasks("random", 4)
        stats = ExecutionStats()
        run_tasks(tasks, jobs=2, stats=stats)
        # the groups ran in the workers and are counted here
        assert stats.groups == 4
        assert stats.cache_misses == len(tasks)

    def test_warm_cache_skips_group_construction_entirely(self, tmp_path):
        tasks = [
            SweepTask("scheme", target, GraphSpec("random", 0.1), 12, seed)
            for seed in (0, 1)
            for target in ("trivial", "theorem3")
        ]
        cold = ExecutionStats()
        first = run_tasks(tasks, cache_dir=tmp_path, stats=cold)
        assert cold.groups == 2 and cold.cache_misses == len(tasks)

        warm = ExecutionStats()
        cache = SQLiteResultStore(tmp_path)
        second = run_tasks(tasks, cache_dir=cache, stats=warm)
        assert cache.hits == len(tasks)
        assert warm.groups == 0  # no group was ever constructed
        assert json.dumps(first) == json.dumps(second)

    def test_traced_group_makes_no_kruskal_pass(self, monkeypatch):
        # trivial runs first but finds the MST the group's trace left in
        # the Kruskal memo: no kruskal_mst call starts from an empty memo
        tasks = [
            SweepTask("scheme", target, GraphSpec("random", 0.1), 64, 3, backend="analytic")
            for target in SCHEMES
        ]
        reference = _isolated_rows(tasks)
        passes = []

        def record(graph):
            if getattr(graph, "_kruskal_cache", None) is None:
                passes.append(graph)

        _spy(monkeypatch, kruskal_mst, record)
        clear_graph_memo()
        rows = run_tasks(tasks)
        assert passes == []
        assert json.dumps(rows) == json.dumps(reference)

    def test_group_without_trace_driven_scheme_builds_no_trace(self, monkeypatch):
        traces = []
        _spy(monkeypatch, boruvka_trace, traces.append)
        clear_graph_memo()
        tasks = [
            SweepTask("baseline", "ghs", GraphSpec("random", 0.1), 64, 3, backend=backend)
            for backend in ("engine", "analytic")
        ]
        rows = run_tasks(tasks)
        assert traces == []
        assert all(row["correct"] for row in rows)

    def test_advice_shared_across_backends_of_one_scheme(self):
        # one instance, one scheme, both backends: the context computes
        # the advice once and both rows still agree with isolated runs
        tasks = [
            SweepTask("scheme", "theorem3", GraphSpec("random", 0.1), 24, 5, backend=b)
            for b in ("engine", "analytic")
        ]
        grouped = run_tasks(tasks)
        isolated = [execute_task(task) for task in tasks]
        assert json.dumps(grouped) == json.dumps(isolated)
        assert grouped[0] == grouped[1]  # backends agree row for row


hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


_task_strategy = st.builds(
    SweepTask,
    kind=st.just("scheme"),
    target=st.sampled_from(["trivial", "theorem2", "theorem3"]),
    graph=st.builds(
        GraphSpec,
        family=st.sampled_from(["random", "cycle", "hypercube"]),
        density=st.sampled_from([0.05, 0.1]),
    ),
    n=st.integers(4, 64),
    seed=st.integers(0, 5),
    root=st.integers(0, 3),
    backend=st.sampled_from(["engine", "analytic"]),
)


class TestPlanGroupsProperty:
    @settings(max_examples=60, deadline=None)
    @given(tasks=st.lists(_task_strategy, max_size=40))
    def test_plan_groups_partitions_exactly(self, tasks):
        groups = plan_groups(tasks)
        covered = sorted(i for g in groups for i in g.indices)
        assert covered == list(range(len(tasks)))  # exact partition
        for group in groups:
            # group membership agrees with the shared-instance identity
            assert len({instance_key(task) for task in group.tasks}) == 1
            assert [tasks[i] for i in group.indices] == list(group.tasks)
        # distinct groups never share an identity
        keys = [instance_key(g.tasks[0]) for g in groups]
        assert len(keys) == len(set(keys))
