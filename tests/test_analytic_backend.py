"""Round-for-round equivalence of the analytic backend and the engine.

The analytic backend (``repro/simulator/analytic.py``) claims to produce
*exactly* the metrics the :class:`~repro.simulator.engine.SyncEngine`
measures — same rounds, same per-round message counts, same bit totals,
same halting behaviour — without simulating a single message.  This
suite is the enforcement: every scheme, and both MST baselines, on
every graph family is run on both backends and every observable
compared.
"""

import json
import random

import pytest

from repro.core.advice import AdviceAssignment
from repro.core.oracle import run_scheme
from repro.core.scheme_main import ShortAdviceScheme
from repro.distributed.base import run_baseline
from repro.distributed.boruvka_sync import SynchronizedBoruvkaMST
from repro.distributed.full_info import FullInformationMST
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    random_connected_graph,
    random_geometric_graph,
)
from repro.graphs.properties import diameter
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.runner import GraphSpec, SQLiteResultStore, SweepTask, run_tasks
from repro.runner.registry import GRAPH_FAMILIES, SCHEMES, build_graph
from repro.simulator.adversary import FaultSpec
from repro.simulator.analytic import (
    AnalyticUnsupported,
    _attach_bits,
    _bcast_bits,
    _collect_bits,
    _conv_bits,
    _gamma_len,
    _ghs_convmin_bits,
    _ghs_signal_bits,
    _hello_bits,
    _id_elems,
    _int_elem,
    _KNOWLEDGE_HEADER_BITS,
    _level_bits,
    _reply_bits,
    _share_bits,
    run_baseline_analytic,
    run_scheme_analytic,
)
from repro.simulator.engine import run_sync
from repro.simulator.message import estimate_bits

SCHEME_NAMES = ("trivial", "theorem2", "theorem3", "theorem3-level")

#: every structural corner the schedule model has to get right: deep
#: fragments (paths/cycles force convergecasts past their phase windows),
#: high degrees (stars stress the final collection width), duplicated
#: weights (rank coding), and the degenerate n <= 2 instances
def _path(n, seed=0):
    import random

    rng = random.Random(seed)
    return PortNumberedGraph(n, [(i, i + 1, rng.random()) for i in range(n - 1)])


def _star(n, seed=0):
    import random

    rng = random.Random(seed)
    return PortNumberedGraph(n, [(0, i, rng.random()) for i in range(1, n)])


def _duplicate_weights(n, seed=0):
    import random

    rng = random.Random(seed)
    edges = [(i, i + 1, float(rng.choice([1, 2]))) for i in range(n - 1)]
    seen = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v, float(rng.choice([1, 2, 3]))))
    return PortNumberedGraph(n, edges)


GRAPHS = {
    "random24": (random_connected_graph(24, 0.15, seed=3), 2),
    "random64": (random_connected_graph(64, 0.08, seed=1), 0),
    "random100": (random_connected_graph(100, 0.05, seed=7), 11),
    "grid36": (grid_graph(6, 6, seed=1), 5),
    "cycle33": (cycle_graph(33, seed=2), 0),
    "complete16": (complete_graph(16, seed=0), 0),
    "geometric40": (random_geometric_graph(40, seed=4), 3),
    "path40": (_path(40, seed=1), 20),
    "star30": (_star(30, seed=1), 0),
    "dup47": (_duplicate_weights(47, seed=2), 1),
    "n1": (PortNumberedGraph(1, []), 0),
    "n2": (PortNumberedGraph(2, [(0, 1, 1.0)]), 1),
}


def _both_reports(scheme_name, graph, root):
    engine = run_scheme(SCHEMES[scheme_name](), graph, root=root, backend="engine")
    analytic = run_scheme(SCHEMES[scheme_name](), graph, root=root, backend="analytic")
    return engine, analytic


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_metrics_match_engine_exactly(scheme_name, graph_name):
    graph, root = GRAPHS[graph_name]
    if scheme_name == "theorem3-level" and not graph.has_distinct_weights():
        pytest.skip("level variant requires pairwise-distinct weights")
    engine, analytic = _both_reports(scheme_name, graph, root)

    assert engine.metrics.as_dict() == analytic.metrics.as_dict()
    assert engine.metrics.messages_per_round == analytic.metrics.messages_per_round
    assert engine.rounds == analytic.rounds
    assert engine.correct and analytic.correct


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_outputs_and_advice_match_engine(scheme_name):
    graph, root = GRAPHS["random24"]
    engine, analytic = _both_reports(scheme_name, graph, root)
    # same advice statistics (the analytic path runs the same oracle) and
    # the same verified output map
    assert engine.advice == analytic.advice
    assert engine.check.tree_edge_ids == analytic.check.tree_edge_ids
    assert engine.check.root == analytic.check.root


def test_analytic_matches_across_roots_and_seeds():
    # a denser sweep over instances: one aggregate equality per run
    for seed in range(5):
        graph = random_connected_graph(48, 0.1, seed=seed)
        for scheme_name in SCHEME_NAMES:
            engine, analytic = _both_reports(scheme_name, graph, seed % graph.n)
            assert engine.metrics.as_dict() == analytic.metrics.as_dict(), (
                scheme_name,
                seed,
            )
            assert (
                engine.metrics.messages_per_round
                == analytic.metrics.messages_per_round
            )


# --------------------------------------------------------------------- #
# the payload-size formulas are pinned against estimate_bits itself
# --------------------------------------------------------------------- #


class _FakeBits:
    def __init__(self, length):
        self._length = length

    def bit_length_exact(self):
        return self._length


def test_payload_formulas_match_estimate_bits():
    for value in (0, 1, 2, 5, 7, 63, 64, 1023):
        assert _int_elem(value) == 2 + estimate_bits(value)
    for phase in (1, 3, 9):
        for size in (1, 17, 300):
            for length in (0, 5, 40):
                assert _conv_bits(phase, size, length) == estimate_bits(
                    (1, phase, size, _FakeBits(length))
                )
        assert _level_bits(phase) == estimate_bits((7, phase, 0))
        assert _level_bits(phase) == estimate_bits((7, phase, 1))
        assert _attach_bits(phase, True) == estimate_bits((4, phase))
        assert _attach_bits(phase, False) == estimate_bits((3, phase))
    for rank in (1, 2, 9, 40):
        record = (True, rank)
        expected = estimate_bits((2, 2, 3, record, 11, 4, 5))
        got = _bcast_bits(2, 3, 3 + _int_elem(rank), 11, 4, 5)
        assert got == expected
    for ttl in (0, 1, 6):
        assert _collect_bits(ttl) == estimate_bits((5, ttl))
    for length in (0, 1, 9):
        assert _reply_bits(length) == estimate_bits((6, _FakeBits(length)))


def test_gamma_len_matches_writer():
    from repro.core.bits import BitWriter

    for value in (1, 2, 3, 7, 8, 100, 1023):
        writer = BitWriter()
        writer.write_gamma(value)
        assert _gamma_len(value) == len(writer.getvalue())


# --------------------------------------------------------------------- #
# dispatch edges
# --------------------------------------------------------------------- #


def test_unknown_scheme_is_refused():
    class Custom(ShortAdviceScheme):
        pass

    graph, root = GRAPHS["random24"]
    with pytest.raises(AnalyticUnsupported):
        run_scheme_analytic(Custom(), graph, root=root)


def test_max_rounds_budget_is_refused_not_truncated():
    graph, root = GRAPHS["random24"]
    with pytest.raises(AnalyticUnsupported):
        run_scheme_analytic(SCHEMES["theorem3"](), graph, root=root, max_rounds=1)


def test_run_scheme_falls_back_to_engine_when_unsupported():
    # a round budget too small for the analytic model: run_scheme silently
    # routes through the engine, which reports the truncation
    graph, root = GRAPHS["random24"]
    report = run_scheme(
        SCHEMES["theorem3"](), graph, root=root, max_rounds=1, backend="analytic"
    )
    assert not report.correct
    assert "terminate" in report.check.reason


def test_run_scheme_rejects_unknown_backend():
    graph, root = GRAPHS["n2"]
    with pytest.raises(ValueError, match="unknown backend"):
        run_scheme(SCHEMES["trivial"](), graph, root=root, backend="quantum")


@pytest.mark.parametrize("scheme_name", ["theorem3", "theorem3-level"])
def test_a_reused_scheme_object_runs_the_layout_of_the_advice_it_is_handed(scheme_name):
    # the packing layout travels with the advice: computing advice for
    # another instance on the same scheme object cannot change the run
    scheme = SCHEMES[scheme_name]()
    graph = random_connected_graph(64, 0.1, seed=1)
    advice = scheme.compute_advice(graph, root=0)
    scheme.compute_advice(random_connected_graph(64, 0.1, seed=2), root=0)
    analytic = run_scheme(scheme, graph, advice=advice, backend="analytic")
    engine = run_scheme(scheme, graph, advice=advice, backend="engine")
    assert analytic.metrics.as_dict() == engine.metrics.as_dict()
    assert analytic.metrics.messages_per_round == engine.metrics.messages_per_round
    assert analytic.correct and engine.correct


@pytest.mark.parametrize("backend", ["engine", "analytic"])
@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_advice_for_another_node_count_is_rejected(scheme_name, backend):
    scheme = SCHEMES[scheme_name]()
    advice = scheme.compute_advice(random_connected_graph(48, 0.1, seed=1), root=0)
    graph = random_connected_graph(64, 0.1, seed=1)
    with pytest.raises(ValueError, match="advice for 48 nodes"):
        run_scheme(scheme, graph, advice=advice, backend=backend)


def test_the_theorem3_model_needs_the_packing_layout():
    graph, root = GRAPHS["random24"]
    scheme = SCHEMES["theorem3"]()
    advice = scheme.compute_advice(graph, root=root)
    bare = AdviceAssignment(advice.bits, advice.offsets)
    with pytest.raises(ValueError, match="packing layout"):
        run_scheme(scheme, graph, root=root, advice=bare, backend="analytic")
    # the engine decodes the bits alone
    assert run_scheme(scheme, graph, root=root, advice=bare).correct


# --------------------------------------------------------------------- #
# runner integration: backends are first-class workload content
# --------------------------------------------------------------------- #


def test_task_backend_is_validated():
    with pytest.raises(ValueError, match="backend"):
        SweepTask("scheme", "trivial", GraphSpec(), 8, 0, backend="quantum")
    with pytest.raises(ValueError, match="backend"):
        SweepTask("baseline", "ghs", GraphSpec(), 8, 0, backend="quantum")
    # baselines follow the backend like schemes, except under faults
    assert SweepTask("baseline", "ghs", GraphSpec(), 8, 0, backend="analytic").backend == (
        "analytic"
    )
    with pytest.raises(ValueError, match="engine"):
        SweepTask(
            "baseline", "ghs", GraphSpec(), 8, 0, backend="analytic", fault=FaultSpec(delta=2)
        )


def test_backend_changes_the_cache_key():
    engine_task = SweepTask("scheme", "theorem3", GraphSpec(), 16, 0)
    analytic_task = SweepTask("scheme", "theorem3", GraphSpec(), 16, 0, backend="analytic")
    assert engine_task.task_hash() != analytic_task.task_hash()
    assert engine_task.key_dict()["backend"] == "engine"
    assert analytic_task.key_dict()["backend"] == "analytic"
    assert "backend_version" in engine_task.key_dict()


def test_cache_rows_are_backend_isolated(tmp_path):
    import sqlite3
    from contextlib import closing

    cache = SQLiteResultStore(tmp_path)
    engine_task = SweepTask("scheme", "theorem3", GraphSpec(), 16, 0)
    analytic_task = SweepTask("scheme", "theorem3", GraphSpec(), 16, 0, backend="analytic")
    (engine_row,) = run_tasks([engine_task], cache_dir=cache)
    assert cache.misses == 1 and cache.hits == 0
    (analytic_row,) = run_tasks([analytic_task], cache_dir=cache)
    # the analytic task was NOT served the engine row: two distinct rows
    assert cache.misses == 2 and cache.hits == 0
    assert cache.stats()["rows"] == 2
    # ... even though the measured rows are identical (the whole point)
    assert engine_row == analytic_row
    # and the stored task content says which backend produced each row
    backends = set()
    with closing(sqlite3.connect(cache.path)) as conn:
        for (task_text,) in conn.execute("SELECT task FROM results"):
            backends.add(json.loads(task_text)["backend"])
    assert backends == {"engine", "analytic"}


def test_scheme_sweep_rows_identical_across_backends():
    from repro.analysis.sweep import run_scheme_sweep

    engine = run_scheme_sweep("theorem3", (16, 32), seeds=(0, 1), backend="engine")
    analytic = run_scheme_sweep("theorem3", (16, 32), seeds=(0, 1), backend="analytic")
    assert engine.rows == analytic.rows


# --------------------------------------------------------------------- #
# the GHS-style baseline: model against engine
# --------------------------------------------------------------------- #


def _relabelled(graph, seed):
    """The same instance under shuffled, large node identifiers and shuffled ports."""
    rng = random.Random(seed)
    degrees = [graph.degree(u) for u in range(graph.n)]
    return PortNumberedGraph(
        graph.n,
        graph.edge_list(),
        node_ids=rng.sample(range(1 << 40), graph.n),
        port_permutations={u: rng.sample(range(d), d) for u, d in enumerate(degrees)},
    )


def _ghs_graphs():
    graphs = {
        name: graph for name, (graph, _) in GRAPHS.items() if graph.has_distinct_weights()
    }
    for family in GRAPH_FAMILIES:
        for n in (16, 64):
            graphs[f"{family}-{n}"] = build_graph(family, n, seed=1, density=0.1)
    graphs["random-256"] = build_graph("random", 256, seed=0, density=0.04)
    graphs["path3"] = PortNumberedGraph(3, [(0, 1, 0.5), (1, 2, 0.25)])
    for name in ("random-64", "path40", "hypercube-64"):
        graphs[f"{name}-relabelled"] = _relabelled(graphs[name], seed=len(name))
    return graphs


GHS_GRAPHS = _ghs_graphs()


@pytest.mark.parametrize("graph_name", sorted(GHS_GRAPHS))
def test_ghs_model_matches_engine_exactly(graph_name):
    graph = GHS_GRAPHS[graph_name]
    ghs = SynchronizedBoruvkaMST()
    engine = run_sync(
        graph, ghs.program_factory(graph), max_rounds=int(ghs.round_bound(graph)) + 50
    )
    model = run_baseline_analytic(ghs, graph)
    # the whole RunMetrics, messages_per_round included, and every output
    assert model.metrics == engine.metrics
    assert model.outputs == engine.outputs
    assert (model.completed, model.stop_reason, model.missing_outputs) == (
        engine.completed,
        engine.stop_reason,
        engine.missing_outputs,
    )


def test_ghs_rows_match_across_seeds():
    for seed in range(4):
        graph = random_connected_graph(48, 0.1, seed=seed)
        engine = run_baseline(SynchronizedBoruvkaMST(), graph)
        analytic = run_baseline(SynchronizedBoruvkaMST(), graph, backend="analytic")
        assert analytic.metrics == engine.metrics, seed
        assert analytic.as_row() == engine.as_row() and analytic.correct


def test_ghs_payload_formulas_match_estimate_bits():
    from repro.distributed import boruvka_sync as program

    # the model hard-codes the program's message tags
    assert (
        program._MSG_FRAG,
        program._MSG_NEIGH,
        program._MSG_CONVMIN,
        program._MSG_WINNER,
        program._MSG_MERGE,
        program._MSG_ADOPT,
    ) == (21, 22, 23, 24, 25, 26)
    for phase in (0, 1, 7, 12):
        for tag in (24, 26):
            assert _ghs_signal_bits(tag, phase) == estimate_bits((tag, phase))
        for tag in (21, 22, 25):
            for node_id in (0, 1, 5, 1023, (1 << 40) + 3):
                assert _ghs_signal_bits(tag, phase) + _int_elem(node_id) == estimate_bits(
                    (tag, phase, node_id)
                )
        assert _ghs_convmin_bits(phase, True) == estimate_bits((23, phase, 0.375))
        assert _ghs_convmin_bits(phase, False) == estimate_bits((23, phase, None))


@pytest.mark.parametrize(
    "graph, match",
    [
        (PortNumberedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]), "distinct weights"),
        (
            PortNumberedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)], node_ids=[4, 7, 4]),
            "distinct node identifiers",
        ),
    ],
)
def test_ghs_ties_raise_the_same_error_on_both_backends(graph, match):
    errors = []
    for backend in ("engine", "analytic"):
        with pytest.raises(ValueError, match=match) as info:
            run_baseline(SynchronizedBoruvkaMST(), graph, backend=backend)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] and errors[0][0] is ValueError


def test_ghs_truncated_budget_falls_back_to_the_engine():
    graph = GHS_GRAPHS["random-16"]
    ghs = SynchronizedBoruvkaMST()
    budget = int(ghs.round_bound(graph)) - 1
    with pytest.raises(AnalyticUnsupported):
        run_baseline_analytic(ghs, graph, max_rounds=budget)
    engine = run_baseline(ghs, graph, max_rounds=budget)
    analytic = run_baseline(ghs, graph, max_rounds=budget, backend="analytic")
    assert not analytic.correct and "terminate" in analytic.check.reason
    assert analytic.metrics == engine.metrics


# --------------------------------------------------------------------- #
# the full-information LOCAL baseline: model against engine
# --------------------------------------------------------------------- #


def _full_info_graphs():
    graphs = {name: graph for name, (graph, _) in GRAPHS.items()}  # ties included
    for family in GRAPH_FAMILIES:
        for n in (16, 64):
            graphs[f"{family}-{n}"] = build_graph(family, n, seed=1, density=0.1)
    graphs["path3"] = PortNumberedGraph(3, [(0, 1, 0.5), (1, 2, 0.25)])
    # new identifiers and ports; on dup47's tied weights the program's
    # (weight, smaller id, larger id) order picks another MST than the
    # reference (weight, edge id) order
    for name in ("random-64", "path40", "hypercube-64", "dup47"):
        graphs[f"{name}-relabelled"] = _relabelled(graphs[name], seed=len(name))
    return graphs


FULL_INFO_GRAPHS = _full_info_graphs()


@pytest.mark.parametrize("graph_name", sorted(FULL_INFO_GRAPHS))
def test_full_info_model_matches_engine_exactly(graph_name):
    graph = FULL_INFO_GRAPHS[graph_name]
    full_info = FullInformationMST()
    engine = run_sync(
        graph,
        full_info.program_factory(graph),
        max_rounds=int(full_info.round_bound(graph)) + 50,
    )
    model = run_baseline_analytic(full_info, graph)
    # the whole RunMetrics, messages_per_round included, and every output
    assert model.metrics == engine.metrics
    assert model.outputs == engine.outputs
    assert (model.completed, model.stop_reason, model.missing_outputs) == (
        engine.completed,
        engine.stop_reason,
        engine.missing_outputs,
    )


def test_full_info_payload_formulas_match_estimate_bits():
    from repro.distributed import full_info as program

    # the model hard-codes the program's message tags
    assert (program._MSG_HELLO, program._MSG_KNOWLEDGE) == (11, 12)
    assert _KNOWLEDGE_HEADER_BITS == program._KNOWLEDGE_HEADER_BITS
    assert _KNOWLEDGE_HEADER_BITS == estimate_bits((program._MSG_KNOWLEDGE, ()))
    node_ids = [0, 1, 5, 1023, (1 << 40) + 3, -6]
    # a star and two more edges: degrees 1, 2 and 5
    edges = [(0, k, 0.25 * k) for k in range(1, 6)] + [(1, 2, 3.0), (3, 4, 0.5)]
    graph = PortNumberedGraph(6, edges, node_ids=node_ids)
    id_elem = _id_elems(graph.node_ids)
    hello, shares = _hello_bits(id_elem), _share_bits(graph, id_elem)
    for u, view in enumerate(graph.local_views()):
        assert hello[u] == estimate_bits((program._MSG_HELLO, view.node_id))
        record = tuple(
            (view.port_weights[port], node_ids[graph.neighbor(u, port)])
            for port in range(view.degree)
        )
        assert shares[u] == program._record_share(view.node_id, record)


def test_baselines_without_a_model_fall_back_to_the_engine():
    class Custom(SynchronizedBoruvkaMST):
        pass

    class CustomFullInfo(FullInformationMST):
        pass

    graph = GHS_GRAPHS["random-16"]
    disconnected = PortNumberedGraph(4, [(0, 1, 1.0), (2, 3, 2.0)])
    duplicate_ids = PortNumberedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)], node_ids=[4, 7, 4])
    # the full-information run lasts D + 2 rounds
    short = diameter(graph) + 1
    for baseline, instance, max_rounds in (
        (Custom(), graph, None),
        (SynchronizedBoruvkaMST(), disconnected, None),
        (FullInformationMST(), duplicate_ids, None),
        (CustomFullInfo(), graph, None),
        (FullInformationMST(), graph, short),
    ):
        with pytest.raises(AnalyticUnsupported):
            run_baseline_analytic(baseline, instance, max_rounds=max_rounds)
        engine = run_baseline(baseline, instance, max_rounds=max_rounds)
        analytic = run_baseline(baseline, instance, max_rounds=max_rounds, backend="analytic")
        assert analytic.metrics == engine.metrics
        assert analytic.as_row() == engine.as_row()
    # what the engine makes of the two full-information instances
    assert "exactly one root" in run_baseline(FullInformationMST(), duplicate_ids).check.reason
    assert not run_baseline(FullInformationMST(), graph, max_rounds=short).correct


def test_full_info_disconnected_raises_the_same_error_on_both_backends():
    disconnected = PortNumberedGraph(4, [(0, 1, 1.0), (2, 3, 2.0)])
    errors = []
    for backend in ("engine", "analytic"):
        with pytest.raises(ValueError, match="disconnected") as info:
            run_baseline(FullInformationMST(), disconnected, backend=backend)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] and errors[0][0] is ValueError


def test_baseline_faults_still_require_the_engine():
    graph = GHS_GRAPHS["random-16"]
    with pytest.raises(ValueError, match="engine backend"):
        run_baseline(
            SynchronizedBoruvkaMST(), graph, fault=FaultSpec(delta=2), backend="analytic"
        )
    with pytest.raises(ValueError, match="unknown backend"):
        run_baseline(SynchronizedBoruvkaMST(), graph, backend="quantum")


def test_baseline_task_rows_identical_across_backends():
    def rows(backend):
        return run_tasks(
            [
                SweepTask("baseline", name, GraphSpec("random", 0.1), n, seed, backend=backend)
                for name in ("ghs", "full-info")
                for n in (16, 32)
                for seed in (0, 1)
            ]
        )

    assert rows("analytic") == rows("engine")
