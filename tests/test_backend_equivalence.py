"""Engine ≡ analytic on generated instances.

The analytic backend claims the engine's exact run for every scheme and
baseline it models; for the others it must say so and leave the run to
the engine.  The fixed instances of ``test_analytic_backend.py`` pin the
model on shapes chosen by hand.  Here hypothesis draws the instances: a
registry family at up to 48 nodes, its own weights or tied integer
weights, default or shuffled ports and node identifiers (duplicates
included), and any root.  For every registered scheme and baseline of
every problem, one of three things holds:

* both backends compute the same advice, ``RunMetrics`` and outputs;
* both raise the same error;
* the analytic side raises :class:`AnalyticUnsupported`, and the
  fallback of ``run_scheme`` or ``run_baseline`` reports exactly the
  engine's run.

Both backends read the rooted MST, so the same instances also check
:func:`build_rooted_tree` against a plain breadth-first search and an
``index_u``-order depth-first search written here.

The examples are derandomized, so a failure reproduces run after run.
"""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.oracle import run_scheme
from repro.distributed.base import run_baseline
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.kruskal import kruskal_mst
from repro.mst.rooted_tree import build_rooted_tree
from repro.runner.registry import (
    GRAPH_FAMILIES,
    build_graph,
    qualified_names,
    resolve_baseline,
    resolve_scheme,
)
from repro.simulator.analytic import (
    AnalyticUnsupported,
    run_baseline_analytic,
    run_scheme_analytic,
)
from repro.simulator.engine import AlgorithmError, run_sync


@st.composite
def instances(draw):
    """``(graph, root)`` drawn over families, weights, ports, ids and roots."""
    family = draw(st.sampled_from(GRAPH_FAMILIES))
    n = draw(st.integers(min_value=1, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    try:
        graph = build_graph(family, n, seed=seed)
    except ValueError:  # below the family's smallest size
        assume(False)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    edges = graph.edge_list()
    ties = draw(st.sampled_from([None, 1, 2, 4]))  # integer weights in 1..ties
    if ties is not None:
        edges = [(u, v, float(rng.randint(1, ties))) for u, v, _ in edges]
    ids = draw(st.sampled_from(["default", "shuffled", "duplicated"]))
    node_ids = {
        "default": None,
        "shuffled": rng.sample(range(1 << 40), graph.n),
        "duplicated": [rng.randrange(max(1, graph.n // 2)) for _ in range(graph.n)],
    }[ids]
    ports = None
    if draw(st.booleans()):
        ports = {u: rng.sample(range(d), d) for u, d in enumerate(graph._degrees.tolist())}
    graph = PortNumberedGraph(graph.n, edges, node_ids=node_ids, port_permutations=ports)
    return graph, draw(st.integers(min_value=0, max_value=graph.n - 1))


def _engine_side(name, graph, root):
    """The engine's (advice, result), or the error the oracle raised."""
    scheme = resolve_scheme(name)
    try:
        advice = scheme.compute_advice(graph, root=root)
    except ValueError as exc:
        return exc
    return advice, run_sync(graph, scheme.program_factory(), advice=advice.as_payloads())


def _assert_same_run(name, engine, analytic):
    (engine_advice, engine_run), (analytic_advice, analytic_run) = engine, analytic
    assert np.array_equal(engine_advice.bits, analytic_advice.bits), name
    assert np.array_equal(engine_advice.offsets, analytic_advice.offsets), name
    assert analytic_run.metrics == engine_run.metrics, name
    assert analytic_run.metrics.messages_per_round == engine_run.metrics.messages_per_round
    assert analytic_run.outputs == engine_run.outputs, name
    assert analytic_run.completed and engine_run.completed, name


def _derandomized(max_examples):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )


@_derandomized(100)
@given(instances())
def test_every_scheme_runs_alike_on_both_backends(instance):
    graph, root = instance
    for name in qualified_names("scheme"):
        engine = _engine_side(name, graph, root)
        try:
            analytic = run_scheme_analytic(resolve_scheme(name), graph, root=root)
        except AnalyticUnsupported:
            assert not isinstance(engine, Exception), name
            fallback = run_scheme(resolve_scheme(name), graph, root=root, backend="analytic")
            assert fallback.metrics == engine[1].metrics, name
            assert fallback.advice == engine[0].stats(), name
            continue
        except ValueError as exc:
            assert isinstance(engine, ValueError) and str(engine) == str(exc), name
            continue
        assert not isinstance(engine, Exception), (name, engine)
        _assert_same_run(name, engine, analytic)


def _outcome(run, *args, **kwargs):
    """``run``'s result, or the type and message of the error it raised."""
    try:
        return run(*args, **kwargs)
    except (ValueError, AlgorithmError) as exc:
        return type(exc), str(exc)


def _baseline_on_engine(name, graph, max_rounds):
    program = resolve_baseline(name).program_factory(graph)
    return run_sync(graph, program, advice=None, max_rounds=max_rounds)


@_derandomized(100)
@given(instances())
def test_every_baseline_runs_alike_on_both_backends(instance):
    graph, _root = instance
    for name in qualified_names("baseline"):
        bound = resolve_baseline(name).round_bound(graph)
        max_rounds = None if bound is None else int(bound) + 50  # as run_baseline
        engine = _outcome(_baseline_on_engine, name, graph, max_rounds)
        try:
            analytic = run_baseline_analytic(resolve_baseline(name), graph, max_rounds)
        except AnalyticUnsupported:
            fallback = _outcome(run_baseline, resolve_baseline(name), graph, backend="analytic")
            if isinstance(engine, tuple):  # e.g. full-info on duplicate ids
                assert fallback == engine, name
            else:
                assert fallback.metrics == engine.metrics, name
            continue
        except ValueError as exc:
            assert engine == (ValueError, str(exc)), name
            continue
        assert not isinstance(engine, tuple), (name, engine)
        assert analytic.metrics == engine.metrics, name
        assert analytic.metrics.messages_per_round == engine.metrics.messages_per_round, name
        assert analytic.outputs == engine.outputs, name
        assert analytic.completed and engine.completed, name


def _reference_tree(graph, edge_ids, root):
    """Breadth-first parents and depths, then a depth-first preorder that
    takes every node's children in its ``index_u`` (weight, port) order."""
    n = graph.n
    adjacency = [[] for _ in range(n)]
    for e in edge_ids:
        u, v = int(graph.edge_u[e]), int(graph.edge_v[e])
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))
    parent, parent_edge, parent_port, depth = [-1] * n, [-1] * n, [-1] * n, [0] * n
    seen, queue = {root}, deque([root])
    while queue:
        u = queue.popleft()
        for v, e in adjacency[u]:
            if v not in seen:
                seen.add(v)
                parent[v], parent_edge[v], depth[v] = u, e, depth[u] + 1
                parent_port[v] = graph.edge(e).endpoint_port(v)
                queue.append(v)
    children = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    for u, kids in enumerate(children):
        weights = graph.incident_weights(u).tolist()

        def index_u(v, u=u, weights=weights):
            port = graph.edge(parent_edge[v]).endpoint_port(u)
            return (weights[port], port)

        kids.sort(key=index_u)
    preorder, stack = [], [root]
    while stack:
        u = stack.pop()
        preorder.append(u)
        stack.extend(reversed(children[u]))
    index = [0] * n
    for k, u in enumerate(preorder):
        index[u] = k
    size = [1] * n
    for u in reversed(preorder):
        if parent[u] >= 0:
            size[parent[u]] += size[u]
    span = [index[u] + size[u] for u in range(n)]
    return {
        "parent": parent,
        "parent_edge": parent_edge,
        "parent_port": parent_port,
        "depth": depth,
        "preorder": preorder,
        "preorder_index": index,
        "subtree_span": span,
        "children": children,
    }


@_derandomized(100)
@given(instances())
def test_rooted_trees_match_a_plain_bfs_and_dfs(instance):
    graph, root = instance
    mst = kruskal_mst(graph)
    tree = build_rooted_tree(graph, mst, root=root)
    assert {
        "parent": tree.parent.tolist(),
        "parent_edge": tree.parent_edge.tolist(),
        "parent_port": tree.parent_port.tolist(),
        "depth": tree.depth.tolist(),
        "preorder": tree.preorder().tolist(),
        "preorder_index": tree.preorder_index().tolist(),
        "subtree_span": tree.subtree_span().tolist(),
        "children": [tree.children(u) for u in range(graph.n)],
    } == _reference_tree(graph, mst, root)
    if graph.n < 2:
        return
    with pytest.raises(ValueError, match="needs"):
        build_rooted_tree(graph, mst[1:], root=root)
    if graph.n > 2:
        with pytest.raises(ValueError, match="duplicate"):
            build_rooted_tree(graph, mst[:-1] + mst[:1], root=root)
    # a non-tree edge closes a cycle; dropping a tree edge off that cycle
    # leaves n - 1 edges and cuts a node off
    non_tree = sorted(set(range(graph.m)) - set(mst))
    if not non_tree:
        return
    e = non_tree[0]
    on_cycle = {e}
    for end in (int(graph.edge_u[e]), int(graph.edge_v[e])):
        on_cycle.symmetric_difference_update(
            tree.parent_edge[tree.path_to_root(end)[:-1]].tolist()
        )
    off_cycle = [f for f in mst if f not in on_cycle]
    if off_cycle:
        cut = [f for f in mst if f != off_cycle[0]] + [e]
        with pytest.raises(ValueError, match="does not span"):
            build_rooted_tree(graph, cut, root=root)
