"""Tests of the sequential MST algorithms and verifiers."""

import random
from typing import Dict, List, Tuple

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import complete_graph, random_connected_graph
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.boruvka import boruvka_mst
from repro.mst.kruskal import kruskal_mst
from repro.mst.prim import prim_mst
from repro.mst.union_find import UnionFind
from repro.mst.verify import (
    _non_tree_cycles,
    is_minimum_spanning_tree,
    is_spanning_tree,
    unique_mst_edge_ids,
    verify_cut_property,
    verify_cycle_property,
)


class TestAgreement:
    def test_all_algorithms_agree(self, small_random_graphs):
        for g in small_random_graphs:
            k = kruskal_mst(g)
            assert prim_mst(g) == k
            assert boruvka_mst(g) == k

    def test_agreement_with_duplicate_weights(self):
        for seed in range(5):
            g = random_connected_graph(30, 0.15, seed=seed, weight_mode="integer", weight_range=4)
            k = kruskal_mst(g)
            assert prim_mst(g) == k
            assert boruvka_mst(g) == k
            assert is_minimum_spanning_tree(g, k)

    def test_weight_matches_networkx(self, small_random_graphs):
        """Cross-check against networkx as an independent implementation."""
        for g in small_random_graphs:
            ours = g.total_weight(kruskal_mst(g))
            theirs = sum(
                d["weight"]
                for _, _, d in nx.minimum_spanning_tree(g.to_networkx()).edges(data=True)
            )
            assert abs(ours - theirs) < 1e-9

    def test_prim_start_node_irrelevant(self):
        g = random_connected_graph(40, 0.1, seed=6)
        assert prim_mst(g, start=0) == prim_mst(g, start=17)

    def test_disconnected_rejected(self):
        g = PortNumberedGraph(4, [(0, 1, 1.0), (2, 3, 2.0)])
        for algo in (kruskal_mst, prim_mst, boruvka_mst):
            with pytest.raises(ValueError):
                algo(g)

    def test_tree_input_returns_all_edges(self):
        g = random_connected_graph(25, 0.0, seed=2)  # a tree
        assert kruskal_mst(g) == list(range(g.m))


class TestVerifiers:
    def test_is_spanning_tree(self):
        g = complete_graph(5, seed=1)
        mst = kruskal_mst(g)
        assert is_spanning_tree(g, mst)
        assert not is_spanning_tree(g, mst[:-1])
        assert not is_spanning_tree(g, list(range(5)))  # 5 edges on 5 nodes: has a cycle
        assert not is_spanning_tree(g, mst[:-1] + [999])

    def test_is_minimum_spanning_tree_rejects_heavier_tree(self):
        g = complete_graph(6, seed=2)
        mst = set(kruskal_mst(g))
        non_tree = [e for e in range(g.m) if e not in mst]
        # swap one MST edge for a non-tree edge closing a cycle through it
        for swap_in in non_tree:
            u, v = int(g.edge_u[swap_in]), int(g.edge_v[swap_in])
            candidate = None
            for e in mst:
                if {int(g.edge_u[e]), int(g.edge_v[e])} & {u, v}:
                    trial = (mst - {e}) | {swap_in}
                    if is_spanning_tree(g, trial):
                        candidate = trial
                        break
            if candidate is not None and g.total_weight(candidate) > g.total_weight(mst):
                assert not is_minimum_spanning_tree(g, candidate)
                return
        pytest.skip("no strictly heavier swap found on this seed")

    def test_cut_and_cycle_properties_hold_for_mst(self, small_random_graphs):
        for g in small_random_graphs[:4]:
            mst = kruskal_mst(g)
            assert verify_cut_property(g, mst)
            assert verify_cycle_property(g, mst)

    def test_cycle_property_rejects_non_mst(self):
        # a square where the heavy edge is forced into the tree
        g = PortNumberedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 10.0)])
        bad_tree = [1, 2, 3]  # contains the weight-10 edge
        assert is_spanning_tree(g, bad_tree)
        assert not verify_cycle_property(g, bad_tree)
        assert not verify_cut_property(g, bad_tree)
        assert not is_minimum_spanning_tree(g, bad_tree)

    def test_unique_mst_detection(self):
        distinct = random_connected_graph(20, 0.2, seed=3, weight_mode="distinct")
        unique, _ = unique_mst_edge_ids(distinct)
        assert unique
        # a 4-cycle with all-equal weights has several MSTs
        square = PortNumberedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        unique, _ = unique_mst_edge_ids(square)
        assert not unique


@st.composite
def weighted_graph(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edges = []
    seen = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        seen.add((u, v))
        edges.append((u, v, float(draw(st.integers(1, 30)))))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in seen and draw(st.booleans()):
                edges.append((a, b, float(draw(st.integers(1, 30)))))
    return PortNumberedGraph(n, edges)


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(weighted_graph())
    def test_mst_invariants(self, g):
        mst = kruskal_mst(g)
        assert len(mst) == g.n - 1
        assert is_spanning_tree(g, mst)
        assert is_minimum_spanning_tree(g, mst)
        assert boruvka_mst(g) == mst
        assert prim_mst(g) == mst

    @settings(max_examples=30, deadline=None)
    @given(weighted_graph())
    def test_mst_weight_matches_networkx(self, g):
        ours = g.total_weight(kruskal_mst(g))
        theirs = sum(
            d["weight"]
            for _, _, d in nx.minimum_spanning_tree(g.to_networkx()).edges(data=True)
        )
        assert abs(ours - theirs) < 1e-9


# ------------------------------------------------------------------ #
# the verifiers rooted the tree once per non-tree edge before; that
# per-edge DFS version is kept here as the reference they must match
# ------------------------------------------------------------------ #


def _dfs_tree_path_edges(graph, tree_ids, a, b) -> List[int]:
    adjacency: Dict[int, List[Tuple[int, int]]] = {u: [] for u in range(graph.n)}
    for eid in tree_ids:
        u, v = int(graph.edge_u[eid]), int(graph.edge_v[eid])
        adjacency[u].append((v, eid))
        adjacency[v].append((u, eid))
    prev: Dict[int, Tuple[int, int]] = {a: (-1, -1)}
    stack = [a]
    while stack:
        x = stack.pop()
        if x == b:
            break
        for y, eid in adjacency[x]:
            if y not in prev:
                prev[y] = (x, eid)
                stack.append(y)
    path = []
    cur = b
    while prev[cur][0] != -1:
        path.append(prev[cur][1])
        cur = prev[cur][0]
    return path


def _reference_cycle_property(graph, edge_ids) -> bool:
    ids = set(int(e) for e in edge_ids)
    if not is_spanning_tree(graph, ids):
        return False
    for eid in range(graph.m):
        if eid in ids:
            continue
        u, v, w = int(graph.edge_u[eid]), int(graph.edge_v[eid]), float(graph.edge_w[eid])
        for path_edge in _dfs_tree_path_edges(graph, ids, u, v):
            if float(graph.edge_w[path_edge]) > w + 1e-12:
                return False
    return True


def _reference_unique_mst_edge_ids(graph) -> Tuple[bool, List[int]]:
    tree = kruskal_mst(graph)
    id_set = set(tree)
    for eid in range(graph.m):
        if eid in id_set:
            continue
        u, v, w = int(graph.edge_u[eid]), int(graph.edge_v[eid]), float(graph.edge_w[eid])
        for path_edge in _dfs_tree_path_edges(graph, tree, u, v):
            if abs(float(graph.edge_w[path_edge]) - w) <= 1e-12:
                return False, sorted(tree)
    return True, sorted(tree)


def _tied_graph(rng: random.Random) -> PortNumberedGraph:
    """A small graph with integer weights in 1..3 (many ties), maybe disconnected."""
    n = rng.randint(2, 9)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    chosen = pairs[: rng.randint(0, len(pairs))]
    return PortNumberedGraph(n, [(a, b, float(rng.randint(1, 3))) for a, b in chosen])


def _random_spanning_forest(graph, rng: random.Random) -> List[int]:
    order = list(range(graph.m))
    rng.shuffle(order)
    uf = UnionFind(graph.n)
    return [eid for eid in order if uf.union(int(graph.edge_u[eid]), int(graph.edge_v[eid]))]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestTreeRootedOnce:
    SEEDS = range(300)

    def test_unique_mst_matches_per_edge_dfs(self):
        kinds = set()
        for seed in self.SEEDS:
            g = _tied_graph(random.Random(seed))
            expected = _outcome(_reference_unique_mst_edge_ids, g)
            assert _outcome(unique_mst_edge_ids, g) == expected, seed
            kinds.add(expected[0])
        # disconnected (rejected), unique and tied MSTs were all exercised
        assert kinds == {"ValueError", True, False}

    def test_cycle_property_and_paths_match_per_edge_dfs(self):
        verdicts = set()
        for seed in self.SEEDS:
            rng = random.Random(seed)
            g = _tied_graph(rng)
            forests = [_random_spanning_forest(g, rng) for _ in range(3)]
            if g.is_connected():
                forests.append(kruskal_mst(g))
            for forest in forests:
                expected = _reference_cycle_property(g, forest)
                assert verify_cycle_property(g, forest) == expected, seed
                verdicts.add((g.is_connected(), expected))
                # the shared helper climbs forests too: same path edges
                for eid, path in _non_tree_cycles(g, forest):
                    u, v = int(g.edge_u[eid]), int(g.edge_v[eid])
                    assert sorted(path) == sorted(_dfs_tree_path_edges(g, forest, u, v)), seed
        assert verdicts == {(True, True), (True, False), (False, False)}
