"""Tests of fragment partitions, fragment trees and the Borůvka trace.

These check the structural lemmas the advising schemes rely on:
Lemma 1 (fragment growth), Lemma 2 (rank of the selected edge), the
parity of fragment levels across selected edges, and the consistency of
the choosing-node bookkeeping.
"""

import math

import numpy as np
import pytest

from repro.graphs.generators import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    random_connected_graph,
)
from repro.mst.boruvka import boruvka_trace
from repro.mst.kruskal import kruskal_mst


TRACE_GRAPHS = [
    ("rand40", random_connected_graph(40, 0.1, seed=1), 0),
    ("rand40-root17", random_connected_graph(40, 0.1, seed=1), 17),
    ("complete20", complete_graph(20, seed=2), 3),
    ("cycle33", cycle_graph(33, seed=3), 5),
    ("caterpillar", caterpillar_graph(8, 2, seed=4), 0),
    ("duplicates", random_connected_graph(35, 0.1, seed=5, weight_mode="integer", weight_range=4), 2),
]


@pytest.fixture(scope="module", params=TRACE_GRAPHS, ids=[t[0] for t in TRACE_GRAPHS])
def traced(request):
    name, graph, root = request.param
    return name, graph, root, boruvka_trace(graph, root=root)


class TestTrace:
    def test_produces_the_reference_mst(self, traced):
        _, graph, _, trace = traced
        # the trace seeds the Kruskal memo; drop it so Kruskal really runs
        graph._kruskal_cache = None
        assert trace.mst_edge_ids() == kruskal_mst(graph)

    def test_phase_count_bound(self, traced):
        _, graph, _, trace = traced
        assert trace.num_phases <= math.ceil(math.log2(graph.n))

    def test_lemma1_fragment_growth(self, traced):
        """After phase i every fragment has at least 2^i nodes (Lemma 1)."""
        _, graph, _, trace = traced
        for phase in trace.phases:
            # at the *start* of phase i sizes are at least 2^(i-1)
            assert all(s >= 2 ** (phase.index - 1) for s in phase.partition.sizes())
            # active fragments are exactly those below 2^i
            for f in range(phase.partition.num_fragments):
                if f in phase.active:
                    assert phase.partition.size(f) < 2**phase.index
                else:
                    assert phase.partition.size(f) >= 2**phase.index

    def test_every_active_fragment_selects_until_done(self, traced):
        _, _, _, trace = traced
        for phase in trace.phases:
            if phase.partition.num_fragments == 1:
                continue
            selected_fragments = {sel.fragment for sel in phase.selections}
            assert selected_fragments == set(phase.active)

    def test_selected_edges_are_mst_edges(self, traced):
        _, _, _, trace = traced
        mst = set(trace.mst_edge_ids())
        for phase in trace.phases:
            for sel in phase.selections:
                assert sel.selected_edge in mst

    def test_selected_edges_leave_the_fragment(self, traced):
        _, _, _, trace = traced
        for phase in trace.phases:
            for sel in phase.selections:
                assert sel.target_fragment != sel.fragment

    def test_lemma2_rank_bound_for_distinct_weights(self, traced):
        """Lemma 2: the selected edge's rank at the choosing node is at most |F|."""
        _, graph, _, trace = traced
        if not graph.has_distinct_weights():
            pytest.skip("Lemma 2 is stated for the distinct-weight tie-breaking")
        for phase in trace.phases:
            for sel in phase.selections:
                assert sel.rank_at_choosing <= sel.fragment_size
                x, y = sel.index_pair
                assert x + y <= sel.fragment_size + 1

    def test_orientation_matches_rooted_tree(self, traced):
        _, _, root, trace = traced
        tree = trace.tree
        assert tree.root == root
        for phase in trace.phases:
            for sel in phase.selections:
                is_up = tree.parent_edge[sel.choosing_node] == sel.selected_edge
                assert sel.is_up == is_up

    def test_levels_differ_across_selected_edges(self, traced):
        """A selected edge joins fragments of different level parity."""
        _, _, _, trace = traced
        for phase in trace.phases:
            for sel in phase.selections:
                assert sel.level_of_fragment != sel.level_of_target_fragment

    def test_choosing_dfs_index_is_consistent(self, traced):
        _, _, _, trace = traced
        for phase in trace.phases:
            nodes, starts = phase.partition.preorder_arrays()
            for sel in phase.selections:
                preorder = nodes[starts[sel.fragment] : starts[sel.fragment + 1]]
                assert preorder[sel.choosing_dfs_index - 1] == sel.choosing_node
                assert preorder.size == sel.fragment_size

    def test_final_partition_is_one_fragment(self, traced):
        _, graph, _, trace = traced
        final = trace.partition_before_phase(trace.num_phases + 1)
        assert final.num_fragments == 1
        assert final.sizes() == [graph.n]
        assert final.fragment_of_array().tolist() == [0] * graph.n
        assert final.fragment_tree().num_fragments == 1
        # built once: every phase past the end gets the same object
        assert trace.partition_before_phase(trace.num_phases + 2) is final


class TestKruskalMemoSeeding:
    """The trace seeds the instance's Kruskal memo with its MST; that is
    only sound if Borůvka and Kruskal agree edge for edge, ties included."""

    @pytest.mark.parametrize("weight_mode", ["distinct", "integer"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_seeds_the_kruskal_memo(self, seed, weight_mode):
        def build():
            return random_connected_graph(
                30, 0.15, seed=seed, weight_mode=weight_mode, weight_range=4
            )

        graph, twin = build(), build()
        assert getattr(graph, "_kruskal_cache", None) is None
        trace = boruvka_trace(graph, root=0)
        # the twin never saw a trace: its Kruskal pass really runs
        reference = kruskal_mst(twin)
        assert graph._kruskal_cache == tuple(reference)
        assert kruskal_mst(graph) == reference == trace.mst_edge_ids()

    def test_trace_keeps_an_existing_memo(self):
        graph = random_connected_graph(25, 0.2, seed=9)
        kruskal_mst(graph)
        memo = graph._kruskal_cache
        boruvka_trace(graph, root=3)
        assert graph._kruskal_cache is memo


class TestFragmentPartition:
    def test_singletons(self):
        """Phase 1 starts from the singleton partition."""
        g = random_connected_graph(12, 0.2, seed=7)
        partition = boruvka_trace(g, root=0).partition_before_phase(1)
        assert partition.num_fragments == g.n
        assert partition.fragment_of_array().tolist() == list(range(g.n))
        assert partition.sizes() == [1] * g.n
        nodes, starts = partition.preorder_arrays()
        assert nodes[starts[3] : starts[4]].tolist() == [3]

    def test_fragment_root_and_depths(self):
        g = random_connected_graph(25, 0.1, seed=10)
        trace = boruvka_trace(g, root=0)
        depth, parent = trace.tree.depth, trace.tree.parent
        for phase in trace.phases:
            partition = phase.partition
            frag = partition.fragment_of_array()
            nodes, starts = partition.preorder_arrays()
            for f in range(partition.num_fragments):
                r_f = partition.root_of(f)
                members = np.flatnonzero(frag == f)
                # the fragment root is the member closest to the global root
                assert depth[r_f] == depth[members].min()
                # it has no parent inside T_F, and every other member has one
                assert parent[r_f] < 0 or frag[parent[r_f]] != f
                # DFS preorder visits each member exactly once, root first
                preorder = nodes[starts[f] : starts[f + 1]]
                assert np.array_equal(np.sort(preorder), members)
                assert preorder[0] == r_f
                assert np.all(frag[parent[preorder[1:]]] == f)
                # the k-th preorder node is at depth at most k-1 in T_F
                assert np.all(depth[preorder] - depth[r_f] <= np.arange(preorder.size))

    def test_fragment_tree_levels(self):
        g = random_connected_graph(30, 0.1, seed=11)
        trace = boruvka_trace(g, root=4)
        for phase in trace.phases:
            ftree = phase.fragment_tree
            partition = phase.partition
            frag = partition.fragment_of_array()
            root_fragment = frag[4]
            assert ftree.root_fragment == root_fragment
            assert ftree.depth[root_fragment] == 0  # level 0
            for f in range(partition.num_fragments):
                parent = ftree.parent_fragment[f]
                if f == root_fragment:
                    assert parent == -1
                    assert ftree.connecting_edge[f] == -1
                else:
                    assert ftree.depth[f] == ftree.depth[parent] + 1
                    # the connecting edge joins the fragment's root to its parent fragment
                    ref = g.edge(int(ftree.connecting_edge[f]))
                    assert partition.root_of(f) in (ref.u, ref.v)
                    assert {frag[ref.u], frag[ref.v]} == {f, parent}
