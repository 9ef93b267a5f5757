"""Tests of the rooted spanning-tree representation."""

import pytest

from repro.core.oracle import run_scheme
from repro.graphs.generators import path_graph, random_connected_graph, star_graph
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.kruskal import kruskal_mst
from repro.mst.rooted_tree import ROOT_OUTPUT, build_rooted_tree
from repro.runner.registry import qualified_names, resolve_scheme


class TestBuild:
    def test_path_rooted_at_end(self):
        g = path_graph(5, seed=1)
        tree = build_rooted_tree(g, range(4), root=0)
        assert tree.depth == (0, 1, 2, 3, 4)
        assert tree.parent == (-1, 0, 1, 2, 3)
        assert tree.is_root(0) and not tree.is_root(3)

    def test_path_rooted_in_middle(self):
        g = path_graph(5, seed=1)
        tree = build_rooted_tree(g, range(4), root=2)
        assert tree.depth[0] == 2 and tree.depth[4] == 2
        assert tree.parent[1] == 2 and tree.parent[3] == 2

    def test_parent_ports_point_at_parents(self):
        g = random_connected_graph(30, 0.1, seed=5)
        tree = build_rooted_tree(g, kruskal_mst(g), root=7)
        for u in range(g.n):
            if u == 7:
                continue
            assert g.neighbor(u, tree.parent_port[u]) == tree.parent[u]
            assert g.edge_id(u, tree.parent_port[u]) == tree.parent_edge[u]

    def test_rejects_wrong_edge_count(self):
        g = path_graph(5, seed=1)
        with pytest.raises(ValueError):
            build_rooted_tree(g, range(3), root=0)

    def test_rejects_non_spanning_edge_set(self):
        g = PortNumberedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            build_rooted_tree(g, [0, 1, 2], root=0)  # a triangle misses node 3

    def test_rejects_duplicate_edges(self):
        g = path_graph(4, seed=1)
        with pytest.raises(ValueError):
            build_rooted_tree(g, [0, 0, 1], root=0)

    @pytest.mark.parametrize("root", [-1, 16])
    def test_rejects_a_root_outside_the_graph(self, root):
        g = random_connected_graph(16, 0.2, seed=1)
        with pytest.raises(ValueError, match="root out of range"):
            build_rooted_tree(g, kruskal_mst(g), root=root)
        # nothing was memoised under the bad root
        assert all(key[0] != root for key in getattr(g, "_rooted_tree_cache", {}))

    @pytest.mark.parametrize("backend", ["engine", "analytic"])
    @pytest.mark.parametrize("root", [-1, 16])
    @pytest.mark.parametrize("target", qualified_names("scheme"))
    def test_schemes_rooting_a_tree_reject_a_root_outside_the_graph(
        self, target, root, backend
    ):
        g = random_connected_graph(16, 0.2, seed=1)
        with pytest.raises(ValueError, match="root out of range"):
            run_scheme(resolve_scheme(target), g, root=root, backend=backend)


class TestQueries:
    def test_children_ordered_by_index(self):
        g = star_graph(6, seed=3)
        tree = build_rooted_tree(g, range(5), root=0)
        kids = tree.children(0)
        assert sorted(kids) == [1, 2, 3, 4, 5]
        # children come in increasing (weight, port) order of the connecting edge
        weights = [g.edge(tree.parent_edge[c]).weight for c in kids]
        assert weights == sorted(weights)

    def test_subtree_and_paths(self):
        g = path_graph(6, seed=1)
        tree = build_rooted_tree(g, range(5), root=0)
        assert tree.subtree_nodes(3) == [3, 4, 5]
        assert tree.subtree_size(0) == 6
        assert tree.path_to_root(4) == [4, 3, 2, 1, 0]

    def test_up_edge_orientation(self):
        g = path_graph(4, seed=1)
        tree = build_rooted_tree(g, range(3), root=0)
        # edge 1 joins nodes 1 and 2; it is up at 2 (towards the root) and down at 1
        assert tree.is_up_edge_at(2, 1)
        assert not tree.is_up_edge_at(1, 1)

    def test_expected_outputs(self):
        g = random_connected_graph(20, 0.1, seed=8)
        tree = build_rooted_tree(g, kruskal_mst(g), root=4)
        outputs = tree.expected_outputs()
        assert outputs[4] == ROOT_OUTPUT
        assert sum(1 for v in outputs.values() if v == ROOT_OUTPUT) == 1
        for u, port in outputs.items():
            if port != ROOT_OUTPUT:
                assert g.neighbor(u, port) == tree.parent[u]

    def test_nodes_by_depth_and_total_weight(self):
        g = path_graph(4, seed=1)
        tree = build_rooted_tree(g, range(3), root=0)
        assert tree.nodes_by_depth() == [[0], [1], [2], [3]]
        assert abs(tree.total_weight() - g.total_weight(range(3))) < 1e-9
        assert tree.contains_edge(0) and not tree.contains_edge(99)
