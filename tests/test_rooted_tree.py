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
        assert tree.depth.tolist() == [0, 1, 2, 3, 4]
        assert tree.parent.tolist() == [-1, 0, 1, 2, 3]
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

    def test_rejects_a_cycle_whose_arcs_all_lie_on_one_tour(self):
        # n - 1 = 5 edges: K4 minus the edge 2-3, a cycle, leaving nodes 4
        # and 5 unreached; with these ports the Euler tour from the root
        # walks all ten arcs, so only the unreached nodes give it away
        g = PortNumberedGraph(
            6,
            [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (1, 2, 4.0), (1, 3, 5.0), (3, 4, 6.0), (4, 5, 7.0)],
        )
        tree_edges = [0, 1, 2, 3, 4]
        arcs = [(int(g.edge_u[e]), e) for e in tree_edges] + [(int(g.edge_v[e]), e) for e in tree_edges]
        around = {}  # each node's arcs in port order
        for node, e in sorted(arcs, key=lambda arc: (arc[0], g.edge(arc[1]).endpoint_port(arc[0]))):
            around.setdefault(node, []).append(e)
        walked, node, e = [], 0, around[0][0]
        while (node, e) not in walked:
            walked.append((node, e))
            node = g.edge(e).other_endpoint(node)
            ring = around[node]
            e = ring[(ring.index(e) + 1) % len(ring)]
        assert len(walked) == len(arcs)
        with pytest.raises(ValueError, match="does not span"):
            build_rooted_tree(g, tree_edges, root=0)

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
        assert tree.parent_edge[2] == 1
        assert tree.parent_edge[1] != 1

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
        assert tree.depth.tolist() == [0, 1, 2, 3]
        assert abs(tree.total_weight() - g.total_weight(range(3))) < 1e-9
        assert tree.edge_ids.tolist() == [0, 1, 2]
