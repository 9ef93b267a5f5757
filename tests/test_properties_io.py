"""Tests of structural queries and graph serialisation."""

import pytest

from repro.graphs import io
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    power_law_graph,
    random_connected_graph,
    random_geometric_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.properties import (
    bfs_layers,
    bfs_parents,
    connected_components,
    degree_statistics,
    diameter,
    eccentricity,
    is_connected,
    shortest_path_lengths,
)
from repro.graphs.weighted_graph import PortNumberedGraph

# sizes on both sides of the 64-source word blocks of the exact diameter
_WORD_SIZES = (1, 2, 63, 64, 65, 130)
_TORUS_SHAPES = {63: (7, 9), 64: (8, 8), 65: (5, 13), 130: (10, 13)}
_DIAMETER_CASES = (
    [("random", n) for n in _WORD_SIZES]
    + [("path", n) for n in _WORD_SIZES]
    + [("powerlaw", n) for n in _WORD_SIZES if n >= 2]
    + [("geometric", n) for n in _WORD_SIZES if n >= 2]
    + [("torus", n) for n in _TORUS_SHAPES]
    # hypercubes only come in powers of two: one word, a full word, two words
    + [("hypercube", n) for n in (2, 32, 64, 128)]
)


def _sized_instance(family, n):
    if family == "random":
        return random_connected_graph(n, 0.05, seed=n)
    if family == "path":
        return path_graph(n, seed=n)
    if family == "powerlaw":
        return power_law_graph(n, seed=n)
    if family == "geometric":
        return random_geometric_graph(n, seed=n)
    if family == "torus":
        return torus_graph(*_TORUS_SHAPES[n], seed=n)
    return hypercube_graph(n.bit_length() - 1, seed=n)


class TestProperties:
    def test_bfs_layers_on_path(self):
        g = path_graph(6, seed=0)
        layers = bfs_layers(g, 0)
        assert layers == [[0], [1], [2], [3], [4], [5]]

    def test_bfs_parents_cover_all_nodes(self):
        g = random_connected_graph(30, 0.1, seed=1)
        parents = bfs_parents(g, 4)
        assert set(parents) == set(range(30))
        assert parents[4] is None

    def test_shortest_path_lengths(self):
        g = cycle_graph(8, seed=0)
        dist = shortest_path_lengths(g, 0)
        assert dist[4] == 4 and dist[1] == 1 and dist[7] == 1

    def test_diameter_known_values(self):
        assert diameter(path_graph(10, seed=0)) == 9
        assert diameter(cycle_graph(10, seed=0)) == 5
        assert diameter(star_graph(10, seed=0)) == 2
        assert diameter(complete_graph(6, seed=0)) == 1
        assert diameter(grid_graph(3, 4, seed=0)) == 5

    @pytest.mark.parametrize(
        "family,n", _DIAMETER_CASES, ids=[f"{f}{n}" for f, n in _DIAMETER_CASES]
    )
    def test_diameter_matches_per_source_bfs(self, family, n):
        g = _sized_instance(family, n)
        assert g.n == n
        assert diameter(g) == max(eccentricity(g, u) for u in range(g.n))

    def test_diameter_counts_the_last_source_of_each_word(self):
        # a path whose only two peripheral nodes are the 64th source of
        # the first and of the second word block
        order = [63] + [u for u in range(130) if u not in (63, 127)] + [127]
        edges = [(a, b, float(k)) for k, (a, b) in enumerate(zip(order, order[1:]))]
        g = PortNumberedGraph(130, edges)
        assert diameter(g) == 129

    def test_diameter_double_sweep_on_large_tree(self):
        g = path_graph(3000, seed=0)
        assert diameter(g, exact_limit=100) == 2999  # double sweep is exact on trees

    def test_eccentricity(self):
        g = path_graph(5, seed=0)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_disconnected_rejected(self):
        g = PortNumberedGraph(4, [(0, 1, 1.0), (2, 3, 2.0)])
        assert not is_connected(g)
        with pytest.raises(ValueError):
            diameter(g)
        with pytest.raises(ValueError):
            eccentricity(g, 0)
        # a path on 69 nodes plus an isolated node spans two word blocks
        with pytest.raises(ValueError):
            diameter(PortNumberedGraph(70, [(u, u + 1, float(u)) for u in range(68)]))

    def test_connected_components(self):
        g = PortNumberedGraph(5, [(0, 1, 1.0), (2, 3, 2.0)])
        comps = connected_components(g)
        assert sorted(map(tuple, comps)) == [(0, 1), (2, 3), (4,)]

    def test_degree_statistics(self):
        stats = degree_statistics(star_graph(10, seed=0))
        assert stats["max"] == 9 and stats["min"] == 1
        assert abs(stats["mean"] - 18 / 10) < 1e-9


class TestIO:
    def test_json_round_trip_preserves_ports(self):
        g = random_connected_graph(20, 0.15, seed=2, shuffle_ports=True)
        g2 = io.from_json(io.to_json(g))
        assert g2.n == g.n and g2.m == g.m
        for u in range(g.n):
            for p in g.ports(u):
                assert g2.neighbor(u, p) == g.neighbor(u, p)
                assert g2.weight(u, p) == g.weight(u, p)

    def test_json_rejects_other_documents(self):
        with pytest.raises(ValueError):
            io.from_json('{"format": "something-else"}')

    def test_json_file_round_trip(self, tmp_path):
        g = random_connected_graph(12, 0.2, seed=3)
        path = tmp_path / "graph.json"
        io.save_json(g, path)
        g2 = io.load_json(path)
        assert g2.edge_list() == g.edge_list()

    def test_edge_list_text_round_trip(self):
        g = random_connected_graph(15, 0.1, seed=4)
        g2 = io.from_edge_list_text(io.to_edge_list_text(g))
        assert g2.n == g.n
        assert g2.edge_list() == g.edge_list()
