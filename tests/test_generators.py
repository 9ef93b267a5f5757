"""Tests of the instance generators."""

import hashlib

import numpy as np
import pytest

from repro.graphs import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    power_law_graph,
    random_connected_graph,
    random_geometric_graph,
    random_spanning_tree_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.generators import assign_weights
from repro.runner.registry import GRAPH_FAMILIES, build_graph


ALL_GENERATORS = [
    ("path", lambda: path_graph(9, seed=1), 9, 8),
    ("cycle", lambda: cycle_graph(9, seed=1), 9, 9),
    ("star", lambda: star_graph(9, seed=1), 9, 8),
    ("complete", lambda: complete_graph(9, seed=1), 9, 36),
    ("grid", lambda: grid_graph(3, 4, seed=1), 12, 17),
    ("torus", lambda: torus_graph(3, 4, seed=1), 12, 24),
    ("hypercube", lambda: hypercube_graph(4, seed=1), 16, 32),
    ("powerlaw", lambda: power_law_graph(20, attach=2, seed=1), 20, 36),
    ("caterpillar", lambda: caterpillar_graph(5, 2, seed=1), 15, 14),
    ("tree", lambda: random_spanning_tree_graph(20, seed=1), 20, 19),
]


class TestTopologies:
    @pytest.mark.parametrize("name,factory,n,m", ALL_GENERATORS, ids=[g[0] for g in ALL_GENERATORS])
    def test_shape_and_validity(self, name, factory, n, m):
        g = factory()
        g.validate()
        assert g.n == n
        assert g.m == m
        assert g.is_connected()

    def test_random_connected_graph_contains_spanning_tree(self):
        g = random_connected_graph(50, 0.0, seed=3)
        assert g.m == 49  # p=0 gives exactly the random spanning tree
        g2 = random_connected_graph(50, 0.2, seed=3)
        assert g2.m > 49
        assert g2.is_connected()

    def test_random_connected_graph_density_monotone(self):
        sparse = random_connected_graph(60, 0.02, seed=5)
        dense = random_connected_graph(60, 0.4, seed=5)
        assert dense.m > sparse.m

    def test_geometric_graph_connected_and_euclidean(self):
        g = random_geometric_graph(60, seed=7)
        g.validate()
        assert g.is_connected()
        # Euclidean weights live in (0, sqrt 2)
        assert all(0.0 < w <= np.sqrt(2) + 1e-9 for w in g.edge_w)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            star_graph(1)
        with pytest.raises(ValueError):
            torus_graph(2, 5)
        with pytest.raises(ValueError):
            random_connected_graph(10, 1.5)
        with pytest.raises(ValueError):
            grid_graph(0, 3)
        with pytest.raises(ValueError):
            hypercube_graph(0)
        with pytest.raises(ValueError):
            hypercube_graph(21)
        with pytest.raises(ValueError):
            power_law_graph(1)
        with pytest.raises(ValueError):
            power_law_graph(10, attach=0)

    def test_hypercube_is_regular(self):
        for dim in (1, 2, 3, 5):
            g = hypercube_graph(dim, seed=0)
            assert g.n == 2**dim
            assert g.m == dim * 2 ** (dim - 1)
            assert all(g.degree(v) == dim for v in range(g.n))

    def test_power_law_has_heavy_tail(self):
        g = power_law_graph(400, attach=2, seed=1)
        degrees = sorted((g.degree(v) for v in range(g.n)), reverse=True)
        # hubs: the max degree dwarfs the median (no bounded-degree family
        # in the zoo behaves like this)
        assert degrees[0] >= 4 * degrees[len(degrees) // 2]
        # edge budget: star core + attach edges per later node
        assert g.m == 2 + 2 * (400 - 3)


class TestWeightsAndDeterminism:
    def test_distinct_mode_gives_distinct_weights(self):
        g = random_connected_graph(40, 0.1, seed=2, weight_mode="distinct")
        assert g.has_distinct_weights()

    def test_integer_mode_range(self):
        rng = np.random.default_rng(0)
        w = assign_weights(500, rng, "integer", weight_range=7)
        assert w.min() >= 1 and w.max() <= 7

    def test_uniform_mode(self):
        rng = np.random.default_rng(0)
        w = assign_weights(100, rng, "uniform")
        assert ((0 <= w) & (w < 1)).all()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            assign_weights(5, np.random.default_rng(0), "bogus")

    def test_same_seed_same_graph(self):
        a = random_connected_graph(40, 0.1, seed=9)
        b = random_connected_graph(40, 0.1, seed=9)
        assert a.edge_list() == b.edge_list()

    def test_different_seed_different_graph(self):
        a = random_connected_graph(40, 0.1, seed=9)
        b = random_connected_graph(40, 0.1, seed=10)
        assert a.edge_list() != b.edge_list()

    def test_shuffled_ports_preserve_structure(self):
        g = random_connected_graph(25, 0.1, seed=4, shuffle_ports=True)
        g.validate()
        h = random_connected_graph(25, 0.1, seed=4, shuffle_ports=False)
        # same edge multiset regardless of port shuffling
        assert sorted((u, v) for u, v, _ in g.edge_list()) == sorted(
            (u, v) for u, v, _ in h.edge_list()
        )


class TestFamilyRegistry:
    """Every registry family is buildable, connected and deterministic."""

    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_family_builds_connected(self, family):
        g = build_graph(family, 20, seed=1)
        g.validate()
        assert g.is_connected()

    @pytest.mark.parametrize("family", GRAPH_FAMILIES)
    def test_family_deterministic(self, family):
        a = build_graph(family, 24, seed=5)
        b = build_graph(family, 24, seed=5)
        assert a.edge_list() == b.edge_list()

    def test_structured_families_round_the_requested_size(self):
        assert build_graph("hypercube", 30, seed=0).n == 32
        assert build_graph("grid", 20, seed=0).n == 16
        assert build_graph("torus", 20, seed=0).n == 16

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            build_graph("moebius", 16, seed=0)


#: ``(n, p)`` of ``random_connected_graph`` with distinct weights
DISTINCT_GRID = [
    (n, p)
    for n in (1, 2, 3, 4, 5, 17, 64, 100, 257, 1024, 2048)
    for p in (0.0, 0.01, 0.04, 0.1, 0.5, 1.0)
]
#: ``(n, p, weight mode, shuffled ports)`` of ``random_connected_graph``
MODE_GRID = [
    (n, p, mode, shuffle)
    for mode in ("distinct", "integer", "uniform")
    for shuffle in (True, False)
    for n in (1, 2, 3, 4, 5, 17, 64, 100, 257, 1024)
    for p in (0.0, 0.04, 0.5, 1.0)
]
#: sha256 of :func:`_fingerprint_graphs`, taken from the generators that
#: drew one parent per node and built the ``np.triu_indices`` arrays
GENERATOR_FINGERPRINT = "829073cdfbf09f6267222deb8fd36f0d3cda12f5f69429280d39919603cf67e3"


def _fingerprint_graphs():
    for seed, (n, p) in enumerate(DISTINCT_GRID):
        yield random_connected_graph(n, p, seed=seed)
    for seed, (n, p, mode, shuffle) in enumerate(MODE_GRID):
        yield random_connected_graph(n, p, seed=seed, weight_mode=mode, shuffle_ports=shuffle)
    for dim in range(1, 11):
        for shuffle in (False, True):
            yield hypercube_graph(dim, seed=dim, shuffle_ports=shuffle)
    for n in (1, 2, 3, 17, 1024):
        for shuffle in (False, True):
            yield random_spanning_tree_graph(n, seed=n, shuffle_ports=shuffle)


class TestGeneratedBytes:
    def test_generated_arrays_match_the_pinned_fingerprint(self):
        """Edges, weights, ports and degrees of every graph, byte for byte.

        Any change to the random stream (which draws happen, how many,
        in what order) or to the edge order changes the digest.
        """
        digest = hashlib.sha256()
        for g in _fingerprint_graphs():
            # edge arrays are compact, not views keeping a larger buffer alive
            assert all(a.flags.c_contiguous for a in (g.edge_u, g.edge_v, g.edge_w))
            digest.update(f"{g.n} {g.m}".encode())
            for array in (g.edge_u, g.edge_v, g.edge_w, g.edge_port_u, g.edge_port_v, g._degrees):
                digest.update(array.dtype.str.encode())
                digest.update(array.tobytes())
        assert digest.hexdigest() == GENERATOR_FINGERPRINT
