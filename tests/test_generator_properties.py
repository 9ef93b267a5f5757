"""Property-based tests of the instance generators.

Kept in their own module so the ``importorskip`` below only gates these
tests: when hypothesis is not installed, the deterministic generator
suite in ``test_generators.py`` still runs in full.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

from repro.graphs import (  # noqa: E402  (after the optional-dep gate)
    hypercube_graph,
    power_law_graph,
    random_connected_graph,
    random_geometric_graph,
    torus_graph,
)


class TestGeneratorProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 48),
        prob=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        seed=st.integers(0, 2**31 - 1),
        weight_mode=st.sampled_from(["distinct", "uniform"]),
    )
    def test_random_connected_properties(self, n, prob, seed, weight_mode):
        g = random_connected_graph(n, prob, seed=seed, weight_mode=weight_mode)
        g.validate()
        assert g.n == n
        assert g.is_connected()
        # a spanning tree plus G(n, p) extras, never a multi-edge
        pairs = {(min(u, v), max(u, v)) for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist())}
        assert len(pairs) == g.m
        assert n - 1 <= g.m <= n * (n - 1) // 2
        if prob == 0.0:
            assert g.m == n - 1
        if prob == 1.0:
            assert g.m == n * (n - 1) // 2
        if weight_mode == "distinct":
            assert g.has_distinct_weights()
        # determinism: the same seed rebuilds the same instance, ports included
        twin = random_connected_graph(n, prob, seed=seed, weight_mode=weight_mode)
        for field in ("edge_u", "edge_v", "edge_w", "edge_port_u", "edge_port_v"):
            assert np.array_equal(getattr(g, field), getattr(twin, field))

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(1, 7), seed=st.integers(0, 2**31 - 1))
    def test_hypercube_properties(self, dim, seed):
        g = hypercube_graph(dim, seed=seed)
        g.validate()
        assert g.n == 2**dim and g.m == dim * 2 ** (dim - 1)
        assert g.is_connected()
        assert g.has_distinct_weights()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 80),
        attach=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_power_law_properties(self, n, attach, seed):
        g = power_law_graph(n, attach=attach, seed=seed)
        g.validate()
        assert g.n == n
        assert g.is_connected()
        core = min(attach + 1, n)
        assert g.m == (core - 1) + attach * (n - core)
        # determinism: the same seed rebuilds the same instance
        assert g.edge_list() == power_law_graph(n, attach=attach, seed=seed).edge_list()

    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(3, 8),
        cols=st.integers(3, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_torus_properties(self, rows, cols, seed):
        g = torus_graph(rows, cols, seed=seed)
        g.validate()
        assert g.n == rows * cols
        assert g.m == 2 * rows * cols  # 4-regular with wrap-around
        assert all(g.degree(v) == 4 for v in range(g.n))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**31 - 1))
    def test_geometric_properties(self, n, seed):
        g = random_geometric_graph(n, seed=seed)
        g.validate()
        assert g.n == n
        assert g.is_connected()
