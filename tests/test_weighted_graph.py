"""Tests of the port-numbered weighted graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.weighted_graph import (
    LocalView,
    PortNumberedGraph,
    canonical_edge_key,
    canonical_edge_order,
    lexsort_order,
    weight_ranks,
)


def triangle():
    return PortNumberedGraph(3, [(0, 1, 5.0), (1, 2, 3.0), (0, 2, 4.0)])


class TestConstruction:
    def test_basic_shape(self):
        g = triangle()
        assert g.n == 3 and g.m == 3
        assert [g.degree(u) for u in range(3)] == [2, 2, 2]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            PortNumberedGraph(2, [(0, 0, 1.0)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(ValueError):
            PortNumberedGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PortNumberedGraph(2, [(0, 2, 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PortNumberedGraph(0, [])

    def test_node_ids_default_and_custom(self):
        g = triangle()
        assert [g.node_id(u) for u in range(3)] == [0, 1, 2]
        g2 = PortNumberedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)], node_ids=[7, 7, 9])
        assert g2.node_id(0) == 7 and g2.node_id(1) == 7  # duplicates are allowed

    def test_port_permutation(self):
        g = PortNumberedGraph(
            3, [(0, 1, 1.0), (0, 2, 2.0)], port_permutations={0: [1, 0]}
        )
        # the first input edge of node 0 is on port 1, the second on port 0
        assert g.neighbor(0, 1) == 1
        assert g.neighbor(0, 0) == 2
        g.validate()

    def test_invalid_port_permutation(self):
        with pytest.raises(ValueError):
            PortNumberedGraph(3, [(0, 1, 1.0), (0, 2, 2.0)], port_permutations={0: [0, 0]})


class TestQueries:
    def test_wiring_consistency(self):
        g = triangle()
        g.validate()
        for u in range(g.n):
            for p in g.ports(u):
                v = g.neighbor(u, p)
                q = g.reverse_port(u, p)
                assert g.neighbor(v, q) == u
                assert g.weight(u, p) == g.weight(v, q)

    def test_edge_lookup(self):
        g = triangle()
        ref = g.edge_between(0, 2)
        assert ref is not None and ref.weight == 4.0
        assert ref.other_endpoint(0) == 2
        assert g.edge_between(0, 1).edge_id == 0
        assert PortNumberedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]).edge_between(0, 2) is None

    def test_edge_ref_errors(self):
        ref = triangle().edge(0)
        with pytest.raises(ValueError):
            ref.endpoint_port(2)
        with pytest.raises(ValueError):
            ref.other_endpoint(2)

    def test_total_weight(self):
        g = triangle()
        assert g.total_weight() == 12.0
        assert g.total_weight([0, 1]) == 8.0
        assert g.total_weight([]) == 0.0

    def test_has_distinct_weights(self):
        assert triangle().has_distinct_weights()
        g = PortNumberedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert not g.has_distinct_weights()

    def test_is_connected(self):
        assert triangle().is_connected()
        assert not PortNumberedGraph(3, [(0, 1, 1.0)]).is_connected()
        assert PortNumberedGraph(1, []).is_connected()

    def test_canonical_edge_key_orders_ties_by_id(self):
        assert canonical_edge_key(1.0, 3) < canonical_edge_key(1.0, 5)
        assert canonical_edge_key(1.0, 9) < canonical_edge_key(2.0, 0)


class TestIndexOrder:
    def test_rank_round_trip(self):
        g = PortNumberedGraph(4, [(0, 1, 5.0), (0, 2, 2.0), (0, 3, 5.0)])
        # ports of node 0: 0 -> w5, 1 -> w2, 2 -> w5; index order = [1, 0, 2]
        assert g.ports_by_index(0) == (1, 0, 2)
        for p in g.ports(0):
            assert g.port_of_rank(0, g.rank_of_port(0, p)) == p

    def test_index_pair_definition(self):
        g = PortNumberedGraph(4, [(0, 1, 5.0), (0, 2, 2.0), (0, 3, 5.0)])
        assert g.index_pair(0, 1) == (1, 1)  # unique lightest edge
        assert g.index_pair(0, 0) == (2, 1)  # first of the two weight-5 edges
        assert g.index_pair(0, 2) == (2, 2)  # second of the two weight-5 edges
        for p in g.ports(0):
            x, y = g.index_pair(0, p)
            assert g.port_of_index_pair(0, x, y) == p

    def test_port_of_rank_out_of_range(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.port_of_rank(0, 0)
        with pytest.raises(ValueError):
            g.port_of_rank(0, 3)

    def test_local_view_consistency(self):
        g = PortNumberedGraph(4, [(0, 1, 5.0), (0, 2, 2.0), (0, 3, 5.0)])
        view = g.local_view(0)
        assert view.degree == 3
        assert view.ports_by_weight_then_port() == g.ports_by_index(0)
        for p in range(view.degree):
            assert view.rank_of_port(p) == g.rank_of_port(0, p)
            assert view.index_pair_of_port(p) == g.index_pair(0, p)
            assert view.port_of_index_pair(*view.index_pair_of_port(p)) == p

    def test_local_view_is_hashable(self):
        g = triangle()
        assert g.local_view(0) == g.local_view(0)
        assert len({g.local_view(0), g.local_view(0)}) == 1


class TestUniqueKeySorts:
    """One default sort of a packed unique key replaces every stable sort."""

    def test_packed_keys_give_the_lexsort_order(self, monkeypatch):
        rng = np.random.default_rng(3)
        keys = (rng.integers(0, 4, 500), rng.integers(0, 3, 500), np.arange(500))
        expected = np.lexsort(keys[::-1])
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda k: calls.append(k) or lexsort(k))
        assert np.array_equal(lexsort_order(keys, (4, 3, 500)), expected)
        assert not calls
        # widths whose product passes 2**63 would overflow the packed key
        assert np.array_equal(lexsort_order(keys, (2**32, 2**31, 500)), expected)
        assert len(calls) == 1

    def test_a_key_of_exactly_int64_max_still_packs(self, monkeypatch):
        monkeypatch.setattr(np, "lexsort", None)  # never called
        keys = (np.array([2**31 - 1, 2**31 - 1, 0]), np.array([2**32 - 1, 0, 5]))
        assert lexsort_order(keys, (2**31, 2**32)).tolist() == [2, 1, 0]

    def test_equal_weights_share_a_rank_as_lexsort_ties_them(self):
        w = np.array([1.0, -0.0, np.nan, 0.0, 2.0, np.nan, 1.0, np.inf, -1.0])
        rank, num_ranks, order = weight_ranks(w)
        assert rank.tolist() == [2, 1, 5, 1, 3, 5, 2, 4, 0]
        assert num_ranks == 6
        assert np.array_equal(w[order][:7], np.sort(w)[:7])

    @pytest.mark.parametrize("values", [(1.0, 2.0), (-0.0, 0.0, 1.0), (np.nan, 1.0, 2.0)])
    def test_canonical_edge_order_is_the_weight_then_id_lexsort(self, values):
        rng = np.random.default_rng(len(values))
        for size in (0, 1, 7, 300):
            w = rng.choice(values, size)
            assert np.array_equal(
                canonical_edge_order(w), np.lexsort((np.arange(size), w))
            )
        distinct = rng.permutation(50).astype(np.float64)
        assert np.array_equal(canonical_edge_order(distinct), np.argsort(distinct))

    def test_slot_orders_with_nan_weights_keep_the_lexsort_order(self):
        rng = np.random.default_rng(5)
        edges = [(0, v, float(w)) for v, w in zip(range(1, 9), rng.choice([np.nan, 1.0], 8))]
        edges += [(1, 2, np.nan), (2, 3, -0.0), (3, 4, 0.0)]
        g = PortNumberedGraph(9, edges, port_permutations={0: rng.permutation(8).tolist()})
        rank = g._slot_orders()[0]
        for u in range(g.n):
            w = g.incident_weights(u)
            expected = np.empty(w.size, dtype=np.int64)
            expected[np.lexsort((np.arange(w.size), w))] = np.arange(w.size)
            assert rank[g._offsets[u] : g._offsets[u + 1]].tolist() == expected.tolist()


class TestTransforms:
    def test_reweight_preserves_structure(self):
        g = triangle()
        g2 = g.reweight([10.0, 20.0, 30.0])
        assert g2.n == g.n and g2.m == g.m
        for u in range(g.n):
            for p in g.ports(u):
                assert g2.neighbor(u, p) == g.neighbor(u, p)
        assert g2.edge(0).weight == 10.0
        with pytest.raises(ValueError):
            g.reweight([1.0])

    def test_relabel_ports(self):
        g = triangle()
        g2 = g.relabel_ports({0: [1, 0]})
        g2.validate()
        assert {g2.neighbor(0, 0), g2.neighbor(0, 1)} == {1, 2}
        assert g2.neighbor(0, 0) != g.neighbor(0, 0)

    def test_edge_list_round_trip(self):
        g = triangle()
        g2 = PortNumberedGraph(g.n, g.edge_list())
        assert g2.edge_list() == g.edge_list()


@st.composite
def random_graph_edges(draw):
    """A random connected simple weighted graph as (n, edges)."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = []
    seen = set()
    # spanning tree first (guarantees connectivity)
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        seen.add((u, v))
        edges.append((u, v, float(draw(st.integers(min_value=1, max_value=50)))))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 2))
        b = draw(st.integers(min_value=a + 1, max_value=n - 1))
        if (a, b) not in seen:
            seen.add((a, b))
            edges.append((a, b, float(draw(st.integers(min_value=1, max_value=50)))))
    return n, edges


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(random_graph_edges())
    def test_structural_invariants(self, data):
        n, edges = data
        g = PortNumberedGraph(n, edges)
        g.validate()
        assert g.is_connected()
        # handshake lemma
        assert int(g.degrees().sum()) == 2 * g.m
        # every port resolves to a unique incident edge
        for u in range(n):
            ids = [g.edge_id(u, p) for p in g.ports(u)]
            assert len(set(ids)) == len(ids)

    @settings(max_examples=40, deadline=None)
    @given(random_graph_edges())
    def test_rank_is_a_bijection(self, data):
        n, edges = data
        g = PortNumberedGraph(n, edges)
        for u in range(n):
            ranks = sorted(g.rank_of_port(u, p) for p in g.ports(u))
            assert ranks == list(range(1, g.degree(u) + 1))
