"""Tests of the disjoint-set forest."""

import pytest
from hypothesis import given, strategies as st

from repro.mst.union_find import UnionFind


class TestUnionFind:
    def test_initial_state(self):
        uf = UnionFind(5)
        assert uf.component_count == 5
        assert all(uf.find(x) == x for x in range(5))

    def test_union_and_find(self):
        uf = UnionFind(6)
        assert uf.union(0, 1)
        assert uf.union(2, 3)
        assert not uf.union(1, 0)
        assert uf.find(0) == uf.find(1)
        assert uf.find(0) != uf.find(2)
        assert uf.component_count == 4
        uf.union(1, 2)
        assert uf.find(0) == uf.find(3)
        assert uf.component_count == 3

    def test_components(self):
        uf = UnionFind(5)
        uf.union(0, 4)
        uf.union(1, 2)
        groups = {}
        for x in range(5):
            groups.setdefault(uf.find(x), []).append(x)
        assert sorted(groups.values()) == [[0, 4], [1, 2], [3]]
        assert len(groups) == uf.component_count

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            UnionFind(0)

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
    def test_matches_naive_partition(self, unions):
        uf = UnionFind(20)
        naive = {x: {x} for x in range(20)}
        for a, b in unions:
            uf.union(a, b)
            if naive[a] is not naive[b]:
                merged = naive[a] | naive[b]
                for x in merged:
                    naive[x] = merged
        for a in range(20):
            for b in range(20):
                assert (uf.find(a) == uf.find(b)) == (naive[a] is naive[b])
        assert uf.component_count == len({id(s) for s in naive.values()})
