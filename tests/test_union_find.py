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
        roots = uf.roots_array().tolist()
        assert roots == [uf.find(x) for x in range(5)]
        groups = {}
        for x, root in enumerate(roots):
            groups.setdefault(root, []).append(x)
        assert sorted(groups.values()) == [[0, 4], [1, 2], [3]]

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

    @given(
        st.lists(
            st.one_of(st.tuples(st.integers(0, 19), st.integers(0, 19)), st.none()),
            max_size=60,
        )
    )
    def test_roots_array_matches_find_between_unions(self, steps):
        """``roots_array`` compresses every path in place; unions and finds
        after it must still see the same partition."""
        uf = UnionFind(20)
        for step in steps:
            if step is None:
                assert uf.roots_array().tolist() == [uf.find(x) for x in range(20)]
            else:
                uf.union(*step)
        roots = uf.roots_array().tolist()
        assert roots == [uf.find(x) for x in range(20)]
        assert len(set(roots)) == uf.component_count
