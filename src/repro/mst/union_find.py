"""Disjoint-set forest (union by rank, path compression).

Used by Kruskal and by the spanning-tree checks of
:mod:`repro.mst.verify`.  The Borůvka loops do not use it: they merge
each phase's selections with one vectorised hook-and-jump
(:mod:`repro.mst.boruvka`).
"""

from __future__ import annotations

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint sets over the integers ``0 .. n - 1``."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("UnionFind needs at least one element")
        self._parent = list(range(n))
        self._rank = [0] * n
        self._count = n

    @property
    def component_count(self) -> int:
        """Current number of disjoint sets."""
        return self._count

    def find(self, x: int) -> int:
        """Representative of the set containing ``x`` (with path compression)."""
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; return ``True`` if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._count -= 1
        return True
