"""Disjoint-set forest (union by rank, path compression).

Used by Kruskal, by the Borůvka phase machinery, and by several
verifiers.  Fragment sizes, which the paper's Borůvka variant needs to
decide which fragments are *active* at a phase (``|F| < 2^i``), come
from :meth:`UnionFind.roots_array` (``np.bincount`` over the
representatives), not from per-union bookkeeping.
"""

from __future__ import annotations

import numpy as np

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

    def roots_array(self) -> np.ndarray:
        """Representative of every element, as one bulk array pass.

        Equivalent to ``[self.find(x) for x in range(n)]`` but computed
        with vectorised pointer jumping (``p = parent[p]`` until a fixed
        point, which takes ``O(log depth)`` array passes) followed by a
        full path-compression write-back.  Representatives are identical
        to per-call :meth:`find` — compression never changes roots — so
        callers that previously paid ``n`` Python-level ``find`` calls
        per phase (the Borůvka loop, fragment partitions) now pay a few
        NumPy passes instead.
        """
        parent = np.asarray(self._parent, dtype=np.int64)
        roots = parent[parent]
        while not np.array_equal(roots, parent):
            parent = roots
            roots = parent[parent]
        self._parent = roots.tolist()
        return roots
