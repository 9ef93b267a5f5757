"""Fragment partitions and the contracted fragment tree of Section 2.2.

During Borůvka's algorithm the node set is partitioned into *fragments*;
each fragment ``F`` induces a subtree ``T_F`` of the reference MST ``T``
(rooted at ``r_F``, the node of ``F`` closest to the global root ``r``),
and contracting every fragment yields the *tree of fragments* ``T_i``
whose root is the fragment containing ``r``.  The paper assigns every
fragment a *level*: the parity of the depth of its contracted node in
``T_i``.

:class:`FragmentPartition` captures one such partition (built from the
per-node fragment representatives of a Borůvka phase), and
:class:`FragmentTree` captures the contracted rooted tree with its
levels.  Both are *oracle-side* objects: the advising schemes use them
to decide what advice to write, and the test-suite uses them to check
the structural lemmas of the paper (Lemma 1, Lemma 2, the level parity
of selected edges, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.graphs.weighted_graph import lexsort_order
from repro.mst.rooted_tree import RootedSpanningTree

__all__ = ["FragmentPartition", "FragmentTree"]


class FragmentPartition:
    """A partition of the nodes into fragments, relative to a rooted MST.

    Fragments are the connected components of the *selected* MST edges;
    every fragment is therefore a connected subtree of the reference
    tree.  Fragment indices are assigned in increasing order of the
    smallest member node, which makes them deterministic.  The partition
    is one NumPy fragment-index array, and every query reads arrays.
    """

    __slots__ = (
        "tree",
        "_frag_array",
        "_num_fragments",
        "_cache",
        "__weakref__",
    )

    def __init__(
        self, tree: RootedSpanningTree, frag_array: "np.ndarray", num_fragments: int
    ):
        self.tree = tree
        self._frag_array = frag_array
        self._num_fragments = int(num_fragments)
        #: per-instance caches (preorders and fragment roots are requested
        #: by the oracle, the packer and the analytic backend)
        self._cache: Dict = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FragmentPartition):
            return NotImplemented
        return self.tree == other.tree and np.array_equal(
            self._frag_array, other._frag_array
        )

    def __hash__(self) -> int:
        return hash((self.tree, self._frag_array.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FragmentPartition(num_fragments={self.num_fragments}, "
            f"n={self._frag_array.size})"
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_roots(tree: RootedSpanningTree, roots: "np.ndarray") -> "FragmentPartition":
        """Partition from a per-node representative array, in ``O(n)``.

        ``roots`` holds node indices.  Fragment indices are assigned in
        increasing order of the smallest member node, so any choice of
        representatives for the same grouping gives the same partition.
        """
        roots = np.asarray(roots, dtype=np.int64)
        nodes = np.arange(roots.size)
        # per representative its smallest member (``minimum.at`` applies
        # every repeated index, where a plain assignment keeps any one)
        smallest = np.full(roots.size, roots.size, dtype=np.int64)
        np.minimum.at(smallest, roots, nodes)
        leader = smallest[roots]
        label = np.cumsum(leader == nodes) - 1
        num_fragments = int(label[-1]) + 1 if roots.size else 0
        return FragmentPartition(tree, label[leader], num_fragments=num_fragments)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def num_fragments(self) -> int:
        """Number of fragments."""
        return self._num_fragments

    def size(self, f: int) -> int:
        """Number of nodes of fragment ``f``."""
        return int(self.fragment_sizes_array()[f])

    def sizes(self) -> List[int]:
        """Sizes of all fragments."""
        return self.fragment_sizes_array().tolist()

    def fragment_of_array(self) -> "np.ndarray":
        """The per-node fragment index as a NumPy array."""
        return self._frag_array

    def fragment_sizes_array(self) -> "np.ndarray":
        """Per-fragment member counts as a NumPy array (cached)."""
        cached = self._cache.get("sizes_array")
        if cached is None:
            cached = np.bincount(self._frag_array, minlength=self._num_fragments)
            self._cache["sizes_array"] = cached
        return cached

    def preorder_arrays(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """All fragment preorders in one pass: ``(nodes, starts)``.

        ``nodes`` holds every node grouped by fragment, each group in the
        DFS preorder of its fragment subtree ``T_F`` from ``r_F``, children
        in edge-index order; fragment ``f`` occupies ``nodes[starts[f] :
        starts[f + 1]]``.  This is the order along which the Theorem-3
        oracle distributes the fragment advice ``A(F)`` over the nodes of
        ``F`` (deviation D6 in DESIGN.md: DFS preorder instead of BFS; the
        ``j``-th node in preorder is at depth at most ``j - 1``, so every
        round bound of the paper is preserved).

        Built from the whole-tree preorder in one sort by ``(fragment,
        preorder position)``: a fragment is a connected subtree of the
        reference MST, so the restriction of the tree preorder to its
        members *is* its DFS preorder (same children order) — no per-
        fragment Python walk needed.
        """
        cached = self._cache.get("bulk_preorder")
        if cached is None:
            frag = self.fragment_of_array()
            nodes = lexsort_order(
                (frag, self.tree.preorder_index()), (self.num_fragments, frag.size)
            )
            counts = self.fragment_sizes_array()
            starts = np.zeros(self.num_fragments + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            cached = (nodes, starts)
            self._cache["bulk_preorder"] = cached
        return cached

    def preorder_positions(self) -> "np.ndarray":
        """Per node, its 0-based position in its fragment's DFS preorder."""
        cached = self._cache.get("bulk_positions")
        if cached is None:
            nodes, starts = self.preorder_arrays()
            frag = self.fragment_of_array()[nodes]
            cached = np.empty(nodes.size, dtype=np.int64)
            cached[nodes] = np.arange(nodes.size) - starts[frag]
            self._cache["bulk_positions"] = cached
        return cached

    def root_of(self, f: int) -> int:
        """``r_F``: the node of fragment ``f`` closest (in the MST) to the global root."""
        nodes, starts = self.preorder_arrays()
        # the shallowest member is the ancestor of every other member of
        # the connected subtree, hence the first in its preorder group
        return int(nodes[starts[f]])

    def active_fragments(self, phase: int) -> List[int]:
        """Fragments that are *active* at ``phase`` (``|F| < 2^phase``)."""
        threshold = 1 << phase
        return np.flatnonzero(self.fragment_sizes_array() < threshold).tolist()

    # ------------------------------------------------------------------ #
    # contraction
    # ------------------------------------------------------------------ #

    def fragment_tree(self) -> "FragmentTree":
        """Contract every fragment and root the result at the root's fragment.

        Computed once per partition and cached; the contracted depths are
        derived in one vectorised pass (no per-fragment loop): the depth
        of a fragment equals the number of fragment-crossing tree edges on
        the MST path from the global root to ``r_F``, and every crossing
        edge contributes +1 to exactly the whole-tree preorder interval of
        the subtree below it, so a difference array + cumsum over preorder
        positions yields all contracted depths at once.
        """
        cached = self._cache.get("fragment_tree")
        if cached is not None:
            return cached
        tree = self.tree
        k = self.num_fragments
        nodes, starts = self.preorder_arrays()
        frag_roots = nodes[starts[:-1]]  # r_F per fragment, in one gather
        frag = self._frag_array
        tree_parent = tree.parent
        root_parents = tree_parent[frag_roots]
        has_parent = root_parents >= 0
        parent_fragment = np.full(k, -1, dtype=np.int64)
        parent_fragment[has_parent] = frag[root_parents[has_parent]]
        connecting_edge = tree.parent_edge[frag_roots]

        pre = tree.preorder_index()
        span = tree.subtree_span()
        crossing = np.flatnonzero(
            (tree_parent >= 0) & (frag[np.maximum(tree_parent, 0)] != frag)
        )
        positions = frag.size + 1
        diff = np.bincount(pre[crossing], minlength=positions) - np.bincount(
            span[crossing], minlength=positions
        )
        depth_by_pos = np.cumsum(diff[:-1])
        depth = depth_by_pos[pre[frag_roots]]
        ftree = FragmentTree(
            fragment_array=frag,
            root_fragment=int(frag[tree.root]),
            parent_fragment=parent_fragment,
            connecting_edge=connecting_edge,
            depth=depth,
        )
        self._cache["fragment_tree"] = ftree
        return ftree


@dataclass(frozen=True, eq=False)
class FragmentTree:
    """The contracted, rooted "tree of fragments" ``T_i`` with its levels.

    Every per-fragment field is an int64 array.  The paper's level of a
    fragment is the parity of its contracted depth, ``depth % 2``.  The
    tree holds its partition's fragment array rather than the partition,
    which caches it: a back-reference would make every partition a
    reference cycle that only the cyclic garbage collector can free.
    """

    #: fragment index of every node (the partition's array)
    fragment_array: np.ndarray
    root_fragment: int
    #: parent fragment of every fragment (``-1`` for the root fragment)
    parent_fragment: np.ndarray
    #: MST edge id connecting a fragment's root ``r_F`` to its parent
    #: fragment (``-1`` for the root fragment)
    connecting_edge: np.ndarray
    #: depth of every fragment in the contracted tree
    depth: np.ndarray

    def _key(self) -> Tuple:
        return (
            self.root_fragment,
            self.parent_fragment.tobytes(),
            self.connecting_edge.tobytes(),
            self.depth.tobytes(),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FragmentTree):
            return NotImplemented
        return self._key() == other._key() and np.array_equal(
            self.fragment_array, other.fragment_array
        )

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def num_fragments(self) -> int:
        """Number of fragments (nodes of the contracted tree)."""
        return self.parent_fragment.size
