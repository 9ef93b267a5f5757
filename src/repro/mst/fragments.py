"""Fragment partitions and the contracted fragment tree of Section 2.2.

During Borůvka's algorithm the node set is partitioned into *fragments*;
each fragment ``F`` induces a subtree ``T_F`` of the reference MST ``T``
(rooted at ``r_F``, the node of ``F`` closest to the global root ``r``),
and contracting every fragment yields the *tree of fragments* ``T_i``
whose root is the fragment containing ``r``.  The paper assigns every
fragment a *level*: the parity of the depth of its contracted node in
``T_i``.

:class:`FragmentPartition` captures one such partition (derived from the
set of MST edges selected so far), and :class:`FragmentTree` captures
the contracted rooted tree with its levels.  Both are *oracle-side*
objects: the advising schemes use them to decide what advice to write,
and the test-suite uses them to check the structural lemmas of the paper
(Lemma 1, Lemma 2, the level parity of selected edges, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mst.rooted_tree import RootedSpanningTree
from repro.mst.union_find import UnionFind

__all__ = ["FragmentPartition", "FragmentTree"]


class FragmentPartition:
    """A partition of the nodes into fragments, relative to a rooted MST.

    Fragments are the connected components of the *selected* MST edges;
    every fragment is therefore a connected subtree of the reference
    tree.  Fragment indices are assigned in increasing order of the
    smallest member node, which makes them deterministic.

    The partition is backed by one NumPy fragment-index array; the
    historical tuple views ``fragment_of`` and ``members`` are built
    lazily on first access — the hot path (Borůvka annotation, the
    packers, the analytic backend) only ever touches the arrays, and the
    per-phase nested-tuple construction used to dominate trace time.
    """

    __slots__ = (
        "tree",
        "_frag_array",
        "_num_fragments",
        "_fragment_of_t",
        "_members_t",
        "_cache",
        "__weakref__",
    )

    def __init__(
        self,
        tree: RootedSpanningTree,
        fragment_of: Optional[Sequence[int]] = None,
        members: Optional[Sequence[Sequence[int]]] = None,
        *,
        frag_array: Optional["np.ndarray"] = None,
        num_fragments: Optional[int] = None,
    ):
        self.tree = tree
        if frag_array is None:
            frag_array = np.asarray(tuple(fragment_of or ()), dtype=np.int64)
        self._frag_array = frag_array
        if num_fragments is None:
            num_fragments = int(frag_array.max()) + 1 if frag_array.size else 0
        self._num_fragments = int(num_fragments)
        self._fragment_of_t = tuple(fragment_of) if fragment_of is not None else None
        self._members_t = (
            tuple(tuple(m) for m in members) if members is not None else None
        )
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
        return hash((self.tree, self.fragment_of))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FragmentPartition(num_fragments={self.num_fragments}, "
            f"n={self._frag_array.size})"
        )

    # ------------------------------------------------------------------ #
    # lazy tuple views
    # ------------------------------------------------------------------ #

    @property
    def fragment_of(self) -> Tuple[int, ...]:
        """Fragment index of every node (lazy tuple view of the array)."""
        if self._fragment_of_t is None:
            self._fragment_of_t = tuple(self._frag_array.tolist())
        return self._fragment_of_t

    @property
    def members(self) -> Tuple[Tuple[int, ...], ...]:
        """Members of every fragment, sorted (lazy nested-tuple view)."""
        if self._members_t is None:
            grouped = np.argsort(self._frag_array, kind="stable").tolist()
            bounds = np.concatenate(
                ([0], np.cumsum(self.fragment_sizes_array()))
            ).tolist()
            self._members_t = tuple(
                tuple(grouped[bounds[f] : bounds[f + 1]])
                for f in range(self._num_fragments)
            )
        return self._members_t

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_selected_edges(
        tree: RootedSpanningTree, selected_edge_ids: Iterable[int]
    ) -> "FragmentPartition":
        """Partition induced by the connected components of ``selected_edge_ids``.

        Every selected edge must be an edge of ``tree`` (fragments are
        always unions of MST subtrees).
        """
        graph = tree.graph
        tree_edges = set(tree.edge_ids)
        uf = UnionFind(graph.n)
        for eid in selected_edge_ids:
            eid = int(eid)
            if eid not in tree_edges:
                raise ValueError(f"edge {eid} is not an edge of the reference MST")
            ref = graph.edge(eid)
            uf.union(ref.u, ref.v)
        return FragmentPartition.from_roots(tree, uf.roots_array())

    @staticmethod
    def from_roots(tree: RootedSpanningTree, roots: "np.ndarray") -> "FragmentPartition":
        """Partition from a per-node representative array, in one bulk pass.

        Fragment indices are assigned in increasing order of the smallest
        member node — identical to the historical per-node
        ``UnionFind.find`` scan, but built from ``np.unique`` instead of
        ``n`` Python-level find calls per phase.
        """
        roots = np.asarray(roots, dtype=np.int64)
        uniq, first_pos, inverse = np.unique(roots, return_index=True, return_inverse=True)
        # np.unique orders groups by representative value; reorder them by
        # first occurrence = smallest member (node indices are scanned in
        # increasing order), the documented deterministic fragment order
        order = np.argsort(first_pos, kind="stable")
        relabel = np.empty(len(uniq), dtype=np.int64)
        relabel[order] = np.arange(len(uniq))
        fragment_of = relabel[inverse]
        return FragmentPartition(
            tree=tree, frag_array=fragment_of, num_fragments=len(uniq)
        )

    @staticmethod
    def singletons(tree: RootedSpanningTree) -> "FragmentPartition":
        """The initial partition: every node is its own fragment."""
        return FragmentPartition.from_selected_edges(tree, [])

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
        DFS preorder of its fragment subtree; fragment ``f`` occupies
        ``nodes[starts[f] : starts[f + 1]]``.  Built from the whole-tree
        preorder in one ``lexsort``: a fragment is a connected subtree of
        the reference MST, so the restriction of the tree preorder to its
        members *is* its DFS preorder (same children order) — no per-
        fragment Python walk needed.
        """
        cached = self._cache.get("bulk_preorder")
        if cached is None:
            pos = self.tree.preorder_index()
            frag = self.fragment_of_array()
            nodes = np.lexsort((pos, frag))
            counts = np.bincount(frag, minlength=self.num_fragments)
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

    def parent_in_fragment(self, u: int) -> Optional[int]:
        """Parent of ``u`` inside its fragment subtree ``T_F`` (``None`` for ``r_F``)."""
        p = self.tree.parent[u]
        if p < 0 or self._frag_array[p] != self._frag_array[u]:
            return None
        return p

    def depth_in_fragment(self, u: int) -> int:
        """Depth of ``u`` within its fragment subtree ``T_F``."""
        r = self.root_of(int(self._frag_array[u]))
        return self.tree.depth[u] - self.tree.depth[r]

    def dfs_preorder(self, f: int) -> List[int]:
        """DFS preorder of ``T_F`` from ``r_F``, children in edge-index order.

        This is the canonical ordering along which the Theorem-3 oracle
        distributes the fragment advice ``A(F)`` over the nodes of ``F``
        (deviation D6 in DESIGN.md: DFS preorder instead of BFS; the
        ``j``-th node in preorder is at depth at most ``j - 1``, so every
        round bound of the paper is preserved).

        The preorder of each fragment is computed once and cached: the
        Borůvka tracer, the Theorem-3 packer and the analytic backend all
        walk the same fragments of the same partition objects.
        """
        preorders = self._cache.get("preorders")
        if preorders is None:
            preorders = {}
            self._cache["preorders"] = preorders
        cached = preorders.get(f)
        if cached is None:
            nodes, starts = self.preorder_arrays()
            cached = nodes[starts[f] : starts[f + 1]].tolist()
            preorders[f] = cached
        return list(cached)

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
        tree_parent = np.asarray(tree.parent, dtype=np.int64)
        root_parents = tree_parent[frag_roots]
        has_parent = root_parents >= 0
        parent_fragment = np.full(k, -1, dtype=np.int64)
        parent_fragment[has_parent] = frag[root_parents[has_parent]]
        connecting_edge = np.where(
            has_parent, np.asarray(tree.parent_edge, dtype=np.int64)[frag_roots], -1
        )

        pre = tree.preorder_index()
        span = tree.subtree_span()
        crossing = np.flatnonzero(
            (tree_parent >= 0) & (frag[np.maximum(tree_parent, 0)] != frag)
        )
        diff = np.zeros(frag.size + 1, dtype=np.int64)
        np.add.at(diff, pre[crossing], 1)
        np.subtract.at(diff, span[crossing], 1)
        depth_by_pos = np.cumsum(diff[:-1])
        depth = depth_by_pos[pre[frag_roots]]
        ftree = FragmentTree(
            fragment_array=frag,
            root_fragment=int(frag[tree.root]),
            parent_fragment=tuple(parent_fragment.tolist()),
            connecting_edge=tuple(connecting_edge.tolist()),
            depth=tuple(depth.tolist()),
        )
        self._cache["fragment_tree"] = ftree
        return ftree


@dataclass(frozen=True, eq=False)
class FragmentTree:
    """The contracted, rooted "tree of fragments" ``T_i`` with its levels.

    It holds its partition's fragment array rather than the partition,
    which caches it: a back-reference would make every partition a
    reference cycle that only the cyclic garbage collector can free.
    """

    #: fragment index of every node (the partition's array)
    fragment_array: np.ndarray
    root_fragment: int
    #: parent fragment of every fragment (``-1`` for the root fragment)
    parent_fragment: Tuple[int, ...]
    #: MST edge id connecting a fragment's root ``r_F`` to its parent fragment
    connecting_edge: Tuple[int, ...]
    #: depth of every fragment in the contracted tree
    depth: Tuple[int, ...]

    def _key(self) -> Tuple:
        return (self.root_fragment, self.parent_fragment, self.connecting_edge, self.depth)

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
        return len(self.parent_fragment)

    def level(self, f: int) -> int:
        """The paper's fragment level: parity of the contracted depth (0 or 1)."""
        return self.depth[f] % 2

    def level_of_node(self, u: int) -> int:
        """Level of the fragment containing node ``u``."""
        return self.level(int(self.fragment_array[u]))

    def depth_array(self) -> "np.ndarray":
        """Contracted depth per fragment as a NumPy array (cached)."""
        cached = getattr(self, "_depth_array", None)
        if cached is None:
            cached = np.asarray(self.depth, dtype=np.int64)
            object.__setattr__(self, "_depth_array", cached)
        return cached

    def are_adjacent(self, f: int, g: int) -> bool:
        """``True`` iff ``f`` and ``g`` are joined by an MST edge (parent/child)."""
        return self.parent_fragment[f] == g or self.parent_fragment[g] == f
