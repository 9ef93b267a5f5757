"""Rooted spanning trees and the up/down edge orientation of the paper.

The MST problem of the paper asks every node to output the *port number*
of the edge leading to its parent in some rooted MST ``T`` (the root
outputs that it is the root).  :class:`RootedSpanningTree` is the
simulation-level object representing such a rooted tree: it knows parent
pointers, parent ports, depths and subtree structure, and can produce
the expected per-node outputs that the distributed decoders are checked
against.

Section 2.2 of the paper orients every tree edge from the point of view
of a node ``v``: the edge is *up at v* when it is the first edge on the
path from ``v`` to the root, and *down at v* otherwise.  This is exactly
``edge == parent_edge[v]`` here.

Trees are rooted with the Euler-tour technique (Tarjan and Vishkin, "An
efficient parallel biconnectivity algorithm", SIAM J. Comput. 14(4),
1985): every tree edge becomes two opposite arcs, each node's arcs are
put in a cyclic order, and leaving a node by the arc after the one it
was entered by walks the whole tree once from the root.  Pointer-jumping
list ranking (Wyllie, "The complexity of parallel computations", PhD
thesis, Cornell, 1979) numbers that walk in ``O(log n)`` whole-array
passes; of an edge's two arcs the one walked first goes down, and every
subtree is the stretch of the walk between its node's two arcs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from repro.graphs.weighted_graph import PortNumberedGraph

__all__ = ["ROOT_OUTPUT", "RootedSpanningTree", "build_rooted_tree", "graph_of"]

#: Sentinel output value produced by the root node ("I am the root").
ROOT_OUTPUT = -1


def graph_of(ref: "weakref.ReferenceType[PortNumberedGraph]") -> PortNumberedGraph:
    """The graph behind a derived structure's weak back-reference.

    Trees and traces are memoised *on* their graph, so they refer back to
    it weakly: a strong back-reference would make every instance a
    reference cycle that only the cyclic garbage collector can free.
    """
    graph = ref()
    if graph is None:
        raise ReferenceError(
            "the graph this structure was derived from no longer exists; "
            "keep a reference to the graph while using its trees and traces"
        )
    return graph


@dataclass(frozen=True, eq=False)
class RootedSpanningTree:
    """A spanning tree of a port-numbered graph, rooted at ``root``.

    Every field is a read-only int64 array indexed by node.  Two trees
    are equal when they root the same edge set of the same graph at the
    same node, which determines every field.
    """

    #: weak reference to the graph (see :func:`graph_of`)
    graph_ref: "weakref.ReferenceType[PortNumberedGraph]"
    root: int
    #: parent node index per node (``-1`` for the root)
    parent: np.ndarray
    #: edge id of the parent edge per node (``-1`` for the root)
    parent_edge: np.ndarray
    #: port (at the child) of the parent edge per node (``-1`` for the root)
    parent_port: np.ndarray
    #: hop depth per node (0 for the root)
    depth: np.ndarray
    #: sorted edge ids of the tree
    edge_ids: np.ndarray
    #: per node, the Euler-tour positions of the arcs entering and leaving
    #: it (``-1`` and ``2(n - 1)`` for the root)
    tour_enter: np.ndarray
    tour_exit: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedSpanningTree):
            return NotImplemented
        return (
            self.graph_ref == other.graph_ref
            and self.root == other.root
            and np.array_equal(self.edge_ids, other.edge_ids)
        )

    def __hash__(self) -> int:
        return hash((self.root, self.edge_ids.tobytes()))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> PortNumberedGraph:
        """The graph this tree spans."""
        return graph_of(self.graph_ref)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.parent.size

    def is_root(self, u: int) -> bool:
        """``True`` iff ``u`` is the root."""
        return u == self.root

    def children(self, u: int) -> List[int]:
        """Children of ``u``, ordered by the ``index_u`` order of the child edges.

        The order matters: the paper's fragment machinery walks subtrees
        "guided by the indexes of the edges ... lower index first".
        """
        kids, starts = self._index_order()[:2]
        return kids[starts[u] : starts[u + 1]].tolist()

    def _index_order(self):
        """``(children, starts, preorder index)`` under the ``index_u`` order.

        Computed once, on the first call, and cached.  The non-root nodes
        sorted by ``(parent, rank of the parent edge at the parent)``
        list every node's children in order, ``starts`` delimiting them.
        A child's preorder position is its parent's plus one plus the
        sizes of its earlier siblings.  That increment summed over the
        path from the root is a prefix sum along the Euler tour, which
        enters every ancestor of a node, and no other node, without
        leaving it before reaching the node.
        """
        cached = getattr(self, "_index_order_cache", None)
        if cached is not None:
            return cached
        graph = self.graph
        n = self.n
        non_root = np.flatnonzero(self.parent >= 0)
        parents = self.parent[non_root]
        eids = self.parent_edge[non_root]
        port_at_parent = np.where(
            graph.edge_u[eids] == parents, graph.edge_port_u[eids], graph.edge_port_v[eids]
        )
        first_slot = graph._offsets[parents]
        rank = graph._slot_orders()[0][first_slot + port_at_parent]
        # (parent, rank) as one unique key: ranks are distinct at a node
        kids = non_root[np.argsort(first_slot + rank)]
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(parents, minlength=n), out=starts[1:])
        enter = self.tour_enter[kids]
        exit_ = self.tour_exit[kids]
        size = (exit_ - enter + 1) >> 1
        before = np.cumsum(size) - size  # sizes of all earlier kids
        step = 1 + before - before[starts[self.parent[kids]]]
        walk = np.zeros(2 * (n - 1), dtype=np.int64)
        walk[enter] = step
        walk[exit_] = -step
        pre = np.zeros(n, dtype=np.int64)
        pre[kids] = np.cumsum(walk)[enter]
        cached = (_frozen(kids), _frozen(starts), _frozen(pre))
        object.__setattr__(self, "_index_order_cache", cached)
        return cached

    def preorder(self) -> "np.ndarray":
        """DFS preorder of the whole tree (children in ``index_u`` order).

        Computed once and cached; the companion :meth:`preorder_index`
        and :meth:`subtree_span` arrays turn every subtree into a
        contiguous interval of preorder positions, which is what lets the
        fragment machinery and the analytic backend replace per-node tree
        walks with NumPy segment operations.
        """
        cached = getattr(self, "_preorder", None)
        if cached is None:
            cached = np.empty(self.n, dtype=np.int64)
            cached[self.preorder_index()] = np.arange(self.n)
            cached = _frozen(cached)
            object.__setattr__(self, "_preorder", cached)
        return cached

    def preorder_index(self) -> "np.ndarray":
        """Position of every node in :meth:`preorder` (``pos[preorder[k]] == k``)."""
        return self._index_order()[2]

    def subtree_span(self) -> "np.ndarray":
        """Per node, one past the last preorder position of its subtree.

        ``preorder()[preorder_index()[u] : subtree_span()[u]]`` is exactly
        the subtree rooted at ``u`` — the classic Euler-interval view.
        """
        cached = getattr(self, "_subtree_span", None)
        if cached is None:
            # the tour walks each edge below a node twice between its two arcs
            sizes = (self.tour_exit - self.tour_enter + 1) >> 1
            cached = _frozen(self.preorder_index() + sizes)
            object.__setattr__(self, "_subtree_span", cached)
        return cached

    def subtree_nodes(self, u: int) -> List[int]:
        """All nodes of the subtree rooted at ``u`` (preorder)."""
        start = int(self.preorder_index()[u])
        return self.preorder()[start : int(self.subtree_span()[u])].tolist()

    def subtree_size(self, u: int) -> int:
        """Number of nodes in the subtree rooted at ``u``."""
        return int(self.tour_exit[u] - self.tour_enter[u] + 1) >> 1

    def path_to_root(self, u: int) -> List[int]:
        """Nodes on the path from ``u`` to the root, inclusive.

        The ancestors of ``u`` are the nodes whose tour stretch holds
        ``u``'s; deeper ancestors are entered later.
        """
        enter = self.tour_enter
        ancestors = np.flatnonzero((enter <= enter[u]) & (self.tour_exit >= self.tour_exit[u]))
        return ancestors[np.argsort(-enter[ancestors])].tolist()

    # ------------------------------------------------------------------ #
    # outputs
    # ------------------------------------------------------------------ #

    def expected_outputs(self) -> Dict[int, int]:
        """The per-node outputs the MST problem requires for this rooted tree.

        Every non-root node maps to the port of its parent edge; the root
        maps to :data:`ROOT_OUTPUT`.
        """
        out = dict(enumerate(self.parent_port.tolist()))
        out[self.root] = ROOT_OUTPUT
        return out

    def total_weight(self) -> float:
        """Sum of the tree edge weights."""
        return self.graph.total_weight(self.edge_ids)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _edge_id_array(tree_edge_ids: Iterable[int]) -> np.ndarray:
    if not isinstance(tree_edge_ids, (np.ndarray, list, tuple, range)):
        tree_edge_ids = list(tree_edge_ids)
    edge_ids = np.array(tree_edge_ids, dtype=np.int64)
    edge_ids.sort()
    return edge_ids


def build_rooted_tree(
    graph: PortNumberedGraph,
    tree_edge_ids: Iterable[int],
    root: int = 0,
) -> RootedSpanningTree:
    """Root the spanning tree given by ``tree_edge_ids`` at ``root``.

    Raises ``ValueError`` if ``root`` is not a node of ``graph`` or the
    edge set is not a spanning tree of it.  Results are memoised per
    ``(root, edge set)`` on the (immutable) graph instance: the Borůvka
    tracer, the trivial scheme's Kruskal tree and the analytic backend
    all root the same MST of the same instance, and the tree object
    itself caches its preorder and subtree spans.
    """
    if not 0 <= root < graph.n:
        raise ValueError("root out of range")
    edge_ids = _edge_id_array(tree_edge_ids)
    memo = getattr(graph, "_rooted_tree_cache", None)
    if memo is None:
        memo = {}
        graph._rooted_tree_cache = memo
    memo_key = (root, edge_ids.tobytes())
    cached = memo.get(memo_key)
    if cached is not None:
        return cached
    n = graph.n
    if edge_ids.size != n - 1:
        raise ValueError(
            f"a spanning tree of {n} nodes needs {n - 1} edges, got {edge_ids.size}"
        )
    if n > 1 and (edge_ids[0] < 0 or edge_ids[-1] >= graph.m):
        raise ValueError("tree edge id out of range")
    if (edge_ids[1:] == edge_ids[:-1]).any():
        raise ValueError("duplicate edge ids in the tree edge set")
    tree = RootedSpanningTree(
        graph_ref=weakref.ref(graph), root=root, **_euler_tour(graph, edge_ids, root)
    )
    memo[memo_key] = tree
    return tree


def _euler_tour(graph: PortNumberedGraph, edge_ids: np.ndarray, root: int) -> Dict[str, np.ndarray]:
    """Every array field of the tree rooting ``edge_ids`` at ``root``.

    Arc ``2j`` runs ``edge_u -> edge_v`` of tree edge ``j`` and arc ``2j +
    1`` back.  Each node's arcs, in port order, form its cyclic order;
    the tour leaves a node by the arc after the reverse of the one it
    arrived by and starts with the root's first arc.  An edge set of
    ``n - 1`` edges is a spanning tree exactly when every node has an
    arc and the tour from the root walks all ``2(n - 1)`` arcs.
    """
    n = graph.n
    arcs = 2 * (n - 1)
    # rows: parent, parent_edge, parent_port, depth, tour_enter, tour_exit
    table = np.full((6, n), -1, dtype=np.int64)
    table[3] = 0
    table[5] = arcs
    if arcs:
        src = np.empty(arcs, dtype=np.int64)
        src[0::2] = graph.edge_u[edge_ids]
        src[1::2] = graph.edge_v[edge_ids]
        port = np.empty(arcs, dtype=np.int64)
        port[0::2] = graph.edge_port_u[edge_ids]
        port[1::2] = graph.edge_port_v[edge_ids]
        counts = np.bincount(src, minlength=n)
        if not counts.all():
            raise ValueError("the given edge set does not span the graph")
        # an arc's slot at its source node is unique: one sort groups the
        # arcs by node, in port order
        by_node = (graph._offsets[src] + port).argsort()
        ends = counts.cumsum()
        following = np.arange(1, arcs + 1)
        following[ends - 1] = ends - counts
        # succ[a]: the arc after a on the tour; ``arcs`` ends it, before
        # the root's first arc comes round again
        succ = np.empty(arcs + 1, dtype=np.int64)
        succ[by_node ^ 1] = by_node[following]
        succ[by_node[ends[root] - 1] ^ 1] = arcs
        succ[arcs] = arcs
        # Wyllie's list ranking: the number of arcs from each arc to the end
        remaining = np.ones(arcs + 1, dtype=np.int64)
        remaining[arcs] = 0
        for _ in range((arcs - 1).bit_length()):
            remaining += remaining[succ]
            succ = succ[succ]
        if remaining[by_node[ends[root] - counts[root]]] != arcs:
            raise ValueError("the given edge set does not span the graph")
        pos = arcs - remaining[:arcs]
        # of an edge's two arcs the tour walks the downward one first
        up = np.arange(0, arcs, 2) + (pos[0::2] < pos[1::2])
        down = up ^ 1
        child = src[up]
        enter = pos[down]
        parent, parent_edge, parent_port, depth, tour_enter, tour_exit = table
        parent[child] = src[down]
        parent_edge[child] = edge_ids
        parent_port[child] = port[up]
        tour_enter[child] = enter
        tour_exit[child] = pos[up]
        # depth at a down arc: the down arcs walked so far minus the up arcs
        downs = np.zeros(arcs, dtype=np.int64)
        downs[enter] = 1
        depth[child] = 2 * downs.cumsum()[enter] - enter - 1
    table.flags.writeable = False
    edge_ids.flags.writeable = False
    parent, parent_edge, parent_port, depth, tour_enter, tour_exit = table
    return dict(
        parent=parent,
        parent_edge=parent_edge,
        parent_port=parent_port,
        depth=depth,
        edge_ids=edge_ids,
        tour_enter=tour_enter,
        tour_exit=tour_exit,
    )
