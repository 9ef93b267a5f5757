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
``edge == parent_edge(v)`` here.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class RootedSpanningTree:
    """A spanning tree of a port-numbered graph, rooted at ``root``."""

    #: weak reference to the graph (see :func:`graph_of`)
    graph_ref: "weakref.ReferenceType[PortNumberedGraph]"
    root: int
    #: parent node index per node (``-1`` for the root)
    parent: Tuple[int, ...]
    #: edge id of the parent edge per node (``-1`` for the root)
    parent_edge: Tuple[int, ...]
    #: port (at the child) of the parent edge per node (``-1`` for the root)
    parent_port: Tuple[int, ...]
    #: hop depth per node (0 for the root)
    depth: Tuple[int, ...]
    #: sorted edge ids of the tree
    edge_ids: Tuple[int, ...]

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
        return len(self.parent)

    def is_root(self, u: int) -> bool:
        """``True`` iff ``u`` is the root."""
        return u == self.root

    def children(self, u: int) -> List[int]:
        """Children of ``u``, ordered by the ``index_u`` order of the child edges.

        The order matters: the paper's fragment machinery walks subtrees
        "guided by the indexes of the edges ... lower index first".
        """
        return list(self.children_table()[u])

    def children_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Children of every node, each ordered by the ``index_u`` order.

        Computed once in a single bulk pass over the tree edges (the
        fragment machinery asks for children of the same tree across
        every Borůvka phase, so a per-call port scan is quadratic in
        practice) and cached on the instance.
        """
        cached = getattr(self, "_children_table", None)
        if cached is not None:
            return cached
        graph = self.graph
        # rank every child's parent edge at the parent in one bulk gather
        # over the cached slot order, then group children by (parent,
        # rank) with a single lexsort — no per-node rank_of_port calls
        parent = np.asarray(self.parent, dtype=np.int64)
        children = np.flatnonzero(parent >= 0)
        if children.size == 0:
            table = tuple(() for _ in range(graph.n))
            object.__setattr__(self, "_children_table", table)
            return table
        parents = parent[children]
        eids = np.asarray(self.parent_edge, dtype=np.int64)[children]
        at_u = graph.edge_u[eids] == parents
        port_at_parent = np.where(at_u, graph.edge_port_u[eids], graph.edge_port_v[eids])
        rank = graph._slot_orders()[0][graph._offsets[parents] + port_at_parent]
        order = np.lexsort((children, rank, parents))
        kids = children[order].tolist()
        counts = np.bincount(parents, minlength=graph.n)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        table = tuple(
            tuple(kids[bounds[u] : bounds[u + 1]]) for u in range(graph.n)
        )
        object.__setattr__(self, "_children_table", table)
        return table

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
            table = self.children_table()
            order: List[int] = []
            stack = [self.root]
            while stack:
                u = stack.pop()
                order.append(u)
                stack.extend(reversed(table[u]))
            cached = np.asarray(order, dtype=np.int64)
            object.__setattr__(self, "_preorder", cached)
        return cached

    def preorder_index(self) -> "np.ndarray":
        """Position of every node in :meth:`preorder` (``pos[preorder[k]] == k``)."""
        cached = getattr(self, "_preorder_index", None)
        if cached is None:
            order = self.preorder()
            cached = np.empty(self.n, dtype=np.int64)
            cached[order] = np.arange(self.n)
            object.__setattr__(self, "_preorder_index", cached)
        return cached

    def subtree_span(self) -> "np.ndarray":
        """Per node, one past the last preorder position of its subtree.

        ``preorder()[preorder_index()[u] : subtree_span()[u]]`` is exactly
        the subtree rooted at ``u`` — the classic Euler-interval view.
        """
        cached = getattr(self, "_subtree_span", None)
        if cached is None:
            order = self.preorder()
            # walk the preorder once; a node's interval closes when the
            # walk first reaches a position whose depth is not deeper
            end = np.empty(self.n, dtype=np.int64)
            depth = self.depth
            stack: List[int] = []
            for k, u in enumerate(order.tolist()):
                d = depth[u]
                while stack and depth[stack[-1]] >= d:
                    end[stack.pop()] = k
                stack.append(u)
            for u in stack:
                end[u] = self.n
            cached = end  # indexed by node; values are preorder positions
            object.__setattr__(self, "_subtree_span", cached)
        return cached

    def subtree_nodes(self, u: int) -> List[int]:
        """All nodes of the subtree rooted at ``u`` (preorder)."""
        out: List[int] = []
        stack = [u]
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(reversed(self.children(x)))
        return out

    def subtree_size(self, u: int) -> int:
        """Number of nodes in the subtree rooted at ``u``."""
        return len(self.subtree_nodes(u))

    def path_to_root(self, u: int) -> List[int]:
        """Nodes on the path from ``u`` to the root, inclusive."""
        path = [u]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def is_up_edge_at(self, node: int, edge_id: int) -> bool:
        """``True`` iff ``edge_id`` is *up at* ``node`` (leads towards the root)."""
        return self.parent_edge[node] == edge_id

    def contains_edge(self, edge_id: int) -> bool:
        """``True`` iff ``edge_id`` is a tree edge."""
        return edge_id in set(self.edge_ids)

    # ------------------------------------------------------------------ #
    # outputs
    # ------------------------------------------------------------------ #

    def expected_outputs(self) -> Dict[int, int]:
        """The per-node outputs the MST problem requires for this rooted tree.

        Every non-root node maps to the port of its parent edge; the root
        maps to :data:`ROOT_OUTPUT`.
        """
        out: Dict[int, int] = {}
        for u in range(self.n):
            out[u] = ROOT_OUTPUT if u == self.root else int(self.parent_port[u])
        return out

    def total_weight(self) -> float:
        """Sum of the tree edge weights."""
        return self.graph.total_weight(self.edge_ids)

    def nodes_by_depth(self) -> List[List[int]]:
        """Nodes grouped by depth (index 0 = the root)."""
        buckets: List[List[int]] = [[] for _ in range(max(self.depth) + 1)]
        for u in range(self.n):
            buckets[self.depth[u]].append(u)
        return buckets


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
    itself carries useful caches (children table, preorder, subtree
    spans).
    """
    if not 0 <= root < graph.n:
        raise ValueError("root out of range")
    edge_ids = sorted(int(e) for e in tree_edge_ids)
    memo = getattr(graph, "_rooted_tree_cache", None)
    if memo is None:
        memo = {}
        graph._rooted_tree_cache = memo
    memo_key = (root, tuple(edge_ids))
    cached = memo.get(memo_key)
    if cached is not None:
        return cached
    if len(edge_ids) != graph.n - 1:
        raise ValueError(
            f"a spanning tree of {graph.n} nodes needs {graph.n - 1} edges, "
            f"got {len(edge_ids)}"
        )
    if len(set(edge_ids)) != len(edge_ids):
        raise ValueError("duplicate edge ids in the tree edge set")

    # adjacency restricted to the tree (plain array reads, no EdgeRef)
    eids_arr = np.asarray(edge_ids, dtype=np.int64)
    eu = graph.edge_u[eids_arr].tolist()
    ev = graph.edge_v[eids_arr].tolist()
    pu = graph.edge_port_u[eids_arr].tolist()
    pv = graph.edge_port_v[eids_arr].tolist()
    adjacency: List[List[Tuple[int, int, int]]] = [[] for _ in range(graph.n)]
    for k, eid in enumerate(edge_ids):
        adjacency[eu[k]].append((ev[k], eid, pv[k]))
        adjacency[ev[k]].append((eu[k], eid, pu[k]))

    parent = [-1] * graph.n
    parent_edge = [-1] * graph.n
    parent_port = [-1] * graph.n
    depth = [-1] * graph.n
    depth[root] = 0
    queue = deque([root])
    visited = 1
    while queue:
        u = queue.popleft()
        du = depth[u]
        for v, eid, port_v in adjacency[u]:
            if depth[v] >= 0 or v == root:
                continue
            depth[v] = du + 1
            parent[v] = u
            parent_edge[v] = eid
            parent_port[v] = port_v
            visited += 1
            queue.append(v)
    if visited != graph.n:
        raise ValueError("the given edge set does not span the graph")

    tree = RootedSpanningTree(
        graph_ref=weakref.ref(graph),
        root=root,
        parent=tuple(parent),
        parent_edge=tuple(parent_edge),
        parent_port=tuple(parent_port),
        depth=tuple(depth),
        edge_ids=tuple(edge_ids),
    )
    memo[memo_key] = tree
    return tree
