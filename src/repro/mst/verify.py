"""MST and spanning-tree verification.

The distributed decoders output one port per node; the schemes are only
considered correct when these outputs describe a rooted spanning tree of
minimum total weight.  This module provides the checks:

* :func:`is_spanning_tree` — structural check of an edge set;
* :func:`is_minimum_spanning_tree` — weight-optimality via comparison
  with the reference MST (sound because MST weight is unique even when
  the MST itself is not);
* :func:`verify_cut_property` / :func:`verify_cycle_property` — the two
  classical exchange arguments, checked explicitly; they are used by the
  property-based tests and by the ``G_n`` uniqueness check of Theorem 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.kruskal import kruskal_mst
from repro.mst.union_find import UnionFind

__all__ = [
    "is_spanning_tree",
    "is_minimum_spanning_tree",
    "verify_cut_property",
    "verify_cycle_property",
    "unique_mst_edge_ids",
]


def is_spanning_tree(graph: PortNumberedGraph, edge_ids: Iterable[int]) -> bool:
    """``True`` iff ``edge_ids`` form a spanning tree of ``graph``."""
    ids = list(dict.fromkeys(int(e) for e in edge_ids))
    if len(ids) != graph.n - 1:
        return False
    uf = UnionFind(graph.n)
    for eid in ids:
        if not 0 <= eid < graph.m:
            return False
        if not uf.union(int(graph.edge_u[eid]), int(graph.edge_v[eid])):
            return False  # cycle
    return uf.component_count == 1


def is_minimum_spanning_tree(
    graph: PortNumberedGraph, edge_ids: Iterable[int], tolerance: float = 1e-9
) -> bool:
    """``True`` iff ``edge_ids`` form a spanning tree of minimum total weight."""
    ids = list(int(e) for e in edge_ids)
    if not is_spanning_tree(graph, ids):
        return False
    reference = kruskal_mst(graph)
    return abs(graph.total_weight(ids) - graph.total_weight(reference)) <= tolerance


def verify_cut_property(graph: PortNumberedGraph, edge_ids: Iterable[int]) -> bool:
    """Check the cut property of a spanning tree.

    For every tree edge ``e``: removing ``e`` splits the tree into two
    components, and ``e`` must be a minimum-weight edge crossing that
    cut.  Every MST satisfies this, and any spanning tree satisfying it
    is an MST.
    """
    ids = sorted(int(e) for e in edge_ids)
    if not is_spanning_tree(graph, ids):
        return False
    id_set = set(ids)
    for eid in ids:
        uf = UnionFind(graph.n)
        for other in ids:
            if other != eid:
                uf.union(int(graph.edge_u[other]), int(graph.edge_v[other]))
        w = float(graph.edge_w[eid])
        side = uf.find(int(graph.edge_u[eid]))
        for cand in range(graph.m):
            cu = uf.find(int(graph.edge_u[cand]))
            cv = uf.find(int(graph.edge_v[cand]))
            if cu == cv:
                continue
            if float(graph.edge_w[cand]) < w - 1e-12:
                return False
        _ = side
    return True


def _non_tree_cycles(
    graph: PortNumberedGraph, tree_ids: Iterable[int]
) -> Iterator[Tuple[int, List[int]]]:
    """Yield ``(edge_id, tree_path)`` for every edge of ``graph`` outside the forest.

    ``tree_ids`` must be a forest containing a spanning tree of each
    component that a non-tree edge lies in (a spanning tree, or a
    spanning forest of a disconnected graph).  The forest is rooted
    once, every component from its smallest node, and the tree path
    between the endpoints of a non-tree edge is found by climbing parent
    pointers from the deeper endpoint, then from both, until they meet.
    """
    tree = set(tree_ids)
    edge_u, edge_v = graph.edge_u.tolist(), graph.edge_v.tolist()
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(graph.n)]
    for eid in tree:
        u, v = edge_u[eid], edge_v[eid]
        adjacency[u].append((v, eid))
        adjacency[v].append((u, eid))
    parent = [-1] * graph.n
    parent_edge = [-1] * graph.n
    depth = [-1] * graph.n
    for root in range(graph.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, eid in adjacency[x]:
                if depth[y] < 0:
                    depth[y] = depth[x] + 1
                    parent[y], parent_edge[y] = x, eid
                    stack.append(y)
    for eid in range(graph.m):
        if eid in tree:
            continue
        a, b = edge_u[eid], edge_v[eid]
        path: List[int] = []
        while depth[a] > depth[b]:
            path.append(parent_edge[a])
            a = parent[a]
        while depth[b] > depth[a]:
            path.append(parent_edge[b])
            b = parent[b]
        while a != b:
            path += (parent_edge[a], parent_edge[b])
            a, b = parent[a], parent[b]
        yield eid, path


def verify_cycle_property(graph: PortNumberedGraph, edge_ids: Iterable[int]) -> bool:
    """Check the cycle property of a spanning tree.

    For every non-tree edge ``e``: ``e`` must be a maximum-weight edge on
    the cycle it closes with the tree.  Every MST satisfies this, and any
    spanning tree satisfying it is an MST.
    """
    ids = set(int(e) for e in edge_ids)
    if not is_spanning_tree(graph, ids):
        return False
    weights = graph.edge_w.tolist()
    return not any(
        weights[path_edge] > weights[eid] + 1e-12
        for eid, path in _non_tree_cycles(graph, ids)
        for path_edge in path
    )


def unique_mst_edge_ids(graph: PortNumberedGraph) -> Tuple[bool, List[int]]:
    """Return ``(is_unique, mst_edge_ids)`` for the MST of ``graph``.

    The MST is unique iff every non-tree edge is the *strict* maximum on
    the cycle it closes with the reference MST and every tree edge is a
    *strict* minimum across its cut.  We test the equivalent condition
    that swapping any equal-weight non-tree edge for a tree edge on its
    cycle is impossible, which reduces to: for every non-tree edge ``e``
    the cycle it closes contains no tree edge of equal weight.

    Used by the Theorem-1 experiments to certify that ``G_n`` has the
    spine path as its one and only MST.
    """
    tree = kruskal_mst(graph)
    weights = graph.edge_w.tolist()
    unique = not any(
        abs(weights[path_edge] - weights[eid]) <= 1e-12
        for eid, path in _non_tree_cycles(graph, tree)
        for path_edge in path
    )
    return unique, sorted(tree)
