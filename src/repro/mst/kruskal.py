"""Kruskal's algorithm under the canonical ``(weight, edge_id)`` order.

The returned edge set is the library's reference MST ``T*``: because all
edges are compared under one global total order, the result is unique
even when edge weights are duplicated, and it coincides with the output
of :func:`repro.mst.boruvka.boruvka_mst` and :func:`repro.mst.prim.prim_mst`.
:func:`kruskal_in_order` is the same scan under a caller's order.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.union_find import UnionFind

__all__ = ["kruskal_in_order", "kruskal_mst"]


def kruskal_mst(graph: PortNumberedGraph) -> List[int]:
    """Edge ids of the reference MST ``T*`` of ``graph``.

    Raises ``ValueError`` if the graph is not connected (the paper's
    model only considers connected networks).

    The reference MST is a pure function of the (immutable) graph, so
    the result is memoised on the instance — oracles and verifiers ask
    for ``T*`` of the same graph several times per run.
    """
    cached = getattr(graph, "_kruskal_cache", None)
    if cached is not None:
        return list(cached)
    if not graph.is_connected():
        raise ValueError("MST is undefined on a disconnected graph")
    tree = kruskal_in_order(graph, np.lexsort((np.arange(graph.m), graph.edge_w)))
    graph._kruskal_cache = tuple(tree)
    return tree


def kruskal_in_order(graph: PortNumberedGraph, order: np.ndarray) -> List[int]:
    """Sorted edge ids of the tree Kruskal builds scanning edges in ``order``.

    ``order`` lists the edge ids of a connected graph, lightest first
    under whatever total order the caller breaks ties by; nothing is
    memoised.
    """
    uf = UnionFind(graph.n)
    edge_u = graph.edge_u.tolist()
    edge_v = graph.edge_v.tolist()
    tree: List[int] = []
    for eid in order.tolist():
        if uf.union(edge_u[eid], edge_v[eid]):
            tree.append(eid)
            if len(tree) == graph.n - 1:
                break
    tree.sort()
    return tree
