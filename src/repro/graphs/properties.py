"""Structural graph queries used by baselines, tests and benchmarks.

These helpers operate on :class:`~repro.graphs.weighted_graph.PortNumberedGraph`
and are *simulation-level* utilities: distributed algorithms never call
them (a node cannot ask for the diameter of the network), but oracles,
verifiers, workload generators and benchmark harnesses do.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.graphs.weighted_graph import PortNumberedGraph

__all__ = [
    "all_sources_bfs",
    "bfs_layers",
    "bfs_parents",
    "connected_components",
    "diameter",
    "eccentricity",
    "is_connected",
    "degree_statistics",
    "shortest_path_lengths",
]


def bfs_layers(graph: PortNumberedGraph, source: int) -> List[List[int]]:
    """Nodes grouped by hop distance from ``source`` (unweighted BFS)."""
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    layers: List[List[int]] = [[source]]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for p in graph.ports(u):
            v = graph.neighbor(u, p)
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                if len(layers) <= dist[v]:
                    layers.append([])
                layers[dist[v]].append(v)
                queue.append(v)
    return layers


def bfs_parents(graph: PortNumberedGraph, source: int) -> Dict[int, Optional[int]]:
    """BFS tree parents from ``source`` (``None`` for the source itself)."""
    parents: Dict[int, Optional[int]] = {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for p in graph.ports(u):
            v = graph.neighbor(u, p)
            if v not in parents:
                parents[v] = u
                queue.append(v)
    return parents


def shortest_path_lengths(graph: PortNumberedGraph, source: int) -> np.ndarray:
    """Unweighted hop distances from ``source`` (``-1`` for unreachable nodes)."""
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for p in graph.ports(u):
            v = graph.neighbor(u, p)
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def eccentricity(graph: PortNumberedGraph, source: int) -> int:
    """Maximum hop distance from ``source`` to any node (graph must be connected)."""
    dist = shortest_path_lengths(graph, source)
    if np.any(dist < 0):
        raise ValueError("eccentricity is undefined on a disconnected graph")
    return int(dist.max())


def diameter(graph: PortNumberedGraph, exact_limit: int = 2048) -> int:
    """Unweighted diameter.

    Exact for graphs of at most ``exact_limit`` nodes: the largest last
    step of any block of :func:`all_sources_bfs`.  Beyond the limit a
    standard double-sweep lower bound is returned, which is exact on
    trees and a very good estimate elsewhere — benchmarks only use the
    diameter to contextualise round counts.
    """
    if not is_connected(graph):
        raise ValueError("diameter is undefined on a disconnected graph")
    if graph.n <= exact_limit:
        return max(step for _, step, _ in all_sources_bfs(graph))
    # double sweep
    d0 = shortest_path_lengths(graph, 0)
    far = int(np.argmax(d0))
    d1 = shortest_path_lengths(graph, far)
    return int(d1.max())


def all_sources_bfs(graph: PortNumberedGraph) -> Iterator[Tuple[int, int, np.ndarray]]:
    """A BFS from every node of a connected graph, 64 sources per ``uint64`` word.

    Yields ``(lo, step, reach)`` for each block of sources ``lo ..
    lo + 63`` (fewer in the last block) and each step ``0, 1, ...``
    until the block has reached every node: bit ``k`` of ``reach[v]``
    says whether ``v`` lies within ``step`` hops of source ``lo + k``.
    One step ORs every node's neighbour words into its own, so each
    block costs one vectorised O(m) step per BFS layer and O(m) words
    of memory, and its last step is its largest eccentricity.  ``reach``
    is updated in place: read it before asking for the next item.
    """
    n = graph.n
    neighbor = graph._adj_neighbor
    # connected with n >= 2: every degree is >= 1, so no reduceat segment
    # is empty (a lone node is full at step 0 and never steps)
    starts = graph._offsets[:-1]
    for lo in range(0, n, 64):
        width = min(64, n - lo)
        full = np.uint64((1 << width) - 1)
        reach = np.zeros(n, dtype=np.uint64)
        reach[lo : lo + width] = np.left_shift(np.uint64(1), np.arange(width, dtype=np.uint64))
        yield lo, 0, reach
        step = 0
        while not (reach == full).all():
            reach |= np.bitwise_or.reduceat(reach[neighbor], starts)
            step += 1
            yield lo, step, reach


def is_connected(graph: PortNumberedGraph) -> bool:
    """``True`` iff the graph is connected."""
    return graph.is_connected()


def connected_components(graph: PortNumberedGraph) -> List[List[int]]:
    """Connected components as lists of node indices."""
    seen = np.zeros(graph.n, dtype=bool)
    components: List[List[int]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for p in graph.ports(u):
                v = graph.neighbor(u, p)
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        components.append(sorted(comp))
    return components


def degree_statistics(graph: PortNumberedGraph) -> Dict[str, float]:
    """Minimum / maximum / mean degree — used in benchmark reports."""
    degs = graph.degrees()
    return {
        "min": float(degs.min()),
        "max": float(degs.max()),
        "mean": float(degs.mean()),
    }
