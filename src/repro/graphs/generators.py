"""Instance generators.

Every generator returns a connected :class:`~repro.graphs.weighted_graph.PortNumberedGraph`
and is fully deterministic given its ``seed``: all randomness flows
through a ``numpy.random.Generator`` created from the seed, following
the reproducibility idiom of the HPC guides.

Weight modes
------------

``"distinct"``
    Weights are a random permutation of ``1 .. m`` — pairwise distinct,
    so the MST is unique.  This is the standard assumption of the
    distributed-MST literature (and of GHS) and the default.
``"integer"``
    Independent uniform integers in ``[1, weight_range]`` — duplicates
    are likely, exercising the tie-breaking paths.
``"uniform"``
    Independent uniform floats in ``(0, 1)`` — distinct with
    probability 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.weighted_graph import PortNumberedGraph

__all__ = [
    "assign_weights",
    "caterpillar_graph",
    "complete_graph",
    "cycle_graph",
    "grid_graph",
    "hypercube_graph",
    "path_graph",
    "power_law_graph",
    "random_connected_graph",
    "random_geometric_graph",
    "random_spanning_tree_graph",
    "star_graph",
    "torus_graph",
]


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def assign_weights(
    num_edges: int,
    rng: np.random.Generator,
    weight_mode: str = "distinct",
    weight_range: int = 100,
) -> np.ndarray:
    """Draw ``num_edges`` edge weights according to ``weight_mode``."""
    if weight_mode == "distinct":
        return rng.permutation(np.arange(1, num_edges + 1)).astype(np.float64)
    if weight_mode == "integer":
        return rng.integers(1, weight_range + 1, size=num_edges).astype(np.float64)
    if weight_mode == "uniform":
        return rng.random(num_edges)
    raise ValueError(f"unknown weight mode {weight_mode!r}")


def _build(
    n: int,
    pairs: Union[Sequence[Tuple[int, int]], Tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
    weight_mode: str,
    weight_range: int,
    shuffle_ports: bool,
    weights: Optional[Sequence[float]] = None,
) -> PortNumberedGraph:
    """Assemble a graph from node count + edge pairs + weight policy.

    ``pairs`` is either the historical sequence of ``(u, v)`` tuples or a
    ``(u_array, v_array)`` pair of NumPy arrays — the array form skips
    every per-edge Python tuple on the construction hot path.  The random
    stream (weights first, then one port permutation per non-isolated
    node in node order) is identical either way.
    """
    if isinstance(pairs, tuple) and len(pairs) == 2 and isinstance(pairs[0], np.ndarray):
        u_arr = pairs[0].astype(np.int64, copy=False)
        v_arr = pairs[1].astype(np.int64, copy=False)
    else:
        u_arr = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        v_arr = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    if weights is None:
        w = assign_weights(u_arr.size, rng, weight_mode, weight_range)
    else:
        if len(weights) != u_arr.size:
            raise ValueError("weights must have one entry per edge")
        w = np.asarray(weights, dtype=np.float64)

    port_perms: Optional[np.ndarray] = None
    if shuffle_ports:
        degree = np.bincount(u_arr, minlength=n) + np.bincount(v_arr, minlength=n)
        # one rng.permutation call per non-isolated node, in node order —
        # the same stream the historical dict comprehension consumed; the
        # concatenation is the per-slot port table PortNumberedGraph takes
        parts = [rng.permutation(int(d)) for d in degree.tolist() if d > 0]
        port_perms = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
    return PortNumberedGraph(n, (u_arr, v_arr, w), port_permutations=port_perms)


# ---------------------------------------------------------------------- #
# deterministic topologies
# ---------------------------------------------------------------------- #


def path_graph(
    n: int,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = False,
    weights: Optional[Sequence[float]] = None,
) -> PortNumberedGraph:
    """Simple path ``0 - 1 - ... - (n-1)``."""
    if n < 1:
        raise ValueError("n must be positive")
    pairs = [(i, i + 1) for i in range(n - 1)]
    return _build(n, pairs, _rng(seed), weight_mode, weight_range, shuffle_ports, weights)


def cycle_graph(
    n: int,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = False,
) -> PortNumberedGraph:
    """Cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return _build(n, pairs, _rng(seed), weight_mode, weight_range, shuffle_ports)


def star_graph(
    n: int,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = False,
) -> PortNumberedGraph:
    """Star with centre ``0`` and ``n - 1`` leaves."""
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    pairs = [(0, i) for i in range(1, n)]
    return _build(n, pairs, _rng(seed), weight_mode, weight_range, shuffle_ports)


def complete_graph(
    n: int,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = False,
) -> PortNumberedGraph:
    """Complete graph ``K_n``."""
    if n < 2:
        raise ValueError("a complete graph needs at least 2 nodes")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _build(n, pairs, _rng(seed), weight_mode, weight_range, shuffle_ports)


def grid_graph(
    rows: int,
    cols: int,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = False,
) -> PortNumberedGraph:
    """``rows x cols`` grid (4-neighbourhood)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    n = rows * cols

    def idx(r: int, c: int) -> int:
        return r * cols + c

    pairs: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                pairs.append((idx(r, c), idx(r + 1, c)))
    return _build(n, pairs, _rng(seed), weight_mode, weight_range, shuffle_ports)


def torus_graph(
    rows: int,
    cols: int,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = False,
) -> PortNumberedGraph:
    """``rows x cols`` torus (grid with wrap-around links)."""
    if rows < 3 or cols < 3:
        raise ValueError("a torus needs at least 3 rows and 3 columns")
    n = rows * cols

    def idx(r: int, c: int) -> int:
        return r * cols + c

    pairs: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            pairs.append((idx(r, c), idx(r, (c + 1) % cols)))
            pairs.append((idx(r, c), idx((r + 1) % rows, c)))
    # deduplicate (wrap-around can duplicate on 2xK shapes, excluded above)
    pairs = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    return _build(n, pairs, _rng(seed), weight_mode, weight_range, shuffle_ports)


def hypercube_graph(
    dim: int,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = False,
) -> PortNumberedGraph:
    """The ``dim``-dimensional hypercube ``Q_dim`` (``2^dim`` nodes).

    Node ``u`` is adjacent to ``u ^ (1 << k)`` for every bit position
    ``k`` — the classic interconnection topology: ``dim * 2^(dim-1)``
    edges, every node of degree ``dim``, diameter ``dim``.  Hypercubes
    are the log-diameter counterpoint to grids/tori in family sweeps:
    Borůvka needs the same ``O(log n)`` phases but fragments never grow
    long spines.

    >>> g = hypercube_graph(4, seed=1)
    >>> g.n, g.m, g.is_connected()
    (16, 32, True)
    """
    if dim < 1:
        raise ValueError("a hypercube needs dimension >= 1")
    if dim > 20:
        raise ValueError("refusing to build a hypercube with more than 2^20 nodes")
    n = 1 << dim
    pairs = [(u, u ^ (1 << k)) for u in range(n) for k in range(dim) if u < u ^ (1 << k)]
    return _build(n, pairs, _rng(seed), weight_mode, weight_range, shuffle_ports)


def power_law_graph(
    n: int,
    attach: int = 2,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = True,
) -> PortNumberedGraph:
    """A preferential-attachment (Barabási–Albert style) power-law graph.

    Starts from a star on ``attach + 1`` nodes; every further node joins
    ``attach`` *distinct* existing nodes sampled with probability
    proportional to their current degree.  The resulting degree
    distribution has a heavy tail — a few hubs of very high degree —
    which stresses the advice packing exactly opposite to the
    bounded-degree families: hub-heavy fragments with huge stars of
    degree-1 attachments.  Connected by construction.

    >>> g = power_law_graph(50, attach=2, seed=3)
    >>> g.n, g.is_connected()
    (50, True)
    >>> g.m == 2 + 2 * (50 - 3)  # star on 3 nodes, then 2 edges per newcomer
    True
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if attach < 1:
        raise ValueError("attach must be at least 1")
    rng = _rng(seed)
    core = min(attach + 1, n)
    pairs: List[Tuple[int, int]] = [(0, v) for v in range(1, core)]
    # repeated-endpoint list: node u appears degree(u) times, so a uniform
    # draw from it is exactly degree-proportional sampling (non-empty:
    # n >= 2 guarantees at least the first star edge)
    endpoints: List[int] = []
    for u, v in pairs:
        endpoints.append(u)
        endpoints.append(v)
    for v in range(core, n):
        k = min(attach, v)
        chosen: List[int] = []
        seen = set()
        while len(chosen) < k:
            u = int(endpoints[int(rng.integers(0, len(endpoints)))])
            if u not in seen:
                seen.add(u)
                chosen.append(u)
        for u in chosen:
            pairs.append((u, v))
            endpoints.append(u)
            endpoints.append(v)
    return _build(n, sorted(pairs), rng, weight_mode, weight_range, shuffle_ports)


def caterpillar_graph(
    spine: int,
    legs_per_node: int = 2,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = False,
) -> PortNumberedGraph:
    """A caterpillar: a spine path with ``legs_per_node`` leaves per spine node.

    Caterpillars give trees of large diameter with many degree-1 nodes,
    a stress shape for the fragment machinery (deep ``T_F`` subtrees).
    """
    if spine < 1 or legs_per_node < 0:
        raise ValueError("invalid caterpillar parameters")
    pairs: List[Tuple[int, int]] = []
    n = spine
    for i in range(spine - 1):
        pairs.append((i, i + 1))
    for i in range(spine):
        for _ in range(legs_per_node):
            pairs.append((i, n))
            n += 1
    return _build(n, pairs, _rng(seed), weight_mode, weight_range, shuffle_ports)


# ---------------------------------------------------------------------- #
# random topologies
# ---------------------------------------------------------------------- #


def random_spanning_tree_graph(
    n: int,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = True,
) -> PortNumberedGraph:
    """A uniformly random labelled tree (random attachment) on ``n`` nodes."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = _rng(seed)
    pairs: List[Tuple[int, int]] = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        pairs.append((u, v))
    return _build(n, pairs, rng, weight_mode, weight_range, shuffle_ports)


def random_connected_graph(
    n: int,
    extra_edge_prob: float = 0.05,
    seed: Optional[int] = 0,
    weight_mode: str = "distinct",
    weight_range: int = 100,
    shuffle_ports: bool = True,
) -> PortNumberedGraph:
    """A random connected graph: a random spanning tree plus G(n, p) extras.

    This is the workhorse workload of the benchmark sweeps: connectivity
    is guaranteed by construction (no rejection sampling), and the extra
    edge probability controls the density.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError("extra_edge_prob must be a probability")
    rng = _rng(seed)
    tree_u = np.fromiter(
        (rng.integers(0, v) for v in range(1, n)), dtype=np.int64, count=n - 1
    )
    codes = tree_u * n + np.arange(1, n, dtype=np.int64)  # u < v by construction
    if extra_edge_prob > 0.0 and n > 2:
        # vectorised G(n, p) over the upper triangle
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < extra_edge_prob
        codes = np.concatenate((codes, iu[mask] * n + iv[mask]))
    # unique sorted codes == the historical sorted de-duplicated pair set
    # (sort + run mask rather than np.unique — the hash-based unique of
    # NumPy 2.x is several times slower on these nearly-duplicate-free
    # integer arrays)
    codes.sort()
    if codes.size > 1:
        keep = np.empty(codes.size, dtype=bool)
        keep[0] = True
        np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        codes = codes[keep]
    return _build(
        n, (codes // n, codes % n), rng, weight_mode, weight_range, shuffle_ports
    )


def random_geometric_graph(
    n: int,
    radius: Optional[float] = None,
    seed: Optional[int] = 0,
    weight_mode: str = "euclidean",
    weight_range: int = 100,
    shuffle_ports: bool = True,
) -> PortNumberedGraph:
    """Random geometric graph on the unit square, made connected.

    Nodes are dropped uniformly at random in ``[0, 1]^2``; two nodes are
    joined when their Euclidean distance is below ``radius`` (default
    ``sqrt(2 log n / n)``, the usual connectivity threshold).  Any
    residual disconnection is repaired by joining each component to its
    nearest neighbour outside the component.  With
    ``weight_mode="euclidean"`` the edge weight is the distance — the
    natural "sensor network" workload from the paper's motivation of
    local computation.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = _rng(seed)
    pts = rng.random((n, 2))
    if radius is None:
        radius = float(np.sqrt(2.0 * np.log(max(n, 2)) / n))

    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    iu, iv = np.triu_indices(n, k=1)
    close = dist[iu, iv] <= radius
    pairs = {(int(u), int(v)) for u, v in zip(iu[close], iv[close])}

    # repair connectivity: repeatedly join the first component to its
    # geometrically nearest outside node.
    def components(edge_pairs: set) -> List[List[int]]:
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in edge_pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: Dict[int, List[int]] = {}
        for v in range(n):
            groups.setdefault(find(v), []).append(v)
        return list(groups.values())

    comps = components(pairs)
    while len(comps) > 1:
        comp = comps[0]
        inside = np.zeros(n, dtype=bool)
        inside[comp] = True
        # nearest pair between comp and the rest
        outside = np.nonzero(~inside)[0]
        block = dist[np.ix_(comp, outside)]
        k = int(np.argmin(block))
        a = comp[k // len(outside)]
        b = int(outside[k % len(outside)])
        pairs.add((min(a, b), max(a, b)))
        comps = components(pairs)

    ordered = sorted(pairs)
    if weight_mode == "euclidean":
        weights = [float(dist[u, v]) for u, v in ordered]
        return _build(n, ordered, rng, "distinct", weight_range, shuffle_ports, weights)
    return _build(n, ordered, rng, weight_mode, weight_range, shuffle_ports)
