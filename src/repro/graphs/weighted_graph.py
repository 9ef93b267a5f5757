"""Port-numbered, edge-weighted graphs.

This module implements the network model of Section 1 of the paper:

* graphs are connected, simple (no self-loops, no parallel edges) and
  edge-weighted;
* every node ``u`` carries an identifier ``ID(u)`` (identifiers need not
  be distinct);
* the ``deg(u)`` edges incident to ``u`` are locally labelled by
  ``deg(u)`` distinct *port numbers*; a node refers to an incident edge
  only through its port number;
* node ``u`` initially knows its identifier and the weight of each of
  its incident edges, identified by its port number.  This initial
  knowledge is captured by :class:`LocalView`.

The representation is a structure of arrays (CSR adjacency backed by
NumPy) so that the per-node rank computations used by the advising
schemes — the ``index_u(e) = (x_u(e), y_u(e))`` order of the paper — are
vectorised rather than per-edge Python loops.

Port numbers are 0-based internally (``0 .. deg(u) - 1``); the paper
uses 1-based ports, which only shifts reported numbers by one and never
changes any bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "EdgeRef",
    "LocalView",
    "PortNumberedGraph",
    "canonical_edge_key",
]


def canonical_edge_key(weight: float, edge_id: int) -> Tuple[float, int]:
    """Globally consistent total order on edges.

    Ties between equal-weight edges are broken by the canonical edge
    identifier.  Using one single total order everywhere (Kruskal,
    Borůvka, the oracles) guarantees that all components of the library
    agree on *one* reference MST ``T*`` even when edge weights are not
    pairwise distinct, and that fragment merges never create cycles.
    """

    return (float(weight), int(edge_id))


@dataclass(frozen=True)
class EdgeRef:
    """A fully resolved reference to one edge of a :class:`PortNumberedGraph`."""

    edge_id: int
    u: int
    v: int
    weight: float
    port_u: int
    port_v: int

    def endpoint_port(self, node: int) -> int:
        """Port number of this edge at ``node`` (which must be an endpoint)."""
        if node == self.u:
            return self.port_u
        if node == self.v:
            return self.port_v
        raise ValueError(f"node {node} is not an endpoint of edge {self.edge_id}")

    def other_endpoint(self, node: int) -> int:
        """The endpoint different from ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of edge {self.edge_id}")


@dataclass(frozen=True)
class LocalView:
    """Everything a node knows about the network before any communication.

    This is the *only* graph information a distributed algorithm (a
    scheme decoder or a baseline) may read about a node: its identifier,
    its degree, and the weight of the edge behind each port.  The
    simulator hands a :class:`LocalView` to each node program; node
    programs never see the :class:`PortNumberedGraph` itself.
    """

    node_id: int
    degree: int
    port_weights: Tuple[float, ...]

    def weight(self, port: int) -> float:
        """Weight of the incident edge behind ``port``."""
        return self.port_weights[port]

    def ports_by_weight_then_port(self) -> Tuple[int, ...]:
        """Ports sorted by ``(weight, port)`` — the paper's ``index_u`` order."""
        return tuple(sorted(range(self.degree), key=lambda p: (self.port_weights[p], p)))

    def rank_of_port(self, port: int) -> int:
        """1-based rank of ``port`` in the ``(weight, port)`` order."""
        return self.ports_by_weight_then_port().index(port) + 1

    def port_of_rank(self, rank: int) -> int:
        """Inverse of :meth:`rank_of_port` (``rank`` is 1-based)."""
        order = self.ports_by_weight_then_port()
        if not 1 <= rank <= len(order):
            raise ValueError(f"rank {rank} out of range 1..{len(order)}")
        return order[rank - 1]

    def index_pair_of_port(self, port: int) -> Tuple[int, int]:
        """The paper's ``index_u(e) = (x_u(e), y_u(e))`` for the edge behind ``port``.

        ``x_u(e)`` is 1 plus the number of incident edges of strictly
        smaller weight; ``y_u(e)`` is 1 plus the number of incident edges
        of equal weight and smaller port.
        """
        w = self.port_weights[port]
        x = 1 + sum(1 for q in range(self.degree) if self.port_weights[q] < w)
        y = 1 + sum(
            1 for q in range(self.degree) if self.port_weights[q] == w and q < port
        )
        return (x, y)

    def port_of_index_pair(self, x: int, y: int) -> int:
        """Inverse of :meth:`index_pair_of_port`."""
        for p in range(self.degree):
            if self.index_pair_of_port(p) == (x, y):
                return p
        raise ValueError(f"no incident edge has index pair ({x}, {y})")


class PortNumberedGraph:
    """A connected, simple, port-numbered, edge-weighted graph.

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are indexed ``0 .. n-1``; indices are a
        *simulation-level* handle only — distributed algorithms never see
        them, they only see :class:`LocalView` objects and port numbers.
    edges:
        Sequence of ``(u, v, w)`` triples.  Each unordered pair may
        appear at most once, and ``u != v``.
    node_ids:
        Optional identifiers; default ``ID(u) = u``.  Identifiers need
        not be distinct (the model allows duplicates).
    port_permutations:
        Optional explicit port assignment: a mapping ``node -> sequence``
        where the ``k``-th incident edge of the node *in input edge
        order* is wired to port ``sequence[k]``.  By default the ``k``-th
        incident edge (in input order) gets port ``k``.
    """

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def __init__(
        self,
        n: int,
        edges: Sequence[Tuple[int, int, float]],
        node_ids: Optional[Sequence[int]] = None,
        port_permutations: Optional[Union[Dict[int, Sequence[int]], np.ndarray]] = None,
    ) -> None:
        if n <= 0:
            raise ValueError("graph must have at least one node")
        self.n = int(n)

        if node_ids is None:
            self.node_ids = np.arange(self.n, dtype=np.int64)
        else:
            if len(node_ids) != self.n:
                raise ValueError("node_ids must have length n")
            self.node_ids = np.asarray(node_ids, dtype=np.int64)

        # fast path for generators: edges may come in as a ready-made
        # ``(edge_u, edge_v, edge_w)`` array triple instead of per-edge
        # tuples, skipping one Python-level pass over the edge list
        if (
            isinstance(edges, tuple)
            and len(edges) == 3
            and isinstance(edges[0], np.ndarray)
        ):
            edge_u = edges[0].astype(np.int64, copy=False)
            edge_v = edges[1].astype(np.int64, copy=False)
            edge_w = edges[2].astype(np.float64, copy=False)
            self.m = int(edge_u.size)
            if self.m:
                self._validate_edges(edge_u, edge_v)
        else:
            self.m = len(edges)
            if self.m:
                edge_list_in = list(edges)
                edge_u = np.fromiter((int(e[0]) for e in edge_list_in), dtype=np.int64, count=self.m)
                edge_v = np.fromiter((int(e[1]) for e in edge_list_in), dtype=np.int64, count=self.m)
                edge_w = np.fromiter((float(e[2]) for e in edge_list_in), dtype=np.float64, count=self.m)
                self._validate_edges(edge_u, edge_v)
            else:
                edge_u = np.empty(0, dtype=np.int64)
                edge_v = np.empty(0, dtype=np.int64)
                edge_w = np.empty(0, dtype=np.float64)
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_w = edge_w

        # degree and CSR offsets
        degrees = np.zeros(self.n, dtype=np.int64)
        np.add.at(degrees, edge_u, 1)
        np.add.at(degrees, edge_v, 1)
        self._degrees = degrees
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        self._offsets = offsets

        # occurrence rank of every endpoint (the k-th incident edge of a
        # node in input-edge order has rank k) — one stable grouped
        # ranking over the interleaved endpoint sequence instead of a
        # Python loop over the edges
        endpoints = np.empty(2 * self.m, dtype=np.int64)
        endpoints[0::2] = edge_u
        endpoints[1::2] = edge_v
        order = np.argsort(endpoints, kind="stable")
        ranks = np.empty(2 * self.m, dtype=np.int64)
        ranks[order] = np.arange(2 * self.m) - offsets[endpoints[order]]
        if port_permutations is None:
            # default assignment: the rank is the port
            pu = ranks[0::2]
            pv = ranks[1::2]
        else:
            if isinstance(port_permutations, np.ndarray):
                # ready-made per-slot table: slot offsets[u] + k holds the
                # port of the k-th incident edge of u in input edge order
                if port_permutations.size != 2 * self.m:
                    raise ValueError(
                        "flat port permutation table must have one entry per edge endpoint"
                    )
                table = port_permutations.astype(np.int64, copy=False)
            else:
                # per-node lookup table, identity unless a permutation is given
                node_of_slot = np.repeat(np.arange(self.n), degrees)
                table = np.arange(2 * self.m, dtype=np.int64) - offsets[node_of_slot]
                for u, perm in port_permutations.items():
                    if not 0 <= u < self.n:
                        continue  # same as the historical loop: never consulted
                    deg = int(degrees[u])
                    if len(perm) < deg:
                        raise IndexError("list index out of range")
                    lo = int(offsets[u])
                    table[lo : lo + deg] = [int(p) for p in list(perm)[:deg]]
            pu = table[offsets[edge_u] + ranks[0::2]]
            pv = table[offsets[edge_v] + ranks[1::2]]
            if np.any(pu < 0) or np.any(pu >= degrees[edge_u]) or np.any(
                pv < 0
            ) or np.any(pv >= degrees[edge_v]):
                raise ValueError("port permutation assigns an out-of-range port")

        twice_m = 2 * self.m
        su = offsets[edge_u] + pu
        sv = offsets[edge_v] + pv
        slots = np.concatenate((su, sv))
        if port_permutations is not None and twice_m and (
            np.bincount(slots, minlength=twice_m).max() > 1
        ):
            raise ValueError("port permutation assigns the same port twice")

        adj_neighbor = np.full(twice_m, -1, dtype=np.int64)
        adj_weight = np.zeros(twice_m, dtype=np.float64)
        adj_edge = np.full(twice_m, -1, dtype=np.int64)
        adj_rev_port = np.full(twice_m, -1, dtype=np.int64)
        eids = np.arange(self.m, dtype=np.int64)
        adj_neighbor[su] = edge_v
        adj_neighbor[sv] = edge_u
        adj_weight[su] = edge_w
        adj_weight[sv] = edge_w
        adj_edge[su] = eids
        adj_edge[sv] = eids
        adj_rev_port[su] = pv
        adj_rev_port[sv] = pu

        self._adj_neighbor = adj_neighbor
        self._adj_weight = adj_weight
        self._adj_edge = adj_edge
        self._adj_rev_port = adj_rev_port
        self.edge_port_u = pu
        self.edge_port_v = pv

        # lazily computed caches (the graph is immutable after construction)
        self._rank_cache: Dict[int, Tuple[int, ...]] = {}
        self._connected_cache: Optional[bool] = None
        self._adjacency_tables: Optional[Tuple[List[List[int]], List[List[int]]]] = None

    def _validate_edges(self, edge_u: np.ndarray, edge_v: np.ndarray) -> None:
        """Reject self-loops, out-of-range endpoints and parallel edges.

        Vectorised, but reporting the same edge the historical per-edge
        scan reported: the first offending edge in input order (with the
        self-loop / range / parallel priority of the old loop).
        """
        n = self.n
        bad_loop = np.flatnonzero(edge_u == edge_v)
        bad_range = np.flatnonzero(
            (edge_u < 0) | (edge_u >= n) | (edge_v < 0) | (edge_v >= n)
        )
        lo = np.minimum(edge_u, edge_v)
        hi = np.maximum(edge_u, edge_v)
        keys = lo * (n + 1) + hi
        # a plain value sort answers "any duplicate at all?"; the argsort
        # (twice the cost) is only needed to name the offending edge
        sorted_keys = np.sort(keys)
        if sorted_keys.size > 1 and bool(np.any(sorted_keys[1:] == sorted_keys[:-1])):
            order = np.argsort(keys, kind="stable")
            dup_positions = np.flatnonzero(keys[order][1:] == keys[order][:-1]) + 1
            bad_dup = order[dup_positions]
        else:
            bad_dup = np.empty(0, dtype=np.int64)

        candidates = []  # (edge id, per-edge check priority, raiser)
        if bad_loop.size:
            eid = int(bad_loop[0])
            candidates.append((eid, 0, f"self-loop at node {int(edge_u[eid])} is not allowed"))
        if bad_range.size:
            eid = int(bad_range[0])
            candidates.append(
                (eid, 1, f"edge ({int(edge_u[eid])}, {int(edge_v[eid])}) references a node out of range")
            )
        if bad_dup.size:
            eid = int(bad_dup.min())
            key = (int(lo[eid]), int(hi[eid]))
            candidates.append((eid, 2, f"parallel edge {key} is not allowed"))
        if candidates:
            candidates.sort()
            raise ValueError(candidates[0][2])

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    def degree(self, u: int) -> int:
        """Number of incident edges (= number of ports) of node ``u``."""
        return int(self._degrees[u])

    def degrees(self) -> np.ndarray:
        """Array of all node degrees."""
        return self._degrees.copy()

    def node_id(self, u: int) -> int:
        """Identifier of node ``u``."""
        return int(self.node_ids[u])

    def ports(self, u: int) -> range:
        """Iterable of the port numbers of node ``u``."""
        return range(self.degree(u))

    def _slot(self, u: int, port: int) -> int:
        if not 0 <= port < self.degree(u):
            raise ValueError(f"node {u} has no port {port}")
        return int(self._offsets[u]) + port

    def neighbor(self, u: int, port: int) -> int:
        """Node index at the far end of the edge behind ``(u, port)``."""
        return int(self._adj_neighbor[self._slot(u, port)])

    def weight(self, u: int, port: int) -> float:
        """Weight of the edge behind ``(u, port)``."""
        return float(self._adj_weight[self._slot(u, port)])

    def edge_id(self, u: int, port: int) -> int:
        """Canonical edge identifier of the edge behind ``(u, port)``."""
        return int(self._adj_edge[self._slot(u, port)])

    def reverse_port(self, u: int, port: int) -> int:
        """Port number of the same edge at the far endpoint."""
        return int(self._adj_rev_port[self._slot(u, port)])

    def neighbors(self, u: int) -> np.ndarray:
        """Array of neighbours of ``u``, indexed by port."""
        lo, hi = int(self._offsets[u]), int(self._offsets[u + 1])
        return self._adj_neighbor[lo:hi].copy()

    def incident_weights(self, u: int) -> np.ndarray:
        """Array of incident edge weights of ``u``, indexed by port."""
        lo, hi = int(self._offsets[u]), int(self._offsets[u + 1])
        return self._adj_weight[lo:hi].copy()

    # ------------------------------------------------------------------ #
    # edge-level queries
    # ------------------------------------------------------------------ #

    def edge(self, edge_id: int) -> EdgeRef:
        """Fully resolved reference to edge ``edge_id``."""
        if not 0 <= edge_id < self.m:
            raise ValueError(f"edge id {edge_id} out of range")
        return EdgeRef(
            edge_id=edge_id,
            u=int(self.edge_u[edge_id]),
            v=int(self.edge_v[edge_id]),
            weight=float(self.edge_w[edge_id]),
            port_u=int(self.edge_port_u[edge_id]),
            port_v=int(self.edge_port_v[edge_id]),
        )

    def edges(self) -> Iterator[EdgeRef]:
        """Iterate over all edges as :class:`EdgeRef` objects."""
        for eid in range(self.m):
            yield self.edge(eid)

    def edge_between(self, u: int, v: int) -> Optional[EdgeRef]:
        """The edge joining ``u`` and ``v``, or ``None`` if there is none."""
        if self.degree(u) > self.degree(v):
            u, v = v, u
        lo, hi = int(self._offsets[u]), int(self._offsets[u + 1])
        hits = np.nonzero(self._adj_neighbor[lo:hi] == v)[0]
        if hits.size == 0:
            return None
        return self.edge(int(self._adj_edge[lo + hits[0]]))

    def total_weight(self, edge_ids: Optional[Iterable[int]] = None) -> float:
        """Sum of weights over ``edge_ids`` (all edges by default)."""
        if edge_ids is None:
            return float(self.edge_w.sum())
        idx = np.fromiter((int(e) for e in edge_ids), dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return float(self.edge_w[idx].sum())

    def has_distinct_weights(self) -> bool:
        """``True`` iff all edge weights are pairwise distinct."""
        return len(np.unique(self.edge_w)) == self.m

    # ------------------------------------------------------------------ #
    # the paper's index order at a node
    # ------------------------------------------------------------------ #

    def _slot_orders(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per adjacency slot: its ``index_u`` rank and index pair, in bulk.

        One global lexsort over ``(node, weight, port)`` ranks every
        incident edge of every node at once: ``rank[slot]`` is the 0-based
        position of the slot in its node's ``(weight, port)`` order, and
        ``(x - 1, y - 1)`` split that rank at the first slot of the same
        ``(node, weight)`` group.  The Borůvka tracer asks for ranks and
        index pairs of thousands of ``(node, port)`` pairs per trace —
        computing them all in one pass replaces a per-call tuple scan.
        """
        cached = getattr(self, "_slot_order_cache", None)
        if cached is None:
            node_of_slot = np.repeat(np.arange(self.n), self._degrees)
            cached = _slot_order_kernel(
                node_of_slot, self._adj_weight, self._offsets[:-1], self.n
            )
            self._slot_order_cache = cached
        return cached

    def ports_by_index(self, u: int) -> Tuple[int, ...]:
        """Ports of ``u`` sorted by ``(weight, port)`` — the ``index_u`` order.

        This is the order in which the paper ranks the incident edges of
        a node: primarily by increasing weight, secondarily by
        increasing port number.  The result is cached.
        """
        cached = self._rank_cache.get(u)
        if cached is not None:
            return cached
        lo, hi = int(self._offsets[u]), int(self._offsets[u + 1])
        rank = self._slot_orders()[0][lo:hi]
        inverse = np.empty(hi - lo, dtype=np.int64)
        inverse[rank] = np.arange(hi - lo)
        result = tuple(int(p) for p in inverse)
        self._rank_cache[u] = result
        return result

    def rank_of_port(self, u: int, port: int) -> int:
        """1-based rank of ``(u, port)`` in the ``index_u`` order."""
        return int(self._slot_orders()[0][self._slot(u, port)]) + 1

    def port_of_rank(self, u: int, rank: int) -> int:
        """Inverse of :meth:`rank_of_port` (``rank`` is 1-based)."""
        order = self.ports_by_index(u)
        if not 1 <= rank <= len(order):
            raise ValueError(f"rank {rank} out of range 1..{len(order)} at node {u}")
        return order[rank - 1]

    def index_pair(self, u: int, port: int) -> Tuple[int, int]:
        """The paper's ``index_u(e) = (x_u(e), y_u(e))`` for the edge at ``(u, port)``."""
        slot = self._slot(u, port)
        _, x_minus_1, y_minus_1 = self._slot_orders()
        return (int(x_minus_1[slot]) + 1, int(y_minus_1[slot]) + 1)

    def port_of_index_pair(self, u: int, x: int, y: int) -> int:
        """Inverse of :meth:`index_pair`."""
        for p in self.ports(u):
            if self.index_pair(u, p) == (x, y):
                return p
        raise ValueError(f"node {u} has no incident edge with index pair ({x}, {y})")

    # ------------------------------------------------------------------ #
    # local views and structural checks
    # ------------------------------------------------------------------ #

    def local_view(self, u: int) -> LocalView:
        """The initial knowledge of node ``u`` (identifier, degree, port weights)."""
        return LocalView(
            node_id=self.node_id(u),
            degree=self.degree(u),
            port_weights=tuple(float(w) for w in self.incident_weights(u)),
        )

    def local_views(self) -> List[LocalView]:
        """Local views of all nodes, indexed by node index.

        Bulk variant of :meth:`local_view`: the adjacency arrays are
        converted to plain Python lists once and sliced per node, instead
        of paying one numpy scalar conversion per (node, port).  The
        simulator builds every view of a run through this.
        """
        weights = self._adj_weight.tolist()
        offsets = self._offsets.tolist()
        ids = self.node_ids.tolist()
        return [
            LocalView(
                node_id=ids[u],
                degree=offsets[u + 1] - offsets[u],
                port_weights=tuple(weights[offsets[u] : offsets[u + 1]]),
            )
            for u in range(self.n)
        ]

    def wiring_table(self) -> List[List[Tuple[int, int]]]:
        """Per-node ``(neighbour, reverse_port)`` pairs, indexed by port.

        One bulk conversion of the adjacency arrays — the simulator's
        engines (:class:`~repro.simulator.engine.SyncEngine` and its
        subclasses) resolve every message through this table, so building
        it must not cost one numpy round-trip per port.
        """
        neigh = self._adj_neighbor.tolist()
        rev = self._adj_rev_port.tolist()
        offsets = self._offsets.tolist()
        return [
            list(zip(neigh[offsets[u] : offsets[u + 1]], rev[offsets[u] : offsets[u + 1]]))
            for u in range(self.n)
        ]

    def adjacency_tables(self) -> Tuple[List[List[int]], List[List[int]]]:
        """Per-node ``(neighbours, edge ids)`` lists, indexed by port.

        One bulk conversion of the adjacency arrays, cached on the
        instance: output verification and traversals resolve every port
        through these tables instead of one NumPy scalar round-trip per
        (node, port).
        """
        if self._adjacency_tables is None:
            neigh = self._adj_neighbor.tolist()
            eids = self._adj_edge.tolist()
            offsets = self._offsets.tolist()
            self._adjacency_tables = (
                [neigh[offsets[u] : offsets[u + 1]] for u in range(self.n)],
                [eids[offsets[u] : offsets[u + 1]] for u in range(self.n)],
            )
        return self._adjacency_tables

    def is_connected(self) -> bool:
        """``True`` iff the graph is connected.

        Computed once and cached — the MST pipeline asks repeatedly
        (Kruskal, Borůvka, the verifiers) about the same immutable graph.
        """
        if self._connected_cache is None:
            if self.n == 1:
                self._connected_cache = True
            elif self.m == 0:
                self._connected_cache = False
            else:
                # hooking + shortcutting over the edge arrays: each round
                # every endpoint adopts the smaller endpoint label, then
                # labels chase their own pointers, so components collapse
                # to their minimum node id in O(log n) vectorised rounds
                labels = np.arange(self.n, dtype=np.int64)
                while True:
                    nxt = labels.copy()
                    np.minimum.at(nxt, self.edge_u, labels[self.edge_v])
                    np.minimum.at(nxt, self.edge_v, labels[self.edge_u])
                    nxt = nxt[nxt]
                    if np.array_equal(nxt, labels):
                        break
                    labels = nxt
                self._connected_cache = bool((labels == 0).all())
        return self._connected_cache

    def validate(self) -> None:
        """Raise ``ValueError`` if any structural invariant is violated."""
        for u in range(self.n):
            for p in self.ports(u):
                v = self.neighbor(u, p)
                q = self.reverse_port(u, p)
                if self.neighbor(v, q) != u:
                    raise ValueError(f"port wiring mismatch at ({u}, {p})")
                if self.edge_id(u, p) != self.edge_id(v, q):
                    raise ValueError(f"edge id mismatch at ({u}, {p})")
                if self.weight(u, p) != self.weight(v, q):
                    raise ValueError(f"weight mismatch at ({u}, {p})")

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def edge_list(self) -> List[Tuple[int, int, float]]:
        """The ``(u, v, w)`` triples this graph was built from (canonical order)."""
        return [
            (int(self.edge_u[e]), int(self.edge_v[e]), float(self.edge_w[e]))
            for e in range(self.m)
        ]

    def relabel_ports(self, port_permutations: Dict[int, Sequence[int]]) -> "PortNumberedGraph":
        """Return a copy of this graph with different port assignments.

        ``port_permutations[u][k]`` is the port given to the ``k``-th
        incident edge of ``u`` in input-edge order.  Nodes not present in
        the mapping keep the default assignment.  Used by the Theorem-1
        fooling family, where the adversary controls the port labelling.
        """
        return PortNumberedGraph(
            self.n,
            self.edge_list(),
            node_ids=self.node_ids,
            port_permutations=port_permutations,
        )

    def reweight(self, new_weights: Sequence[float]) -> "PortNumberedGraph":
        """Return a copy of this graph with edge ``e`` reweighted to ``new_weights[e]``.

        The topology, node identifiers and port wiring are preserved,
        which is exactly the kind of instance perturbation used in the
        proof of Theorem 1 (and by edge-weight churn): the port
        assignment is reconstructed into the constructor's flat per-slot
        table, so per-node port numbers keep their meaning.
        """
        if len(new_weights) != self.m:
            raise ValueError("new_weights must have one entry per edge")
        endpoints = np.empty(2 * self.m, dtype=np.int64)
        endpoints[0::2] = self.edge_u
        endpoints[1::2] = self.edge_v
        order = np.argsort(endpoints, kind="stable")
        ranks = np.empty(2 * self.m, dtype=np.int64)
        ranks[order] = np.arange(2 * self.m) - self._offsets[endpoints[order]]
        table = np.empty(2 * self.m, dtype=np.int64)
        table[self._offsets[self.edge_u] + ranks[0::2]] = self.edge_port_u
        table[self._offsets[self.edge_v] + ranks[1::2]] = self.edge_port_v
        return PortNumberedGraph(
            self.n,
            (self.edge_u, self.edge_v, np.asarray(new_weights, dtype=np.float64)),
            node_ids=self.node_ids,
            port_permutations=table,
        )

    def to_networkx(self):  # pragma: no cover - convenience for interactive use
        """Convert to a ``networkx.Graph`` (requires networkx)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for e in self.edges():
            g.add_edge(e.u, e.v, weight=e.weight, edge_id=e.edge_id)
        return g

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PortNumberedGraph(n={self.n}, m={self.m})"


def _slot_order_kernel(
    node_of_slot: np.ndarray,
    w: np.ndarray,
    first_slot: np.ndarray,
    num_nodes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(rank, x - 1, y - 1)`` computation behind ``_slot_orders``.

    ``first_slot[u]`` is the position of node ``u``'s first adjacency
    slot; the outputs depend only on the within-node ``(weight, port)``
    order and the ``(node, weight)`` group boundaries.

    The sort is stable, and within a node the slots are already in port
    order, so ``(weight, node)`` keys alone give the full ``(node,
    weight, port)`` order; with integral non-negative weights (every
    built-in weight mode) the two keys collapse into one int64 key,
    whose stable argsort is a radix pass — same order, a fraction of
    the lexsort time.
    """
    total = node_of_slot.size
    w_int = w.astype(np.int64)
    span = 0
    if total and np.array_equal(w_int, w) and int(w_int.min()) >= 0:
        span = int(w_int.max()) + 1
    if span and span < (2**62) // max(num_nodes, 1):
        order = (node_of_slot * span + w_int).argsort(kind="stable")
    else:
        order = np.lexsort((w, node_of_slot))
    sorted_nodes = node_of_slot[order]
    sorted_rank = np.arange(total) - first_slot[sorted_nodes]
    rank = np.empty(total, dtype=np.int64)
    rank[order] = sorted_rank
    # first rank of each (node, weight) run -> the x component
    sorted_w = w[order]
    new_group = np.ones(total, dtype=bool)
    if total > 1:
        new_group[1:] = (sorted_nodes[1:] != sorted_nodes[:-1]) | (
            sorted_w[1:] != sorted_w[:-1]
        )
    group_ids = np.cumsum(new_group) - 1
    group_first = sorted_rank[new_group][group_ids]
    x_minus_1 = np.empty(total, dtype=np.int64)
    x_minus_1[order] = group_first
    return rank, x_minus_1, rank - x_minus_1

