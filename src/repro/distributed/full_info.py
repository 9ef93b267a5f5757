"""The LOCAL-model baseline: gather everything, compute locally.

In the LOCAL model there is a trivial ``(0, D+1)``-advising scheme for
every graph of diameter ``D`` with distinct node identifiers (footnote 2
of the paper): after ``D + 1`` rounds of full-information flooding every
node knows the entire weighted graph and can compute the same rooted MST
locally.  This baseline makes that concrete:

* round 1: every node announces its identifier to its neighbours (so
  that ports can be associated with identifiers);
* every subsequent round: every node sends its whole knowledge base —
  the set of per-node records ``id -> [(weight, neighbour id), ...]`` —
  to all neighbours and merges what it receives;
* when a node's knowledge stops growing and is *closed* (every
  identifier mentioned anywhere also has its own record), the node
  reconstructs the graph, computes the reference MST with the shared
  canonical tie-breaking, roots it at the smallest identifier, and
  outputs the port of its parent edge.

The number of rounds is ``D + O(1)``; the price is paid in bandwidth:
messages grow to ``Θ(m log n)`` bits, which the simulator measures and
the benchmarks report as a violently non-CONGEST ``congest_factor``.
Node identifiers must be distinct (as the paper requires for this
algorithm).

Simulation cost: the analytic backend runs no program at all —
:func:`~repro.simulator.analytic.run_baseline_analytic` computes the
same metrics and outputs from every node's hop balls (the schedule is in
``docs/accounting.md``).  On the engine, the wire still carries the
whole knowledge base every round, but the per-round work follows what
each node *newly* learns.  A received record is kept as the immutable
tuple it arrived as, closure is tracked incrementally (the set of
mentioned identifiers only grows; knowledge is closed once it mentions
no more identifiers than it has records), and the gossip payload
(:class:`_Knowledge`) is rebuilt only when knowledge grew.  Its wire
size is summed from per-record ``estimate_bits`` shares, each computed
once by the record's owner, and reaches the engine through the
``bit_length_exact`` hook — it equals
``estimate_bits((_MSG_KNOWLEDGE, entries))`` of the plain tuple payload
(the additive sequence rule of :mod:`repro.simulator.message`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.distributed.base import DistributedMSTBaseline
from repro.graphs.properties import diameter
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.rooted_tree import ROOT_OUTPUT
from repro.simulator.algorithm import NodeProgram, ProgramFactory
from repro.simulator.message import estimate_bits
from repro.simulator.node import NodeContext

__all__ = ["FullInformationMST"]

#: record announcing the sender's identifier (round 1)
_MSG_HELLO = 11
#: knowledge-base gossip (:class:`_Knowledge`, printed and sized as the
#: plain tuple ``(_MSG_KNOWLEDGE, entries)``)
_MSG_KNOWLEDGE = 12

#: one node's adjacency: ``(weight, neighbour id)`` indexed by its ports
Record = Tuple[Tuple[float, int], ...]

#: wire size of the gossip message around its entries (tag + framing)
_KNOWLEDGE_HEADER_BITS = estimate_bits((_MSG_KNOWLEDGE, ()))

#: the neighbour identifier of one ``(weight, neighbour id)`` pair
_neighbour_id = itemgetter(1)


def _record_share(node_id: int, record: Record) -> int:
    """Wire bits one ``(id, record)`` entry adds to a knowledge payload."""
    return estimate_bits(((node_id, record),))


class _Knowledge:
    """The knowledge gossip: ``(_MSG_KNOWLEDGE, entries)`` with its exact size.

    ``known`` maps every identifier to its record and that record's
    wire share; the sender snapshots it once per knowledge growth and
    never mutates it afterwards (``ids`` is its key set, for the
    receivers' set differences).  The shares are simulation-level size
    metadata — a pure function of the entry, like a ``BitString``'s
    length — so reading them reveals nothing the message does not.
    """

    __slots__ = ("known", "ids", "_bits")

    def __init__(self, known: Dict[int, Tuple[Record, int]], bits: int) -> None:
        self.known = known
        self.ids = frozenset(known)
        self._bits = bits

    @property
    def entries(self) -> Tuple[Tuple[int, Record], ...]:
        """The plain payload's entries: ``(id, record)`` sorted by id."""
        known = self.known
        return tuple((node_id, known[node_id][0]) for node_id in sorted(known))

    def bit_length_exact(self) -> int:
        """``estimate_bits((_MSG_KNOWLEDGE, self.entries))``, precomputed."""
        return self._bits

    def __repr__(self) -> str:
        return repr((_MSG_KNOWLEDGE, self.entries))


class _FullInfoProgram(NodeProgram):
    """Flood local knowledge until the whole graph is known, then solve locally."""

    def __init__(self) -> None:
        # id -> (record, wire share of the record's entry)
        self.known: Dict[int, Tuple[Record, int]] = {}
        # every identifier that has a record or appears in one
        self.mentioned: Set[int] = set()
        self.neighbor_ids: Dict[int, int] = {}
        self.prev_size = -1
        self._bits = _KNOWLEDGE_HEADER_BITS
        self._payload: Optional[_Knowledge] = None

    def init(self, ctx: NodeContext) -> None:
        if ctx.degree == 0:
            ctx.halt(ROOT_OUTPUT)
            return
        for port in ctx.ports():
            ctx.send(port, (_MSG_HELLO, ctx.node_id))

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        known = self.known
        for port, payload in inbox.items():
            if payload.__class__ is _Knowledge:
                theirs = payload.known
                for node_id in payload.ids.difference(known):
                    self._learn(node_id, *theirs[node_id])
            elif isinstance(payload, tuple) and payload and payload[0] == _MSG_HELLO:
                self.neighbor_ids[port] = payload[1]

        if len(self.neighbor_ids) == ctx.degree and ctx.node_id not in known:
            # own record becomes available once every neighbour identified itself
            record = tuple((ctx.weight(p), self.neighbor_ids[p]) for p in ctx.ports())
            self._learn(ctx.node_id, record, _record_share(ctx.node_id, record))

        # closed: every mentioned identifier has a record (``known`` is a
        # subset of ``mentioned``, so equal sizes mean equal sets)
        closed = bool(known) and len(self.mentioned) == len(known)
        if closed and len(known) == self.prev_size:
            self._finish(ctx)
            return
        self.prev_size = len(known)

        if self._payload is None or len(self._payload.known) != len(known):
            self._payload = _Knowledge(dict(known), self._bits)
        payload = self._payload
        for port in ctx.ports():
            ctx.send(port, payload)

    # ------------------------------------------------------------------ #

    def _learn(self, node_id: int, record: Record, share: int) -> None:
        self.known[node_id] = (record, share)
        self._bits += share
        self.mentioned.add(node_id)
        self.mentioned.update(map(_neighbour_id, record))

    def _finish(self, ctx: NodeContext) -> None:
        known = self.known
        ids = sorted(known)
        root_id = ids[0]
        if ctx.node_id == root_id:
            ctx.halt(ROOT_OUTPUT)
            return

        # every edge once, from its smaller endpoint's record, in the
        # canonical (weight, sorted id pair) order
        edges = [
            (weight, node_id, other)
            for node_id, (record, _) in known.items()
            for weight, other in record
            if node_id < other
        ]
        edges.sort()

        parent = {node_id: node_id for node_id in ids}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tree_adj: Dict[int, List[int]] = {node_id: [] for node_id in ids}
        unions_left = len(ids) - 1
        for _, a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                tree_adj[a].append(b)
                tree_adj[b].append(a)
                unions_left -= 1
                if not unions_left:
                    break

        # root the tree at the smallest identifier and find this node's parent
        parent_of: Dict[int, Optional[int]] = {root_id: None}
        stack = [root_id]
        while stack:
            x = stack.pop()
            for y in tree_adj[x]:
                if y not in parent_of:
                    parent_of[y] = x
                    stack.append(y)
        my_parent = parent_of[ctx.node_id]
        for port, nid in self.neighbor_ids.items():
            if nid == my_parent:
                ctx.halt(port)
                return
        ctx.halt()  # pragma: no cover - inconsistent knowledge


class FullInformationMST(DistributedMSTBaseline):
    """The ``(0, D + O(1))`` LOCAL-model baseline (huge messages, few rounds)."""

    name = "local-full-info"
    requires_n = False

    def program_factory(self, graph: PortNumberedGraph) -> ProgramFactory:
        return lambda ctx: _FullInfoProgram()

    def round_bound(self, graph: PortNumberedGraph) -> float:
        return diameter(graph) + 3
