"""Theorem 2: an ``(O(log² n), 1)``-advising scheme with constant *average* advice.

The oracle runs the paper's Borůvka variant.  Whenever a node ``u`` is
the choosing node of an active fragment at some phase ``i`` it stores
two items about the selected edge ``e``:

* ``index_u(e)`` — encoded as the rank of ``e`` in the weight/port order
  at ``u``, which by Lemma 2 is smaller than ``2^i`` and therefore fits
  in ``i`` bits; and
* a boolean saying whether ``e`` is *up* at ``u`` (leads towards the
  root of the MST).

Advice received at different phases is concatenated, and a bitmap
marking where each record starts is interleaved with the data so the
decoder can split the records — exactly the paper's construction, which
doubles the advice length.  Per phase ``i`` there is one choosing node
per active fragment and at most ``n / 2^{i-1}`` active fragments
(Lemma 1), so the total advice is at most
``2 Σ_i (i + 1) n / 2^{i-1} = O(n)`` bits: a constant number of bits per
node *on average* (the paper's constant is
``c = Σ_{i≥1} (i+1) / 2^{i-2} = 12``).  A single node can be choosing at
every phase, so the maximum is ``Θ(log² n)`` bits.

The decoder needs exactly one round: a choosing node whose record says
*up* learns its own parent port directly; a record saying *down* makes
it send "I am your parent" across the selected edge, and the receiving
node learns its parent port from the arrival port.  Every non-root node
obtains its parent one of these two ways, because every MST edge is
selected at exactly one phase and its lower endpoint (with respect to
the root) sees it as *down* at the choosing side or *up* at itself.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.advice import AdviceAssignment
from repro.core.bits import BitString
from repro.core.oracle import AdvisingScheme
from repro.core.scheme_main import _bit_length_arr
from repro.graphs.weighted_graph import PortNumberedGraph, lexsort_order
from repro.mst.boruvka import boruvka_trace
from repro.mst.rooted_tree import ROOT_OUTPUT
from repro.simulator.algorithm import NodeProgram, ProgramFactory
from repro.simulator.node import NodeContext

__all__ = ["AverageConstantScheme", "paper_average_constant"]

#: message payload announcing "I am your parent" across a selected edge
_PARENT_CLAIM = 1


def paper_average_constant(max_terms: int = 64) -> float:
    """The paper's average-advice constant ``c = Σ_{i>=1} (i+1)/2^{i-2}``."""
    return sum((i + 1) / 2 ** (i - 2) for i in range(1, max_terms + 1))


class _AverageProgram(NodeProgram):
    """One-round decoder of the Theorem-2 scheme."""

    def __init__(self) -> None:
        self.parent_port: Optional[int] = None

    def init(self, ctx: NodeContext) -> None:
        advice: BitString = ctx.advice if ctx.advice is not None else BitString.empty()
        for is_up, rank in _parse_records(advice):
            port = ctx.view.port_of_rank(rank)
            if is_up:
                self.parent_port = port
            else:
                ctx.send(port, _PARENT_CLAIM)
        # Every node waits one round: a parent claim may still arrive.

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        for port, payload in inbox.items():
            if payload == _PARENT_CLAIM:
                self.parent_port = port
        ctx.halt(self.parent_port if self.parent_port is not None else ROOT_OUTPUT)


def _parse_records(advice: BitString) -> List[Tuple[bool, int]]:
    """Split the interleaved (bitmap, data) advice into (is_up, rank) records."""
    if len(advice) % 2 != 0:
        raise ValueError("malformed Theorem-2 advice: odd length")
    bitmap: List[int] = []
    data: List[int] = []
    for k in range(0, len(advice), 2):
        bitmap.append(advice[k])
        data.append(advice[k + 1])
    # record boundaries are the positions where the bitmap is 1
    starts = [k for k, b in enumerate(bitmap) if b == 1]
    if data and (not starts or starts[0] != 0):
        raise ValueError("malformed Theorem-2 advice: data does not start a record")
    records: List[Tuple[bool, int]] = []
    for idx, start in enumerate(starts):
        end = starts[idx + 1] if idx + 1 < len(starts) else len(data)
        chunk = data[start:end]
        is_up = bool(chunk[0])
        rank_bits = BitString(chunk[1:])
        rank = rank_bits.to_uint() + 1 if len(rank_bits) > 0 else 1
        records.append((is_up, rank))
    return records


class AverageConstantScheme(AdvisingScheme):
    """Theorem 2's ``(O(log² n), 1)``-advising scheme (constant average advice).

    The *maximum* advice grows like ``log² n`` but the *average* stays
    below the paper's constant ``c = 12`` bits per node, and the decoder
    needs exactly one communication round:

    >>> from repro.core.oracle import run_scheme
    >>> from repro.graphs.generators import random_connected_graph
    >>> report = run_scheme(AverageConstantScheme(), random_connected_graph(64, 0.05, seed=1))
    >>> report.correct, report.rounds
    (True, 1)
    >>> report.advice.average_bits < paper_average_constant()
    True
    """

    name = "theorem2-average"

    def compute_advice(
        self,
        graph: PortNumberedGraph,
        root: int = 0,
        trace=None,
    ) -> AdviceAssignment:
        """Assign the advice (``trace`` may be passed to reuse a Borůvka run)."""
        if trace is None:
            trace = boruvka_trace(graph, root=root)
        # flatten every (phase, selection) record into column arrays; a
        # record is the (is_up, rank - 1) pair packed big-endian into
        # width + 1 bits, exactly the bits the historical per-record
        # BitWriter produced
        rec_nodes: List["np.ndarray"] = []
        rec_vals: List["np.ndarray"] = []
        rec_widths: List["np.ndarray"] = []
        for phase in trace.phases:
            arr = phase.arrays
            if arr["fragment"].size == 0:
                continue
            rank_m1 = arr["rank_at_choosing"] - 1
            # Lemma 2: with pairwise-distinct weights the rank is < 2^i and
            # fits in `phase.index` bits; with duplicated weights the rank
            # can exceed that, in which case we simply widen the field (the
            # decoder reads "the rest of the record" and never assumes a
            # width).
            widths = np.maximum(phase.index, _bit_length_arr(rank_m1))
            rec_nodes.append(arr["choosing_node"])
            rec_vals.append((arr["is_up"].astype(np.int64) << widths) | rank_m1)
            rec_widths.append(widths + 1)

        n = graph.n
        if not rec_nodes:
            return AdviceAssignment(np.zeros(0, dtype=np.uint8), np.zeros(n + 1, dtype=np.int64))
        # group records per choosing node; sorting by (node, record)
        # keeps the phase order of each node's records
        nodes_a = np.concatenate(rec_nodes)
        widths_a = np.concatenate(rec_widths)
        order = lexsort_order((nodes_a, np.arange(nodes_a.size)), (n, nodes_a.size))
        vals_o = np.concatenate(rec_vals)[order]
        w_o = widths_a[order]

        # big-endian record bits + the record-start bitmap, interleaved
        # as (mark, bit) pairs in one vectorised pass; the records are
        # in node order, so this is the whole packed assignment
        total = int(w_o.sum())
        rec_starts = np.concatenate(([0], np.cumsum(w_o[:-1])))
        within = np.arange(total, dtype=np.int64) - np.repeat(rec_starts, w_o)
        wrep = np.repeat(w_o, w_o)
        inter = np.empty(2 * total, dtype=np.uint8)
        inter[0::2] = within == 0
        inter[1::2] = (np.repeat(vals_o, w_o) >> (wrep - 1 - within)) & 1
        per_node = np.bincount(nodes_a, weights=2 * widths_a, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_node.astype(np.int64), out=offsets[1:])
        return AdviceAssignment(inter, offsets)

    def program_factory(self) -> ProgramFactory:
        return lambda ctx: _AverageProgram()

    def advice_bound_bits(self, n: int) -> float:
        # a node can be choosing at every phase: 2 Σ_{i=1}^{⌈log n⌉} (i + 1)
        phases = max(1, math.ceil(math.log2(max(n, 2))))
        return 2 * sum(i + 1 for i in range(1, phases + 1))

    def round_bound(self, n: int) -> float:
        return 1.0

    def average_advice_bound_bits(self, n: int) -> float:
        """The paper's bound on the *average* advice size (a constant)."""
        return paper_average_constant()
