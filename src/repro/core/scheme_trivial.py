"""The trivial ``(⌈log n⌉, 0)``-advising scheme (Section 1 of the paper).

The oracle picks a rooted MST ``T`` and tells every non-root node the
*rank* of its parent edge among its incident edges, where incident edges
are ordered by ``index_u(e)`` — first by weight, then by port number.
Since a node of degree ``d`` needs ``⌈log₂ d⌉ ≤ ⌈log₂ n⌉`` bits for the
rank, the maximum advice size is ``⌈log₂ n⌉`` bits (plus the one-bit
"I am the root" flag, deviation D2 in DESIGN.md), and the decoder needs
zero communication rounds: each node just sorts its incident edges
locally and outputs the port with the advised rank.

Theorem 1 shows this is essentially optimal for 0-round schemes, even on
average.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.core.advice import AdviceAssignment
from repro.core.bits import BitReader, BitString
from repro.core.oracle import AdvisingScheme
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.kruskal import kruskal_mst
from repro.mst.rooted_tree import ROOT_OUTPUT, build_rooted_tree
from repro.simulator.algorithm import NodeProgram, ProgramFactory
from repro.simulator.node import NodeContext

__all__ = ["TrivialRankScheme"]


class _TrivialProgram(NodeProgram):
    """Zero-round decoder: output the port whose rank the advice names."""

    def init(self, ctx: NodeContext) -> None:
        advice: BitString = ctx.advice if ctx.advice is not None else BitString.empty()
        reader = BitReader(advice)
        if reader.at_end():
            # a node with no advice can only be a degree-0 singleton graph root
            ctx.halt(ROOT_OUTPUT)
            return
        if reader.read_bit() == 1:
            ctx.halt(ROOT_OUTPUT)
            return
        width = reader.remaining
        rank = reader.read_uint(width) + 1 if width > 0 else 1
        port = ctx.view.port_of_rank(rank)
        ctx.halt(port)

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        # a 0-round algorithm never reaches this point
        ctx.halt()


class TrivialRankScheme(AdvisingScheme):
    """The straightforward ``(⌈log n⌉ + 1, 0)``-advising scheme for MST.

    >>> from repro.core.oracle import run_scheme
    >>> from repro.graphs.generators import random_connected_graph
    >>> report = run_scheme(TrivialRankScheme(), random_connected_graph(32, 0.1, seed=1))
    >>> report.correct, report.rounds, report.metrics.total_messages
    (True, 0, 0)
    >>> report.advice.max_bits <= TrivialRankScheme().advice_bound_bits(32)
    True
    """

    name = "trivial-rank"

    def compute_advice(
        self,
        graph: PortNumberedGraph,
        root: int = 0,
        tree=None,
    ) -> AdviceAssignment:
        """Assign the advice (``tree`` may be passed to reuse a rooted MST)."""
        if tree is None:
            tree = build_rooted_tree(graph, kruskal_mst(graph), root=root)
        # all parent-edge ranks in one gather over the cached slot order
        if graph.m:
            slot_rank = graph._slot_orders()[0]
            parent_port = tree.parent_port
            ranks = slot_rank[
                graph._offsets[:-1] + np.where(parent_port >= 0, parent_port, 0)
            ]
        else:
            ranks = np.zeros(graph.n, dtype=np.int64)  # edgeless: only the root
        # per node the advice is the root flag followed by the rank in
        # ⌈log₂ deg⌉ bits (none at the root); all strings are written in
        # one flat big-endian expansion
        from repro.core.scheme_main import _bit_length_arr

        widths = _bit_length_arr(np.maximum(graph._degrees - 1, 0))
        widths[root] = 0
        lens = widths + 1
        offsets = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        starts = offsets[:-1]
        within = np.arange(int(offsets[-1]), dtype=np.int64) - np.repeat(starts, lens)
        shift = np.maximum(np.repeat(widths, lens) - within, 0)
        bits = ((np.repeat(ranks, lens) >> shift) & 1).astype(np.uint8)
        bits[starts] = 0
        bits[starts[root]] = 1
        return AdviceAssignment(bits, offsets)

    def program_factory(self) -> ProgramFactory:
        return lambda ctx: _TrivialProgram()

    def advice_bound_bits(self, n: int) -> float:
        # ⌈log₂(n-1)⌉ rank bits (degree is at most n-1) plus the root flag
        return math.ceil(math.log2(max(n - 1, 2))) + 1

    def round_bound(self, n: int) -> float:
        return 0.0
