"""The literal, level-based variant of the Theorem-3 scheme (ablation of D1).

The paper's fragment advice stores, besides the up/down orientation and
the choosing node's position, the *level* of the fragment the selected
edge leads to — the parity of that fragment's depth in the contracted
fragment tree ``T_i``.  The choosing node then selects its minimum
weight incident edge whose far endpoint lies in a fragment of that
level, which discards all intra-fragment edges without ever naming the
edge explicitly.

The paper does not say how a node learns the *current-phase* level of
its neighbours (nodes in passive fragments receive no advice at that
phase and cannot compute their level locally, since it is a global
property of ``T_i``).  This executable variant resolves the gap the
direct way:

* the oracle hands **every** node a bitmap with its fragment's level at
  each phase ``1 .. ⌈log log n⌉`` (``⌈log log n⌉`` extra bits per node —
  at most 6 for any physically meaningful ``n``, but *not* ``O(1)``
  asymptotically, which is exactly what the ablation benchmark E7
  measures), and
* each phase window starts with one extra round in which every node
  announces its current level to all neighbours.

Because the minimum outgoing edge must be unique for the level filter to
reproduce the oracle's choice, this variant requires pairwise-distinct
edge weights (the standard assumption of the distributed MST
literature); the rank-coded primary scheme
(:class:`repro.core.scheme_main.ShortAdviceScheme`) has no such
restriction.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np


from repro.core.bits import BitReader, BitString
from repro.core.scheme_main import (
    ShortAdviceScheme,
    _MainProgram,
    _PHASE_FIELD_BITS,
    num_boruvka_phases,
    phase_window_rounds,
)
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.boruvka import BoruvkaTrace
from repro.mst.rooted_tree import ROOT_OUTPUT
from repro.simulator.algorithm import ProgramFactory
from repro.simulator.node import NodeContext

__all__ = ["LevelAdviceScheme"]

#: per-phase level announcement: ``(MSG_LEVEL, phase, level)``
MSG_LEVEL = 7


class LevelAdviceScheme(ShortAdviceScheme):
    """Theorem 3 with level-coded fragment advice (the paper's literal encoding).

    Same bounds shape as :class:`ShortAdviceScheme`; requires pairwise
    distinct weights (the level bit only identifies the target fragment
    uniquely when the MST is unique):

    >>> from repro.core.oracle import run_scheme
    >>> from repro.graphs.generators import random_connected_graph
    >>> graph = random_connected_graph(32, 0.1, seed=1)  # "distinct" weight mode
    >>> report = run_scheme(LevelAdviceScheme(), graph)
    >>> report.correct
    True
    >>> dup = random_connected_graph(16, 0.2, seed=1, weight_mode="integer", weight_range=3)
    >>> LevelAdviceScheme().compute_advice(dup)
    Traceback (most recent call last):
        ...
    ValueError: the level-based variant requires pairwise-distinct edge weights; use ShortAdviceScheme for instances with duplicated weights
    """

    name = "theorem3-level"

    # ------------------------------ oracle ------------------------------ #

    def _check_instance(self, graph: PortNumberedGraph) -> None:
        if not graph.has_distinct_weights():
            raise ValueError(
                "the level-based variant requires pairwise-distinct edge weights; "
                "use ShortAdviceScheme for instances with duplicated weights"
            )

    def _extra_header_bits(
        self, graph: PortNumberedGraph, trace: BoruvkaTrace, phases: int
    ) -> np.ndarray:
        return self._node_levels(graph, trace, phases)

    def _fragment_advice_batch(self, column):
        """``A(F)`` with the paper's literal level bit instead of the rank:
        per selection, the orientation bit, the level of the target
        fragment and the γ-coded DFS index of the choosing node."""
        from repro.core.scheme_main import _batch_bit_codes

        return _batch_bit_codes(
            [
                ("bit", column("is_up")),
                ("bit", column("level_of_target_fragment")),
                ("gamma", column("choosing_dfs_index")),
            ]
        )

    @staticmethod
    def _node_levels(graph: PortNumberedGraph, trace: BoruvkaTrace, phases: int) -> np.ndarray:
        """Per node (row), its fragment's level at each phase ``1 .. phases``.

        Once the graph has merged into a single fragment the level stays 0.
        """
        levels = np.zeros((graph.n, phases), dtype=np.uint8)
        for i, phase in enumerate(trace.phases[:phases]):
            depth = phase.fragment_tree.depth
            levels[:, i] = (depth % 2)[phase.partition.fragment_of_array()]
        return levels

    # ----------------------------- decoder ------------------------------ #

    def program_factory(self) -> ProgramFactory:
        return lambda ctx: _LevelProgram()

    # ------------------------- declared bounds --------------------------- #

    def advice_bound_bits(self, n: int) -> float:
        """Header + level bitmap (``⌈log log n⌉`` bits) + packed fragment advice."""
        return 7 + num_boruvka_phases(n) + 12

    def round_bound(self, n: int) -> float:
        phases = num_boruvka_phases(n)
        log_n = math.ceil(math.log2(max(n, 2)))
        schedule = sum(phase_window_rounds(i) + 2 for i in range(1, phases + 1))
        return schedule + 2 * log_n + 2


class _LevelProgram(_MainProgram):
    """Decoder of the level-based variant."""

    def __init__(self) -> None:
        self.levels: List[int] = []
        self.neighbor_levels: Dict[int, int] = {}
        self.level_sent = False
        super().__init__()

    def _reset_scratch(self) -> None:
        super()._reset_scratch()
        self.neighbor_levels = {}
        self.level_sent = False

    # -------------------------- advice parsing -------------------------- #

    def init(self, ctx: NodeContext) -> None:
        advice: BitString = ctx.advice if ctx.advice is not None else BitString.empty()
        reader = BitReader(advice)
        if reader.remaining >= _PHASE_FIELD_BITS + 2:
            self.num_phases = reader.read_uint(_PHASE_FIELD_BITS)
            self.collect_flag = bool(reader.read_bit())
            if reader.read_bit() == 1:
                self.final_bit = reader.read_bit()
            self.levels = [reader.read_bit() for _ in range(self.num_phases)]
            self.data = list(reader.read_bits(reader.remaining))
        if ctx.degree == 0:
            ctx.halt(ROOT_OUTPUT)
            return
        self._port_order = {p: k for k, p in enumerate(ctx.view.ports_by_weight_then_port())}

    # ------------------------------ schedule ----------------------------- #

    def _window(self, phase: int) -> int:
        # one extra round for the level exchange, one round of slack
        return phase_window_rounds(phase) + 2

    def _convergecast_allowed(self, relative: int) -> bool:
        return relative >= 2

    # -------------------------- per-phase hooks -------------------------- #

    def _phase_prelude(
        self, ctx: NodeContext, inbox: Dict[int, object], phase: int, relative: int
    ) -> None:
        # record level announcements from neighbours
        for port, payload in inbox.items():
            if isinstance(payload, tuple) and payload and payload[0] == MSG_LEVEL:
                if payload[1] == phase:
                    self.neighbor_levels[port] = payload[2]
        # announce this node's level on every port in the first round
        if relative == 1 and not self.level_sent:
            my_level = self.levels[phase - 1] if phase - 1 < len(self.levels) else 0
            for port in ctx.ports():
                ctx.send(port, (MSG_LEVEL, phase, my_level))
            self.level_sent = True

    def _parse_fragment_advice(
        self, stream: BitString
    ) -> Optional[Tuple[int, Tuple, int]]:
        try:
            reader = BitReader(stream)
            bup = bool(reader.read_bit())
            blevel = reader.read_bit()
            j = reader.read_gamma()
            return j, (bup, blevel), reader.position
        except EOFError:
            return None

    def _choosing_action(self, ctx: NodeContext, phase: int, record: Tuple) -> None:
        bup, blevel = record
        candidates = [
            p for p in ctx.ports() if self.neighbor_levels.get(p) == blevel
        ]
        if not candidates:  # defensive: malformed advice / lost announcements
            return
        port = min(candidates, key=lambda p: (ctx.weight(p), p))
        self._attach_across(ctx, phase, port, bup)
