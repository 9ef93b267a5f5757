"""Theorem 3: the ``(O(1), O(log n))``-advising scheme for MST.

This is the paper's main result: a constant number of advice bits per
node suffices to compute a rooted MST in ``O(log n)`` rounds, an
exponential improvement over the ``Ω̃(√n)`` rounds needed without any
advice.

Structure of the scheme
-----------------------

The oracle follows the Borůvka phases of Section 2.2 for
``P - 1 = ⌈log₂ log₂ n⌉`` phases.  For every phase ``i`` and every
*active* fragment ``F`` it writes a short fragment advice string

    ``A(F) = [ b_up | γ(rank) | γ(j) ]``

where ``b_up`` says whether the selected edge points towards the MST
root at the choosing node, ``rank`` identifies the selected edge at the
choosing node (its position in the weight/port order — by Lemma 2 it is
smaller than ``|F| ≤ 2^i`` when edge weights are distinct), ``j`` is the
position of the choosing node in the DFS preorder of the fragment
subtree ``T_F``, and ``γ`` is the self-delimiting Elias-γ code.  The
bits of ``A(F)`` are spread over the nodes of ``F`` in DFS-preorder
order, never exceeding a fixed per-node capacity; since active fragments
at phase ``i`` have at least ``2^{i-1}`` nodes, the per-node total over
all phases is bounded by a geometric series — a constant (Claim 1 of
the paper).

After the last Borůvka phase every fragment has at least
``2^{⌈log log n⌉} ≥ ⌈log₂ n⌉`` nodes, so the ``⌈log₂(deg(r_F)+1)⌉``-bit
rank of the edge connecting the fragment root ``r_F`` to its MST parent
can be distributed one bit per node over the first nodes of the
fragment's DFS preorder.

The decoder replays the same phases: inside every fragment the
unconsumed advice bits are convergecast to ``r_F`` (together with
subtree sizes), ``r_F`` parses ``A(F)`` and broadcasts it back down with
enough prefix-sum information for every node to learn how many of *its*
bits were consumed and what its DFS index is; the choosing node then
attaches the fragment across the selected edge.  Each phase fits in a
fixed window of ``2^{i+1}`` rounds, and the final collection costs
``O(log n)`` more, for a total of ``O(log n)`` rounds with messages of
``O(log n)`` bits (measured, not assumed — see the benchmarks).

Deviations from the paper (documented in DESIGN.md):

* D1 — ``A(F)`` carries the selected edge's rank instead of the
  fragment-level bit (whose decoding the paper leaves unspecified for
  passive neighbours); the level-based variant is provided separately in
  :mod:`repro.core.scheme_level` as an ablation.
* D5 — every node receives a 4-bit field with the number of Borůvka
  phases (the paper implicitly assumes nodes know ``⌈log log n⌉``), plus
  a 1-bit flag marking participation in the final collection region.
* D6 — fragment advice is distributed in DFS preorder rather than BFS
  order; the ``j``-th preorder node is at depth at most ``j - 1``, so
  every round bound is unchanged while the prefix-sum bookkeeping the
  paper leaves implicit becomes purely subtree-local.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.advice import AdviceAssignment, PackingLayout
from repro.core.bits import BitReader, BitString
from repro.core.oracle import AdvisingScheme
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.boruvka import BoruvkaTrace, boruvka_trace
from repro.mst.rooted_tree import ROOT_OUTPUT
from repro.simulator.algorithm import NodeProgram, ProgramFactory
from repro.simulator.node import NodeContext

__all__ = [
    "ShortAdviceScheme",
    "num_boruvka_phases",
    "phase_window_rounds",
    "schedule_prefix_rounds",
]

# ----------------------------------------------------------------------- #
# message type tags (small integers to keep CONGEST estimates tight)
# ----------------------------------------------------------------------- #

MSG_CONV = 1
MSG_BCAST = 2
MSG_ATTACH_PARENT = 3
MSG_ATTACH_CHILD = 4
MSG_COLLECT = 5
MSG_REPLY = 6

#: candidate per-node data-bit capacities tried by the oracle, smallest first
_CAP_CANDIDATES = (10, 12, 14, 16, 20, 24, 32, 48, 64, 128)

#: width of the per-node "number of Borůvka phases" header field
_PHASE_FIELD_BITS = 4


class CapacityError(RuntimeError):
    """Raised internally when a per-node capacity is too small to pack all advice."""


# ----------------------------------------------------------------------- #
# schedule helpers (shared by oracle, decoder, tests and benchmarks)
# ----------------------------------------------------------------------- #


def num_boruvka_phases(n: int) -> int:
    """``⌈log₂ log₂ n⌉`` — the number of Borůvka phases the scheme replays."""
    if n <= 2:
        return 0
    log_n = math.ceil(math.log2(n))
    return max(0, math.ceil(math.log2(log_n)))


def phase_window_rounds(i: int) -> int:
    """Length (in rounds) of the fixed window reserved for phase ``i``.

    An active fragment at phase ``i`` has fewer than ``2^i`` nodes, hence
    depth at most ``2^i - 2``; one convergecast plus one broadcast plus
    the attachment round fit in ``2^{i+1} - 2`` rounds, and the window is
    rounded up to ``2^{i+1}``.
    """
    return 1 << (i + 1)


def schedule_prefix_rounds(num_phases: int) -> int:
    """Total number of rounds reserved for Borůvka phases ``1 .. num_phases``."""
    return sum(phase_window_rounds(i) for i in range(1, num_phases + 1))


def _final_field_width(degree: int) -> int:
    """Bits needed for the final-phase value ``0 .. degree`` (0 = "I am the root")."""
    return max(1, int(degree).bit_length())


def _bit_length_arr(values: "np.ndarray") -> "np.ndarray":
    """Per-element ``int.bit_length`` for non-negative int64 values.

    ``frexp`` returns the base-2 exponent, which equals the bit length
    for every positive integer exactly representable in a float64 (all
    values handled here are far below ``2**53``); 0 maps to 0, matching
    ``(0).bit_length()``.
    """
    return np.frexp(values.astype(np.float64))[1].astype(np.int64)


def _batch_bit_codes(
    columns: Sequence[Tuple[str, "np.ndarray"]],
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Write one record per row from vectorised field columns.

    ``columns`` lists the fields of the per-row record in write order;
    each is ``("bit", values)`` (one literal bit per row) or ``("gamma",
    values)`` (the Elias-γ code of each positive value: ``w - 1`` zeros
    followed by the ``w``-bit big-endian binary of the value, ``w`` its
    bit length).  Returns ``(flat, starts)``: the records back to back
    as one 0/1 array, row ``r`` at ``flat[starts[r]:starts[r + 1]]``,
    with exactly the bits the per-row ``BitWriter.write_bit`` /
    ``write_gamma`` calls produce.
    """
    count = columns[0][1].size
    if count == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    col_lens: List["np.ndarray"] = []
    for kind, values in columns:
        if kind == "bit":
            col_lens.append(np.ones(count, dtype=np.int64))
        else:
            col_lens.append(2 * _bit_length_arr(values) - 1)
    total_lens = col_lens[0].copy()
    for extra in col_lens[1:]:
        total_lens += extra
    starts = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(total_lens, out=starts[1:])
    flat = np.zeros(int(starts[-1]), dtype=np.uint8)
    col_off = starts[:-1].copy()
    for (kind, values), lens in zip(columns, col_lens):
        if kind == "bit":
            flat[col_off] = values
        else:
            widths = (lens + 1) >> 1
            total = int(lens.sum())
            row_starts = np.concatenate(([0], np.cumsum(lens[:-1])))
            within = np.arange(total, dtype=np.int64) - np.repeat(row_starts, lens)
            wrep = np.repeat(widths, lens)
            vrep = np.repeat(values, lens)
            shift = np.maximum(2 * wrep - 2 - within, 0)
            flat[np.repeat(col_off, lens) + within] = np.where(
                within < wrep - 1, 0, (vrep >> shift) & 1
            )
        col_off = col_off + lens
    return flat, starts


# ----------------------------------------------------------------------- #
# the oracle
# ----------------------------------------------------------------------- #


class ShortAdviceScheme(AdvisingScheme):
    """Theorem 3's ``(O(1), O(log n))``-advising scheme (rank-coded variant).

    Constant maximum advice, logarithmically many rounds:

    >>> from repro.core.oracle import run_scheme
    >>> from repro.graphs.generators import random_connected_graph
    >>> scheme = ShortAdviceScheme()
    >>> report = run_scheme(scheme, random_connected_graph(64, 0.05, seed=1))
    >>> report.correct
    True
    >>> report.advice.max_bits <= scheme.advice_bound_bits(64)
    True
    >>> report.rounds <= scheme.round_bound(64)  # within 9*ceil(log n)-flavoured budget
    True

    The advice carries its packing layout: the per-node data capacity
    and, per phase, which nodes hold how many of that phase's bits.

    >>> advice = scheme.compute_advice(random_connected_graph(64, 0.05, seed=1))
    >>> advice.layout.capacity, len(advice.layout.phases)
    (10, 3)
    """

    name = "theorem3-main"

    def __init__(self, capacity_candidates: Tuple[int, ...] = _CAP_CANDIDATES) -> None:
        self._capacity_candidates = capacity_candidates

    # ------------------------------ oracle ------------------------------ #

    def compute_advice(
        self,
        graph: PortNumberedGraph,
        root: int = 0,
        trace: Optional[BoruvkaTrace] = None,
    ) -> AdviceAssignment:
        """Assign the advice (``trace`` may be passed to reuse a Borůvka run)."""
        phases = num_boruvka_phases(graph.n)
        self._check_instance(graph)
        if trace is None:
            trace = boruvka_trace(graph, root=root)
        data = self._pack_with_capacity_search(graph, trace, phases)
        return self._finish_advice(graph, trace, phases, data)

    # The oracle is split into hooks so the level variant overrides only
    # its scheme-specific pieces and shares the capacity search:
    #
    # ``_check_instance``    precondition checks, before anything is built
    # ``_fragment_advice_batch``  the records A(F) of every phase
    # ``_pack_with_capacity_search``  the expensive shared middle
    # ``_extra_header_bits`` per-node header fields (the level bitmap)
    # ``_finish_advice``     final bits + headers + data → AdviceAssignment

    def _check_instance(self, graph: PortNumberedGraph) -> None:
        """Validate instance preconditions (the level variant overrides)."""

    def _finish_advice(
        self,
        graph: PortNumberedGraph,
        trace: BoruvkaTrace,
        phases: int,
        data: AdviceAssignment,
    ) -> AdviceAssignment:
        """Prefix every node's packed data with its header fields.

        A node's advice is the phase count in :data:`_PHASE_FIELD_BITS`
        bits, the collect flag, the "has final bit" flag (and the bit
        itself when present), the scheme's extra header fields and the
        packed fragment-advice data; every field is written for all
        nodes at once.
        """
        n = graph.n
        final_bit, collect_flag = self._assign_final_bits(graph, trace, phases)
        extra = self._extra_header_bits(graph, trace, phases)
        has_final = final_bit >= 0
        head = _PHASE_FIELD_BITS + 2 + has_final.astype(np.int64)
        if extra is not None:
            head += extra.shape[1]
        data_lens = np.diff(data.offsets)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(head + data_lens, out=offsets[1:])
        starts = offsets[:-1]
        bits = np.empty(int(offsets[-1]), dtype=np.uint8)
        k = np.arange(_PHASE_FIELD_BITS)
        bits[starts[:, None] + k] = (phases >> (_PHASE_FIELD_BITS - 1 - k)) & 1
        flags = starts + _PHASE_FIELD_BITS
        bits[flags] = collect_flag
        bits[flags + 1] = has_final
        bits[flags[has_final] + 2] = final_bit[has_final]
        if extra is not None:
            extra_starts = flags + 2 + has_final
            bits[extra_starts[:, None] + np.arange(extra.shape[1])] = extra
        shift = np.repeat(starts + head - data.offsets[:-1], data_lens)
        bits[shift + np.arange(data.bits.size)] = data.bits
        return AdviceAssignment(bits, offsets, data.layout)

    def _extra_header_bits(
        self, graph: PortNumberedGraph, trace: BoruvkaTrace, phases: int
    ) -> Optional["np.ndarray"]:
        """Scheme-specific header fields, one row of bits per node, or
        ``None`` (the level variant adds its bitmap)."""
        return None

    def _fragment_advice_batch(
        self, column: Callable[[str], "np.ndarray"]
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """The fragment advice strings ``A(F)`` of every selection.

        ``column(key)`` is one field of the trace's selection arrays,
        every packed phase's selections back to back.  Rank-coded
        variant (deviation D1): per selection, the orientation bit, the
        γ-coded rank of the selected edge at the choosing node and the
        γ-coded DFS index of the choosing node.  The level variant
        overrides this with the paper's literal level-coded record; the
        shared packer below is oblivious to the contents.
        """
        return _batch_bit_codes(
            [
                ("bit", column("is_up")),
                ("gamma", column("rank_at_choosing")),
                ("gamma", column("choosing_dfs_index")),
            ]
        )

    def _pack_with_capacity_search(
        self,
        graph: PortNumberedGraph,
        trace: BoruvkaTrace,
        phases: int,
    ) -> AdviceAssignment:
        """Pack with the smallest per-node capacity candidate that fits.

        The capacity-independent work — every fragment advice string and
        every DFS preorder — is collected *once*; each candidate capacity
        is then checked with prefix-sum placement arithmetic alone, and
        the advice bits are written out a single time for the winner.
        Returns the packed data bits alone, with their layout.
        """
        a_bits, plan = self._collect_advice_plan(trace, phases)
        for cap in self._capacity_candidates:
            placement = self._place_plan(plan, graph.n, cap)
            if isinstance(placement, int):  # the phase index that overflowed
                continue
            return self._materialize_plan(a_bits, plan, placement, graph.n, cap)
        raise CapacityError(  # pragma: no cover - the largest cap always fits
            "no candidate capacity could hold the fragment advice"
        )

    def _collect_advice_plan(
        self, trace: BoruvkaTrace, phases: int
    ) -> Tuple["np.ndarray", List[Dict[str, Any]]]:
        """The ``A(F)`` strings of every selection, and per phase the preorders.

        This is everything the packer needs that does not depend on the
        per-node capacity, so the capacity search never recomputes it.
        The strings of all phases are written in one batch; a phase's
        ``a_starts`` are positions in that one bit array.  Each phase is
        flattened into one concatenated node array (segment per
        selection) so placement is a handful of NumPy passes per phase
        rather than per-fragment Python work.
        """
        packed = trace.phases[:phases]
        if not packed:  # no Borůvka phase to pack (n <= 2)
            return np.zeros(0, dtype=np.uint8), []
        a_bits, all_starts = self._fragment_advice_batch(
            lambda key: np.concatenate([phase.arrays[key] for phase in packed])
        )
        plan: List[Dict[str, Any]] = []
        first = 0  # the phase's first selection among all phases' selections
        for phase in packed:
            nodes, starts = phase.partition.preorder_arrays()
            num_sel = phase.arrays["fragment"].size
            a_starts = all_starts[first : first + num_sel + 1]
            first += num_sel
            if num_sel:
                frags = phase.arrays["fragment"]
                lens = starts[frags + 1] - starts[frags]
                seg_starts = np.zeros(num_sel + 1, dtype=np.int64)
                np.cumsum(lens, out=seg_starts[1:])
                total = int(seg_starts[-1])
                # concatenation of the fragment preorder slices, built as
                # one strided arange instead of per-selection slicing
                flat = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(seg_starts[:-1], lens)
                    + np.repeat(starts[frags], lens)
                )
                all_nodes = nodes[flat]
                seg_id = np.repeat(np.arange(num_sel, dtype=np.int64), lens)
            else:
                all_nodes = np.empty(0, dtype=np.int64)
                seg_id = np.empty(0, dtype=np.int64)
                seg_starts = np.zeros(1, dtype=np.int64)
            plan.append(
                {
                    "index": phase.index,
                    "a_starts": a_starts,
                    "a_lens": np.diff(a_starts),
                    "nodes": all_nodes,
                    "seg_id": seg_id,
                    "seg_starts": seg_starts,
                }
            )
        return a_bits, plan

    @staticmethod
    def _place_plan(plan: List[Dict[str, Any]], n: int, cap: int):
        """Greedy DFS-preorder placement of every ``A(F)`` at capacity ``cap``.

        Bits fill each node of the fragment preorder up to ``cap`` before
        moving on; the cumulative free capacity along the concatenated
        preorders (clipped per segment) turns the historical per-node
        loop into one ``cumsum`` per phase.  Returns per phase the take
        and cumulative-fill arrays, or the index of the first phase whose
        advice overflows the capacity.
        """
        used = np.zeros(n, dtype=np.int64)
        placement: List[Tuple["np.ndarray", "np.ndarray"]] = []
        for phase in plan:
            all_nodes = phase["nodes"]
            if all_nodes.size == 0:
                placement.append((np.empty(0, np.int64), np.empty(0, np.int64)))
                continue
            seg_id = phase["seg_id"]
            seg_starts = phase["seg_starts"]
            free_cum = np.concatenate(([0], np.cumsum(cap - used[all_nodes])))
            # cumulative free capacity within each segment, clipped at the
            # segment's advice length = cumulative bits placed so far
            filled = np.minimum(
                free_cum[1:] - free_cum[seg_starts[:-1]][seg_id],
                phase["a_lens"][seg_id],
            )
            if np.any(filled[seg_starts[1:] - 1] < phase["a_lens"]):
                return phase["index"]
            prev = np.concatenate(([0], filled[:-1]))
            prev[seg_starts[:-1]] = 0
            takes = filled - prev
            used[all_nodes] += takes
            placement.append((takes, filled))
        return placement

    @staticmethod
    def _materialize_plan(
        a_bits: "np.ndarray",
        plan: List[Dict[str, Any]],
        placement: List[Tuple["np.ndarray", "np.ndarray"]],
        n: int,
        cap: int,
    ) -> AdviceAssignment:
        """Gather the placed bits (once) and record the packing layout.

        A placed chunk is bits ``[hi - take, hi)`` of its selection's
        ``A(F)`` in ``a_bits``.  Every chunk of every phase is gathered
        with one ``repeat``/``arange`` index; a stable sort by node keeps
        each node's chunks in phase order (a node holds at most one chunk
        per phase, since it lies in one fragment).

        A node that receives only part of an ``A(F)`` (other than its
        tail) is full and can never receive bits of a later phase, which
        guarantees that at decode time the unconsumed bits of a fragment,
        concatenated in DFS order, always start with the current phase's
        ``A(F)``.
        """
        layout: List[Tuple["np.ndarray", "np.ndarray"]] = []
        sources: List["np.ndarray"] = []
        for phase, (takes, filled) in zip(plan, placement):
            positions = np.flatnonzero(takes)
            chunk_takes = takes[positions]
            layout.append((phase["nodes"][positions], chunk_takes))
            hi = phase["a_starts"][phase["seg_id"][positions]] + filled[positions]
            sources.append(hi - chunk_takes)
        packing = PackingLayout(cap, tuple(layout))
        if not layout:  # no Borůvka phase to pack (n <= 2)
            return AdviceAssignment(
                np.zeros(0, dtype=np.uint8), np.zeros(n + 1, dtype=np.int64), packing
            )
        nodes = np.concatenate([chunk_nodes for chunk_nodes, _ in layout])
        takes = np.concatenate([chunk_takes for _, chunk_takes in layout])
        order = np.argsort(nodes, kind="stable")
        takes_o = takes[order]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(nodes, weights=takes, minlength=n).astype(np.int64), out=offsets[1:])
        out_starts = np.cumsum(takes_o) - takes_o
        index = np.repeat(np.concatenate(sources)[order] - out_starts, takes_o)
        index += np.arange(int(offsets[-1]), dtype=np.int64)
        return AdviceAssignment(a_bits[index], offsets, packing)

    def _assign_final_bits(
        self,
        graph: PortNumberedGraph,
        trace: BoruvkaTrace,
        phases: int,
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """One bit per node: the parent rank of each remaining fragment root.

        Returns ``(final_bit, collect_flag)``: per node its final bit
        (``-1`` where it holds none) and its "collection region" flag
        (depth in the final fragment smaller than the number of bits to
        collect).
        """
        partition = trace.partition_before_phase(phases + 1)
        tree = trace.tree
        nodes, starts = partition.preorder_arrays()
        counts = starts[1:] - starts[:-1]
        frag_roots = nodes[starts[:-1]]  # r_F per fragment
        degrees = graph._degrees[frag_roots]
        # isolated fragment roots output ROOT with no advice; bit width
        # max(1, bit_length(degree)) covers the values 0 .. degree
        keep = degrees > 0
        width = np.maximum(1, _bit_length_arr(degrees))
        parent_edge = np.asarray(tree.parent_edge, dtype=np.int64)[frag_roots]
        parent_port = np.asarray(tree.parent_port, dtype=np.int64)[frag_roots]
        slot_rank = graph._slot_orders()[0]
        value = np.zeros(frag_roots.size, dtype=np.int64)  # 0 = the global root
        has_parent = parent_edge >= 0
        if np.any(has_parent):
            hp_roots = frag_roots[has_parent]
            value[has_parent] = (
                slot_rank[graph._offsets[hp_roots] + parent_port[has_parent]] + 1
            )
        if np.any(keep & (counts < width)):  # pragma: no cover - excluded by Lemma 1
            f = int(np.flatnonzero(keep & (counts < width))[0])
            raise CapacityError(
                f"fragment of size {int(counts[f])} cannot hold "
                f"{int(width[f])} final bits"
            )

        # one big-endian bit of each kept fragment's value per leading
        # preorder node, all fragments at once
        wk = width[keep]
        vk = np.repeat(value[keep], wk)
        wrep = np.repeat(wk, wk)
        total = int(wk.sum())
        row_starts = np.concatenate(([0], np.cumsum(wk[:-1]))) if wk.size else wk
        within = np.arange(total, dtype=np.int64) - np.repeat(row_starts, wk)
        final_bit = np.full(graph.n, -1, dtype=np.int8)
        final_bit[nodes[np.repeat(starts[:-1][keep], wk) + within]] = (
            vk >> (wrep - 1 - within)
        ) & 1

        # collection-region flag: depth within the fragment < field width
        frag_ids = np.repeat(np.arange(counts.size), counts)
        tree_depth = np.asarray(tree.depth, dtype=np.int64)
        depth_in_frag = tree_depth[nodes] - np.repeat(tree_depth[frag_roots], counts)
        collect_flag = np.zeros(graph.n, dtype=bool)
        collect_flag[nodes] = keep[frag_ids] & (depth_in_frag <= np.repeat(width, counts) - 1)
        return final_bit, collect_flag

    # ----------------------------- decoder ------------------------------ #

    def program_factory(self) -> ProgramFactory:
        return lambda ctx: _MainProgram()

    # ------------------------- declared bounds --------------------------- #

    def advice_bound_bits(self, n: int) -> float:
        """Declared constant bound on the maximum advice size.

        Header (4 + 1 + 2) bits plus the geometric-series bound on the
        packed fragment advice with γ-coded fields (≈ 14 bits); see
        DESIGN.md §5 (D1) for why the constant is larger than the paper's
        12 while remaining independent of ``n``.
        """
        return 7 + 14

    def round_bound(self, n: int) -> float:
        """Declared round bound: the fixed schedule plus the final collection."""
        phases = num_boruvka_phases(n)
        log_n = math.ceil(math.log2(max(n, 2)))
        return schedule_prefix_rounds(phases) + 2 * log_n + 2

    @staticmethod
    def paper_round_bound(n: int) -> float:
        """The paper's stated bound ``9 ⌈log₂ n⌉`` (Theorem 3), for comparison."""
        return 9 * math.ceil(math.log2(max(n, 2)))

    @staticmethod
    def paper_advice_bound() -> float:
        """The paper's stated maximum advice size ``m = 12``, for comparison."""
        return 12.0


# ----------------------------------------------------------------------- #
# the decoder node program
# ----------------------------------------------------------------------- #


class _MainProgram(NodeProgram):
    """Per-node state machine of the Theorem-3 decoder."""

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def __init__(self) -> None:
        # fragment-tree structure maintained across phases
        self.parent_port: Optional[int] = None
        self.child_ports: List[int] = []
        # structural changes decided during the current phase window; fragments
        # merge only *between* phases, so they are applied at window boundaries
        self.pending_structure: List[Tuple[str, int]] = []
        # advice fields
        self.num_phases = 0
        self.collect_flag = False
        self.final_bit: Optional[int] = None
        self.data: List[int] = []
        self.cons = 0
        # per-phase scratch
        self.current_segment: Optional[Tuple[str, int]] = None
        #: cumulative window ends, built lazily once ``num_phases`` is known
        self._segment_ends: Optional[List[int]] = None
        self._reset_scratch()
        # final phase
        self.final_done = False

    def _reset_scratch(self) -> None:
        self.conv_received: Dict[int, Tuple[int, BitString]] = {}
        self.conv_sent = False
        self.bcast_handled = False
        self.reply_received: Dict[int, BitString] = {}
        self.collect_forwarded = False
        self.collect_ttl: Optional[int] = None
        self.collect_children: List[int] = []

    # ------------------------------------------------------------------ #

    def init(self, ctx: NodeContext) -> None:
        advice: BitString = ctx.advice if ctx.advice is not None else BitString.empty()
        reader = BitReader(advice)
        if reader.remaining >= _PHASE_FIELD_BITS + 2:
            self.num_phases = reader.read_uint(_PHASE_FIELD_BITS)
            self.collect_flag = bool(reader.read_bit())
            if reader.read_bit() == 1:
                self.final_bit = reader.read_bit()
            self.data = list(reader.read_bits(reader.remaining))
        if ctx.degree == 0:
            ctx.halt(ROOT_OUTPUT)
            return
        # precompute the (weight, port) order of the ports: children are
        # always processed in this order, matching the oracle's DFS order.
        self._port_order = {p: k for k, p in enumerate(ctx.view.ports_by_weight_then_port())}

    # ------------------------------------------------------------------ #
    # round dispatch
    # ------------------------------------------------------------------ #

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        segment = self._segment_of_round(ctx.round)
        if segment != self.current_segment:
            # fragments merge only between phases: apply the attachments that
            # were decided during the previous window before starting this one
            self._apply_pending_structure()
            self.current_segment = segment
            self._reset_scratch()

        # structural notifications are buffered until the end of the window
        self._process_attachments(inbox)

        kind, index = segment
        if kind == "phase":
            self._phase_round(ctx, inbox, index)
            if self.conv_sent:
                # once this node's convergecast is away, every remaining
                # action of the window is triggered by an incoming message
                # (broadcast forwarding, attachments), so the engine may
                # skip the silent tail of the window for this node
                ctx.idle_until(self._segment_end(index) + 1)
        else:
            self._apply_pending_structure()
            self._final_round(ctx, inbox)

    def _window(self, phase: int) -> int:
        """Round budget of one phase window (overridden by the level variant)."""
        return phase_window_rounds(phase)

    def _segment_of_round(self, round_number: int) -> Tuple[str, int]:
        t = round_number
        for i in range(1, self.num_phases + 1):
            w = self._window(i)
            if t <= w:
                return ("phase", i)
            t -= w
        # the final segment is a single scratch scope: per-round state must
        # survive across its rounds, so the tuple stays constant
        return ("final", 0)

    def _segment_end(self, phase: int) -> int:
        """The last (absolute) round of the window of ``phase``."""
        ends = self._segment_ends
        if ends is None:
            total = 0
            ends = []
            for i in range(1, self.num_phases + 1):
                total += self._window(i)
                ends.append(total)
            self._segment_ends = ends
        return ends[phase - 1]

    def _relative_round(self, round_number: int) -> int:
        t = round_number
        for i in range(1, self.num_phases + 1):
            w = self._window(i)
            if t <= w:
                return t
            t -= w
        return t

    # ------------------------------------------------------------------ #
    # structure maintenance
    # ------------------------------------------------------------------ #

    def _process_attachments(self, inbox: Dict[int, object]) -> None:
        for port, payload in inbox.items():
            if not isinstance(payload, tuple) or not payload:
                continue
            if payload[0] == MSG_ATTACH_PARENT:
                self.pending_structure.append(("parent", port))
            elif payload[0] == MSG_ATTACH_CHILD:
                self.pending_structure.append(("child", port))

    def _apply_pending_structure(self) -> None:
        for kind, port in self.pending_structure:
            if kind == "parent":
                self.parent_port = port
            elif kind == "child" and port not in self.child_ports:
                self.child_ports.append(port)
        self.pending_structure = []

    def _ordered_children(self) -> List[int]:
        return sorted(self.child_ports, key=lambda p: self._port_order[p])

    # ------------------------------------------------------------------ #
    # Borůvka phase windows
    # ------------------------------------------------------------------ #

    def _phase_round(self, ctx: NodeContext, inbox: Dict[int, object], phase: int) -> None:
        relative = self._relative_round(ctx.round)
        self._phase_prelude(ctx, inbox, phase, relative)

        # collect convergecast chunks and broadcasts addressed to this phase
        for port, payload in inbox.items():
            if not isinstance(payload, tuple) or not payload:
                continue
            tag = payload[0]
            if tag == MSG_CONV and payload[1] == phase:
                _, _, subtree_size, stream = payload
                self.conv_received[port] = (subtree_size, stream)
            elif tag == MSG_BCAST and payload[1] == phase and not self.bcast_handled:
                (_, _, j, record, consumed_total, my_offset, my_dfs_index) = payload
                self._handle_broadcast(
                    ctx, phase, j, record, consumed_total, my_offset, my_dfs_index
                )

        if self.conv_sent or not self._convergecast_allowed(relative):
            return
        children = self._ordered_children()
        if any(p not in self.conv_received for p in children):
            return  # still waiting for some child

        # all children reported: aggregate this subtree's unconsumed bits
        my_stream = BitString(self.data[self.cons :])
        stream = my_stream
        subtree_size = 1
        for p in children:
            size, child_stream = self.conv_received[p]
            stream = stream + child_stream
            subtree_size += size
        self.conv_sent = True

        if self.parent_port is not None:
            ctx.send(self.parent_port, (MSG_CONV, phase, subtree_size, stream))
            return

        # this node is the fragment root r_F
        if subtree_size >= (1 << phase):
            return  # passive fragment: nothing to decode at this phase
        if len(stream) == 0:
            return  # active but isolated (single remaining fragment): no selection
        parsed = self._parse_fragment_advice(stream)
        if parsed is None:
            return
        j, record, consumed_total = parsed
        self._handle_broadcast(ctx, phase, j, record, consumed_total, 0, 1)

    # ----- hooks overridden by the level-based ablation variant ----- #

    def _phase_prelude(
        self, ctx: NodeContext, inbox: Dict[int, object], phase: int, relative: int
    ) -> None:
        """Extra per-phase behaviour before the convergecast (none by default)."""

    def _convergecast_allowed(self, relative: int) -> bool:
        """Whether the convergecast may start at this relative round."""
        return True

    def _parse_fragment_advice(
        self, stream: BitString
    ) -> Optional[Tuple[int, Tuple, int]]:
        """Parse ``A(F)`` from the front of the unconsumed-bit stream.

        Returns ``(j, record, consumed_bits)`` where ``j`` is the DFS
        index of the choosing node, ``record`` is whatever the choosing
        node needs to identify the selected edge, and ``consumed_bits``
        is the number of stream bits ``A(F)`` occupied.
        """
        try:
            reader = BitReader(stream)
            bup = bool(reader.read_bit())
            rank = reader.read_gamma()
            j = reader.read_gamma()
            return j, (bup, rank), reader.position
        except EOFError:
            return None

    def _choosing_action(self, ctx: NodeContext, phase: int, record: Tuple) -> None:
        """Act as the choosing node ``v_j``: attach across the selected edge."""
        bup, rank = record
        port = ctx.view.port_of_rank(rank)
        self._attach_across(ctx, phase, port, bup)

    def _attach_across(self, ctx: NodeContext, phase: int, port: int, bup: bool) -> None:
        # the structural change takes effect at the end of the phase window,
        # exactly like the attachments received from other fragments
        if bup:
            # the selected edge leads to this node's MST parent
            self.pending_structure.append(("parent", port))
            ctx.send(port, (MSG_ATTACH_CHILD, phase))
        else:
            self.pending_structure.append(("child", port))
            ctx.send(port, (MSG_ATTACH_PARENT, phase))

    # ----------------------------------------------------------------- #

    def _handle_broadcast(
        self,
        ctx: NodeContext,
        phase: int,
        j: int,
        record: Tuple,
        consumed_total: int,
        my_offset: int,
        my_dfs_index: int,
    ) -> None:
        """Process ``A(F)`` at this node and forward it down the fragment."""
        self.bcast_handled = True
        unconsumed = len(self.data) - self.cons
        consumed_here = min(max(consumed_total - my_offset, 0), unconsumed)
        self.cons += consumed_here

        # forward to children with subtree-local prefix sums
        running_offset = my_offset + unconsumed
        running_dfs = my_dfs_index + 1
        for p in self._ordered_children():
            size, child_stream = self.conv_received.get(p, (1, BitString.empty()))
            ctx.send(
                p,
                (
                    MSG_BCAST,
                    phase,
                    j,
                    record,
                    consumed_total,
                    running_offset,
                    running_dfs,
                ),
            )
            running_offset += len(child_stream)
            running_dfs += size

        if my_dfs_index == j:
            self._choosing_action(ctx, phase, record)

    # ------------------------------------------------------------------ #
    # the final phase: collect the fragment root's parent rank
    # ------------------------------------------------------------------ #

    def _final_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        if self.final_done:
            return
        # gather collection traffic
        collect_msg: Optional[int] = None
        for port, payload in inbox.items():
            if not isinstance(payload, tuple) or not payload:
                continue
            if payload[0] == MSG_COLLECT:
                collect_msg = payload[1]
            elif payload[0] == MSG_REPLY:
                self.reply_received[port] = payload[1]

        if self.parent_port is None:
            self._final_root_round(ctx)
            return

        # non-root node
        if not self.collect_flag:
            ctx.halt(self.parent_port)
            self.final_done = True
            return
        if collect_msg is not None and self.collect_ttl is None:
            self.collect_ttl = collect_msg
            children = self._ordered_children()
            if self.collect_ttl > 0 and children:
                self.collect_children = children
                for p in children:
                    ctx.send(p, (MSG_COLLECT, self.collect_ttl - 1))
                self.collect_forwarded = True
            else:
                self._send_reply(ctx)
                return
        if self.collect_forwarded and all(
            p in self.reply_received for p in self.collect_children
        ):
            self._send_reply(ctx)

    def _send_reply(self, ctx: NodeContext) -> None:
        stream = BitString([self.final_bit]) if self.final_bit is not None else BitString.empty()
        for p in self.collect_children:
            stream = stream + self.reply_received.get(p, BitString.empty())
        ctx.send(self.parent_port, (MSG_REPLY, stream))
        ctx.halt(self.parent_port)
        self.final_done = True

    def _final_root_round(self, ctx: NodeContext) -> None:
        width = _final_field_width(ctx.degree)
        children = self._ordered_children()
        if self.collect_ttl is None:
            # start the collection exactly once
            self.collect_ttl = width - 1
            if self.collect_ttl > 0 and children:
                self.collect_children = children
                for p in children:
                    ctx.send(p, (MSG_COLLECT, self.collect_ttl - 1))
                self.collect_forwarded = True
                return
            # the root alone holds every bit it needs
            self._finish_root(ctx, width)
            return
        if self.collect_forwarded and all(
            p in self.reply_received for p in self.collect_children
        ):
            self._finish_root(ctx, width)

    def _finish_root(self, ctx: NodeContext, width: int) -> None:
        stream = BitString([self.final_bit]) if self.final_bit is not None else BitString.empty()
        for p in self.collect_children:
            stream = stream + self.reply_received.get(p, BitString.empty())
        if len(stream) < width:
            # defensive: malformed advice; report failure by not outputting
            ctx.halt()
            self.final_done = True
            return
        value = stream[:width].to_uint()
        if value == 0:
            ctx.halt(ROOT_OUTPUT)
        else:
            ctx.halt(ctx.view.port_of_rank(value))
        self.final_done = True
