"""Trace-driven analytic execution backend.

The :class:`~repro.simulator.engine.SyncEngine` runs every node program
round by round and materialises every message as a Python payload.  For
the paper's four advising schemes that is pure overhead once the decoder
has been validated: the communication pattern of each decoder is a
deterministic function of the Borůvka trace and the advice packing, so
per-round message counts, bit totals and halting rounds can be computed
*directly* from the oracle-side structures — no node programs, no
payload objects, no inboxes.

This module computes exactly the :class:`~repro.simulator.metrics.RunMetrics`
the engine would have produced (rounds, total/per-round message counts,
bit totals, maximum message size, undelivered count) together with the
per-node outputs, for

* :class:`~repro.core.scheme_trivial.TrivialRankScheme` — zero rounds,
  zero messages;
* :class:`~repro.core.scheme_average.AverageConstantScheme` — one round,
  one 2-bit parent claim per *down* record of the trace;
* :class:`~repro.core.scheme_main.ShortAdviceScheme` and
  :class:`~repro.core.scheme_level.LevelAdviceScheme` — the full phase
  window schedule: per-fragment convergecasts (heights), broadcasts
  (depths and unconsumed-bit prefix sums over the DFS preorder),
  attachments, and the final collection wave;
* the no-advice baselines (:func:`run_baseline_analytic`):
  :class:`~repro.distributed.boruvka_sync.SynchronizedBoruvkaMST` — its
  fixed ``⌈log₂ n⌉``-phase schedule over the plain Borůvka phases — and
  :class:`~repro.distributed.full_info.FullInformationMST` — every
  node's knowledge is its hop ball, one bit-parallel BFS from every
  node (:func:`~repro.graphs.properties.all_sources_bfs`).

Equivalence with the engine is not assumed — it is enforced
round-for-round by ``tests/test_analytic_backend.py`` on every modelled
scheme and baseline and every graph family.  The backend refuses
unknown scheme and baseline classes (raising :class:`AnalyticUnsupported`)
instead of guessing, and it never models truncated runs: if a declared
``max_rounds`` budget would be exceeded the caller must fall back to
the engine.

Message sizes replicate :func:`~repro.simulator.message.estimate_bits`
for the exact payload shapes the decoders send; the helper formulas are
pinned against ``estimate_bits`` itself in the test-suite.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.properties import all_sources_bfs
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.boruvka import boruvka_trace, plain_boruvka_phases
from repro.mst.kruskal import kruskal_in_order, kruskal_mst
from repro.mst.rooted_tree import ROOT_OUTPUT, build_rooted_tree
from repro.simulator.engine import RunResult
from repro.simulator.metrics import RunMetrics

__all__ = [
    "ANALYTIC_VERSION",
    "AnalyticUnsupported",
    "run_baseline_analytic",
    "run_scheme_analytic",
]

#: bumped whenever the analytic model changes; mixed into runner cache
#: keys so rows computed by an older model are never served as fresh
ANALYTIC_VERSION = 1


class AnalyticUnsupported(ValueError):
    """Raised when a scheme or baseline (or run budget) has no analytic model."""


# --------------------------------------------------------------------- #
# payload size formulas (mirroring simulator.message.estimate_bits)
# --------------------------------------------------------------------- #


def _int_elem(value: int) -> int:
    """Wire size of one ``int`` element inside a tuple payload."""
    return 3 + max(1, int(value).bit_length())


_BOOL_ELEM = 3  # one bool element inside a tuple payload
_CLAIM_BITS = 2  # the Theorem-2 parent claim: the bare int ``1``


def _conv_bits(phase: int, subtree_size: int, stream_len: int) -> int:
    """``(MSG_CONV, phase, subtree_size, stream)``."""
    return _int_elem(1) + _int_elem(phase) + _int_elem(subtree_size) + 2 + stream_len


def _bcast_bits(
    phase: int, j: int, record_bits: int, consumed: int, offset: int, dfs_index: int
) -> int:
    """``(MSG_BCAST, phase, j, record, consumed_total, my_offset, my_dfs_index)``."""
    return (
        _int_elem(2)
        + _int_elem(phase)
        + _int_elem(j)
        + (2 + record_bits)
        + _int_elem(consumed)
        + _int_elem(offset)
        + _int_elem(dfs_index)
    )


def _attach_bits(phase: int, is_up: bool) -> int:
    """``(MSG_ATTACH_CHILD, phase)`` when up, ``(MSG_ATTACH_PARENT, phase)`` when down."""
    return _int_elem(4 if is_up else 3) + _int_elem(phase)


def _level_bits(phase: int) -> int:
    """``(MSG_LEVEL, phase, level)`` — level is 0 or 1, same wire size either way."""
    return _int_elem(7) + _int_elem(phase) + _int_elem(0)


def _collect_bits(ttl: int) -> int:
    """``(MSG_COLLECT, ttl)``."""
    return _int_elem(5) + _int_elem(ttl)


def _reply_bits(stream_len: int) -> int:
    """``(MSG_REPLY, stream)``."""
    return _int_elem(6) + 2 + stream_len


# the GHS-style baseline's payloads (tags 21-26 of distributed/boruvka_sync.py)


def _ghs_signal_bits(tag: int, phase: int) -> int:
    """``(tag, phase)``: WINNER (24) and ADOPT (26); FRAG (21), NEIGH (22)
    and MERGE (25) append one node identifier (one :func:`_int_elem`)."""
    return _int_elem(tag) + _int_elem(phase)


def _ghs_convmin_bits(phase: int, has_weight: bool) -> int:
    """``(23, phase, best)``: ``best`` is a float weight (32 bits) or ``None``."""
    return _ghs_signal_bits(23, phase) + 2 + (32 if has_weight else 0)


# the full-information baseline's payloads (tags 11 and 12 of distributed/full_info.py)

#: ``(12, ())``: the knowledge gossip's tag and the framing of its entries
_KNOWLEDGE_HEADER_BITS = _int_elem(12) + 2


def _hello_bits(id_elem: np.ndarray) -> np.ndarray:
    """``(11, id)`` per node, from the :func:`_id_elems` of the identifiers."""
    return _int_elem(11) + id_elem


def _share_bits(graph: PortNumberedGraph, id_elem: np.ndarray) -> np.ndarray:
    """Per node, the bits its entry ``(id, ((weight, neighbour id), ...))``
    adds to a knowledge payload: the entry's and its record's framing,
    the id and, per port, the pair's framing, the framed float weight
    and the neighbour's id (every degree is at least 1)."""
    pairs = 2 + (2 + 32) + id_elem[graph._adj_neighbor]
    return 2 + 2 + id_elem + np.add.reduceat(pairs, graph._offsets[:-1])


# --------------------------------------------------------------------- #
# the per-round message ledger
# --------------------------------------------------------------------- #


class _Ledger:
    """Accumulates deliveries per round without materialising messages."""

    def __init__(self) -> None:
        self.per_round: Dict[int, int] = {}
        #: the round arrays of :meth:`deliver_bulk`, histogrammed once
        self.bulk_rounds: List[np.ndarray] = []
        self.total_messages = 0
        self.total_bits = 0
        self.max_bits = 0

    def deliver(self, round_number: int, bits: int, count: int = 1) -> None:
        self.deliver_round(round_number, count, bits * count, bits)

    def deliver_round(self, round_number: int, count: int, bits_sum: int, bits_max: int) -> None:
        """Charge ``count`` deliveries of ``bits_sum`` bits, the largest ``bits_max``."""
        self.per_round[round_number] = self.per_round.get(round_number, 0) + count
        self.total_messages += count
        self.total_bits += bits_sum
        if bits_max > self.max_bits:
            self.max_bits = bits_max

    def deliver_bulk(self, rounds: np.ndarray, bits: np.ndarray) -> None:
        """Charge one delivery per ``(rounds[k], bits[k])`` pair at once."""
        if rounds.size == 0:
            return
        self.total_messages += int(rounds.size)
        self.total_bits += int(bits.sum())
        top = int(bits.max())
        if top > self.max_bits:
            self.max_bits = top
        self.bulk_rounds.append(rounds)

    def _histogram(self, rounds: int) -> List[int]:
        """Messages per round, rounds ``1..rounds`` (most are silent)."""
        counts = np.zeros(rounds + 1, dtype=np.int64)
        if self.bulk_rounds:
            bulk = np.bincount(np.concatenate(self.bulk_rounds))
            if bulk.size > rounds + 1:  # pragma: no cover
                raise RuntimeError("analytic model delivered a message after the last round")
            counts[: bulk.size] += bulk
        if self.per_round and max(self.per_round) > rounds:  # pragma: no cover
            raise RuntimeError("analytic model delivered a message after the last round")
        for r, count in self.per_round.items():
            counts[r] += count
        return counts[1:].tolist()

    def metrics(self, n: int, rounds: int) -> RunMetrics:
        return RunMetrics(
            n=n,
            rounds=rounds,
            total_messages=self.total_messages,
            total_message_bits=self.total_bits,
            max_message_bits=self.max_bits,
            max_edge_bits_per_round=self.max_bits,
            messages_per_round=self._histogram(rounds),
            undelivered_messages=0,
        )


# --------------------------------------------------------------------- #
# fragment geometry
# --------------------------------------------------------------------- #


def _gamma_len(value: int) -> int:
    """Length in bits of the Elias-γ code of ``value >= 1``."""
    return 2 * value.bit_length() - 1


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Vectorised ``max(1, int(v).bit_length())``.

    ``frexp`` returns the exponent ``e`` with ``|v| = m * 2**e`` and
    ``0.5 <= m < 1``, which for ``|v| >= 1`` *is* the bit length; exact
    for every magnitude below ``2**53``, far beyond any count in a trace.
    """
    return np.maximum(1, np.frexp(values.astype(np.float64))[1])


def _int_elems(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_int_elem`."""
    return 3 + _bit_length(values)


def _id_elems(ids: np.ndarray) -> np.ndarray:
    """:func:`_int_elem` of every node identifier, exact for any ``int64``."""
    if ids.min() > -(1 << 53) and ids.max() < 1 << 53:
        return _int_elems(ids)
    return np.array([_int_elem(x) for x in ids.tolist()], dtype=np.int64)


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per query ``k``, the maximum of ``values[lo[k] : hi[k]]`` (``hi > lo``).

    A classic sparse table: ``O(n log n)`` to build, every query answered
    by two overlapping power-of-two windows.  All the interval queries of
    the analytic model (subtree heights, truncated collection waves) go
    through here instead of per-node Python recurrences.
    """
    lens = hi - lo
    max_len = int(lens.max())
    levels = max_len.bit_length() - 1  # floor(log2(max_len))
    tables = [values]
    for level in range(1, levels + 1):
        half = 1 << (level - 1)
        prev = tables[-1]
        tables.append(np.maximum(prev[:-half], prev[half:]))
    out = np.empty(lo.size, dtype=values.dtype)
    query_level = np.frexp(lens.astype(np.float64))[1] - 1  # floor(log2(len))
    for level in range(levels + 1):
        mask = query_level == level
        if not mask.any():
            continue
        width = 1 << level
        table = tables[level]
        out[mask] = np.maximum(table[lo[mask]], table[hi[mask] - width])
    return out


class _PartitionGeometry:
    """Bulk geometry of *every* fragment subtree of one partition.

    All arrays are indexed by *position* in the concatenated fragment
    preorders (:meth:`FragmentPartition.preorder_arrays`): position ``j``
    holds node ``nodes[j]``, belongs to fragment ``frag[j]``, sits at
    ``kpos[j]`` within its fragment's DFS preorder, at fragment-relative
    depth ``depth[j]``; its fragment subtree occupies positions
    ``[j, end[j])`` (fragments are connected MST subtrees, so subtrees
    are contiguous preorder intervals), giving ``size[j] = end[j] - j``
    and ``height[j]`` via one range-max.  The geometry depends only on
    the partition, so it is computed once and cached on it — every
    scheme run over the same trace reuses it.
    """

    def __init__(self, partition) -> None:
        tree = partition.tree
        nodes, starts = partition.preorder_arrays()
        self.nodes = nodes
        self.starts = starts
        num_fragments = partition.num_fragments
        counts = starts[1:] - starts[:-1]
        self.counts = counts
        frag = np.repeat(np.arange(num_fragments, dtype=np.int64), counts)
        self.frag = frag
        positions = np.arange(nodes.size, dtype=np.int64)
        self.kpos = positions - starts[frag]
        tree_depth = np.asarray(tree.depth, dtype=np.int64)
        root_depth = tree_depth[nodes[starts[:-1]]]
        self.depth = tree_depth[nodes] - root_depth[frag]
        # subtree intervals: members of the fragment-subtree of node u are
        # exactly the fragment members inside u's whole-tree Euler
        # interval; within the lexsorted (fragment, preorder-pos) order a
        # search on the combined key finds the interval end
        pos_in_tree = tree.preorder_index()[nodes]
        stride = tree.n + 1
        key = frag * stride + pos_in_tree
        self.end = np.searchsorted(key, frag * stride + tree.subtree_span()[nodes])
        self.size = self.end - positions
        self.height = _range_max(self.depth, positions, self.end) - self.depth

    @staticmethod
    def of(partition) -> "_PartitionGeometry":
        cached = partition._cache.get("analytic_geometry")
        if cached is None:
            cached = _PartitionGeometry(partition)
            partition._cache["analytic_geometry"] = cached
        return cached


# --------------------------------------------------------------------- #
# per-scheme analytic models
# --------------------------------------------------------------------- #


def _expected_outputs(tree) -> Dict[int, Any]:
    # cached on the (immutable) tree: every scheme run over the same
    # instance produces the same outputs dict, and the grouped executor
    # runs four schemes per trace
    cached = getattr(tree, "_expected_outputs_cache", None)
    if cached is None:
        cached = dict(enumerate(tree.parent_port))
        cached[tree.root] = ROOT_OUTPUT
        object.__setattr__(tree, "_expected_outputs_cache", cached)
    return cached


def _result(outputs: Dict[int, Any], metrics: RunMetrics) -> RunResult:
    return RunResult(
        outputs=outputs,
        metrics=metrics,
        completed=True,
        missing_outputs=0,
        stop_reason="completed",
    )


def _analytic_trivial(scheme, graph: PortNumberedGraph, root: int, advice=None):
    tree = build_rooted_tree(graph, kruskal_mst(graph), root=root)
    if advice is None:
        advice = scheme.compute_advice(graph, root=root, tree=tree)
    # every node halts during init: zero rounds, zero messages
    return advice, _result(_expected_outputs(tree), _Ledger().metrics(graph.n, 0))


def _analytic_average(scheme, graph: PortNumberedGraph, root: int, advice=None):
    trace = boruvka_trace(graph, root=root)
    if advice is None:
        advice = scheme.compute_advice(graph, root=root, trace=trace)
    ledger = _Ledger()
    # one parent claim per *down* record, all delivered in round 1; every
    # node (even a claimless one) waits that one round for late claims
    downs = sum(
        int(np.count_nonzero(~phase.arrays["is_up"])) for phase in trace.phases
    )
    if downs:
        ledger.deliver(1, _CLAIM_BITS, count=downs)
    return advice, _result(_expected_outputs(trace.tree), ledger.metrics(graph.n, 1))


def _analytic_main(scheme, graph: PortNumberedGraph, root: int, is_level: bool, advice=None):
    from repro.core.scheme_main import num_boruvka_phases, phase_window_rounds

    n = graph.n
    trace = boruvka_trace(graph, root=root)
    if advice is None:
        advice = scheme.compute_advice(graph, root=root, trace=trace)
    if advice.layout is None:
        raise ValueError(
            "the Theorem-3 model replays the advice's packing layout, "
            "and this advice carries none"
        )
    outputs = _expected_outputs(trace.tree)
    if n == 1:
        # the lone degree-0 node halts during init: no rounds at all
        return advice, _result(outputs, _Ledger().metrics(n, 0))

    phases = num_boruvka_phases(n)
    # per real phase, the nodes that hold its data bits and how many
    layout = advice.layout.phases
    conv_start = 2 if is_level else 1
    tree_depth = np.asarray(trace.tree.depth, dtype=np.int64)
    consumed = np.zeros(n, dtype=np.int64)
    data_total = np.zeros(n, dtype=np.int64)
    for nodes, takes in layout:
        data_total[nodes] += takes  # a node holds one chunk per phase

    ledger = _Ledger()
    offset = 0
    for i in range(1, phases + 1):
        window = phase_window_rounds(i) + (2 if is_level else 0)
        partition = trace.partition_before_phase(i)
        geo = _PartitionGeometry.of(partition)

        if is_level:
            # every node announces its level on every port in the first
            # round of the window; delivered (and charged) one round later
            ledger.deliver(offset + 2, _level_bits(i), count=2 * graph.m)

        sel_arrays = trace.phases[i - 1].arrays if i <= len(trace.phases) else None

        # per-position unconsumed bits and their prefix sums along the
        # concatenated fragment preorders; subtree sums become interval
        # differences because subtrees are contiguous preorder intervals
        unconsumed = data_total[geo.nodes] - consumed[geo.nodes]
        csum = np.concatenate(([0], np.cumsum(unconsumed)))

        # ---- convergecast: one CONV per non-root of every multi-node
        # fragment whose send round fits the window
        send_round = conv_start + geo.height
        conv_mask = (geo.kpos > 0) & (send_round <= window)
        if conv_mask.any():
            positions = np.flatnonzero(conv_mask)
            subtree_weight = csum[geo.end[positions]] - csum[positions]
            # the scalar helper evaluated at (size=1, stream=0), with the
            # two size-dependent terms swapped in vectorized
            bits = (
                (_conv_bits(i, 1, 0) - _int_elem(1))
                + _int_elems(geo.size[positions])
                + subtree_weight
            )
            ledger.deliver_bulk(offset + send_round[positions] + 1, bits)

        # ---- attachments of singleton fragments, broadcast + attachment
        # of the active multi-node fragments — all selections of the phase
        # handled as column arrays
        threshold = 1 << i
        #: per active fragment, its broadcast size minus the two per-node
        #: fields (offset prefix, DFS index) that vary along the fragment
        frag_base = np.zeros(partition.num_fragments, dtype=np.int64)
        active = np.zeros(partition.num_fragments, dtype=bool)
        if sel_arrays is not None and sel_arrays["fragment"].size:
            sel_frag = sel_arrays["fragment"]
            sel_size = geo.counts[sel_frag]
            # _attach_bits vectorised: _int_elem(4)=6 when up, _int_elem(3)=5
            attach = np.where(sel_arrays["is_up"], 6, 5) + _int_elem(i)
            decode = sel_size < threshold  # passive fragments decode nothing
            singles = decode & (sel_size == 1)
            if singles.any():
                # singletons: no convergecast, no broadcast; attach directly
                rounds = np.full(
                    int(np.count_nonzero(singles)),
                    offset + conv_start + 1,
                    dtype=np.int64,
                )
                ledger.deliver_bulk(rounds, attach[singles])
            multis = decode & (sel_size > 1)
            if multis.any():
                fm = sel_frag[multis]
                dfs = sel_arrays["choosing_dfs_index"][multis]
                gamma_dfs = 2 * _bit_length(dfs) - 1
                if is_level:
                    a_len = 2 + gamma_dfs
                    record_bits = _BOOL_ELEM + _int_elems(
                        sel_arrays["level_of_target_fragment"][multis]
                    )
                else:
                    rank = sel_arrays["rank_at_choosing"][multis]
                    a_len = 1 + (2 * _bit_length(rank) - 1) + gamma_dfs
                    record_bits = _BOOL_ELEM + _int_elems(rank)
                # _bcast_bits(i, dfs, record, a_len, 0, 0) - 2 * _int_elem(0)
                frag_base[fm] = (
                    _int_elem(2)
                    + _int_elem(i)
                    + _int_elems(dfs)
                    + 2
                    + record_bits
                    + _int_elems(a_len)
                )
                active[fm] = True
                # the fragment completes its convergecast at conv_start +
                # height(r_F); the attachment crosses one round after the
                # broadcast reaches the choosing node
                root_pos = geo.starts[fm]
                complete_f = conv_start + geo.height[root_pos]
                choosing_depth = (
                    tree_depth[sel_arrays["choosing_node"][multis]]
                    - tree_depth[geo.nodes[root_pos]]
                )
                ledger.deliver_bulk(
                    offset + complete_f + choosing_depth + 1, attach[multis]
                )
        if active.any():
            positions = np.flatnonzero(active[geo.frag] & (geo.kpos > 0))
            frag_of_pos = geo.frag[positions]
            complete = conv_start + geo.height[geo.starts[:-1]]  # per fragment
            prefix_weight = csum[positions] - csum[geo.starts[frag_of_pos]]
            bits = (
                frag_base[frag_of_pos]
                + _int_elems(prefix_weight)
                + _int_elems(geo.kpos[positions] + 1)
            )
            ledger.deliver_bulk(
                offset + complete[frag_of_pos] + geo.depth[positions], bits
            )

        # the broadcasts of this window consumed exactly the bits the
        # oracle packed for phase i (the packing invariant)
        if i <= len(layout):
            nodes, takes = layout[i - 1]
            consumed[nodes] += takes
        offset += window

    # ------------------------- final collection ------------------------ #
    final_start = offset + 1
    partition = trace.partition_before_phase(phases + 1)
    geo = _PartitionGeometry.of(partition)
    last_halt = final_start
    # per fragment, the width of the final field at its root; fragments
    # where the root alone holds every bit (width 1 or singleton) halt at
    # final_start without any collection traffic
    frag_width = _bit_length(graph._degrees[geo.nodes[geo.starts[:-1]]])
    collecting = (frag_width > 1) & (geo.counts > 1)
    if collecting.any():
        # wave heights: the collection wave is truncated at depth
        # width - 1, so clip deeper nodes out of the range-max (their
        # depth can never propagate up into the wave region)
        wave_limit = (frag_width - 1)[geo.frag]
        clipped = np.where(geo.depth <= wave_limit, geo.depth, -1)
        all_positions = np.arange(geo.nodes.size, dtype=np.int64)
        wave_height = _range_max(clipped, all_positions, geo.end) - geo.depth
        in_wave = (
            collecting[geo.frag] & (geo.kpos > 0) & (geo.depth <= wave_limit)
        )
        if in_wave.any():
            positions = np.flatnonzero(in_wave)
            depth = geo.depth[positions]
            width = frag_width[geo.frag[positions]]
            # COLLECT from the parent (depth <= width - 2 always forwards)
            collect_bits = (
                _collect_bits(0) - _int_elem(0) + _int_elems(width - 1 - depth)
            )
            ledger.deliver_bulk(final_start + depth, collect_bits)
            # REPLY back up, carrying the final bits of the subtree (the
            # holders are the first ``width`` preorder positions)
            reply_round = final_start + depth + 2 * wave_height[positions]
            holders = np.maximum(
                0,
                np.minimum(width, geo.kpos[positions] + geo.size[positions])
                - geo.kpos[positions],
            )
            reply_bits = _reply_bits(0) + holders  # the stream length is per node
            ledger.deliver_bulk(reply_round + 1, reply_bits)
            last_halt = max(last_halt, int(reply_round.max()))
        root_halts = final_start + 2 * wave_height[geo.starts[:-1]][collecting]
        if root_halts.size:
            last_halt = max(last_halt, int(root_halts.max()))

    return advice, _result(outputs, ledger.metrics(n, last_halt))


# --------------------------------------------------------------------- #
# the GHS-style no-advice baseline
# --------------------------------------------------------------------- #


def _rooted_forest(
    n: int, roots: Sequence[int], adjacency: List[List[Tuple[int, int]]]
) -> Tuple[List[int], List[int], List[int], List[int], List[int]]:
    """Breadth-first forest of the fragment trees, one tree per root.

    ``adjacency[u]`` lists ``(v, port at v)`` over the MST edges merged so
    far.  Returns ``(order, depth, parent, root_of, parent_port)``: the
    visit order (parents before children) and per node its depth below
    its fragment's root, its parent (``-1`` at a root), that root, and
    the port of its parent edge at the node itself.
    """
    depth = [-1] * n
    parent = [-1] * n
    root_of = list(range(n))
    parent_port = [-1] * n
    order = list(roots)
    for r in order:
        depth[r] = 0
    for u in order:  # grows while it is walked: a breadth-first queue
        below = depth[u] + 1
        root = root_of[u]
        for v, port in adjacency[u]:
            if depth[v] < 0:
                depth[v] = below
                parent[v] = u
                root_of[v] = root
                parent_port[v] = port
                order.append(v)
    return order, depth, parent, root_of, parent_port


def _fragment_shape(
    forest, edge_u: np.ndarray, edge_v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(depth, root_of, height, reach)`` arrays of one rooted forest.

    ``height`` is a node's height in its fragment tree, ``reach`` whether
    any node of its subtree has an edge leaving the fragment (whether the
    convergecast it sends carries a weight).
    """
    order, depth, parent, root_of, _ = forest
    roots = np.asarray(root_of, dtype=np.int64)
    outgoing = np.zeros(len(order), dtype=bool)
    crossing = roots[edge_u] != roots[edge_v]
    outgoing[edge_u[crossing]] = True
    outgoing[edge_v[crossing]] = True
    height = [0] * len(order)
    reach = outgoing.tolist()
    for u in reversed(order):
        p = parent[u]
        if p >= 0:
            if height[u] >= height[p]:
                height[p] = height[u] + 1
            if reach[u]:
                reach[p] = True
    return (
        np.asarray(depth, dtype=np.int64),
        roots,
        np.asarray(height, dtype=np.int64),
        np.asarray(reach, dtype=bool),
    )


def _analytic_ghs(graph: PortNumberedGraph) -> RunResult:
    """The synchronised Borůvka baseline's run, phase window by window.

    Phase ``p`` (0-based) occupies rounds ``p*W + 1 .. (p+1)*W`` with
    ``W = 4B + 8`` and ``B = n + 2``.  Its fragments are those of plain
    Borůvka (every fragment is active), each rooted at ``r_F``: every
    node in phase 0, afterwards the larger-identifier endpoint of the
    previous phase's core edge (the edge both of its fragments chose).
    With ``o = p*W``, depths ``d`` and heights ``h`` in the fragment
    trees rooted at ``r_F``, the deliveries are:

    * FRAG at ``o + 1 + d`` on every non-root;
    * NEIGH on every port in round ``o + B + 2``;
    * CONVMIN from every non-root at ``o + B + 3 + h``;
    * WINNER, hop ``k`` from ``r_F`` towards the choosing node ``w``, at
      ``o + B + 2 + h(r_F) + k``, then MERGE across the selected edge at
      ``o + B + 3 + h(r_F) + d(w)``;
    * ADOPT from the core endpoint over the merged tree, at
      ``o + 3B + 5 + d'`` with ``d'`` the depth below the new root.

    Every node halts in the last round of the last window, outputting
    its parent port in the final tree.
    """
    n = graph.n
    if n == 1:
        # the lone degree-0 node halts during init: no rounds at all
        return _result({0: ROOT_OUTPUT}, _Ledger().metrics(n, 0))
    budget = n + 2
    window = 4 * budget + 8
    num_phases = max(1, math.ceil(math.log2(n)))
    ids = graph.node_ids
    id_elem = _id_elems(ids)
    degrees = graph._degrees
    edge_u, edge_v = graph.edge_u, graph.edge_v
    port_u, port_v = graph.edge_port_u.tolist(), graph.edge_port_v.tolist()
    selections = list(plain_boruvka_phases(graph))

    ledger = _Ledger()
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    forest = _rooted_forest(n, range(n), adjacency)
    depth, root_of, height, reach = _fragment_shape(forest, edge_u, edge_v)
    for p in range(num_phases):
        offset = p * window
        below = np.flatnonzero(depth > 0)
        # (21, p, id(r_F)) down the fragment trees
        ledger.deliver_bulk(
            offset + 1 + depth[below], _ghs_signal_bits(21, p) + id_elem[root_of[below]]
        )
        # (22, p, id(r_F(u))) from every node on every port
        ledger.deliver_bulk(
            np.full(2 * graph.m, offset + budget + 2, dtype=np.int64),
            np.repeat(_ghs_signal_bits(22, p) + id_elem[root_of], degrees),
        )
        # (23, p, best) up the fragment trees
        ledger.deliver_bulk(
            offset + budget + 3 + height[below],
            np.where(reach[below], _ghs_convmin_bits(p, True), _ghs_convmin_bits(p, False)),
        )
        if p >= len(selections):
            continue  # one fragment left: no outgoing edge, nothing merges
        edge_ids, choosing = selections[p]
        # (24, p) hop by hop from r_F to the choosing node w, then
        # (25, p, id(w)) across the selected edge
        start = offset + budget + 2 + height[root_of[choosing]]
        hops = depth[choosing]
        firsts = np.cumsum(hops) - hops
        k = np.arange(int(hops.sum()), dtype=np.int64) - np.repeat(firsts, hops) + 1
        ledger.deliver_bulk(
            np.repeat(start, hops) + k, np.full(k.size, _ghs_signal_bits(24, p))
        )
        ledger.deliver_bulk(start + hops + 1, _ghs_signal_bits(25, p) + id_elem[choosing])
        # merge, and re-root every merged fragment at its core endpoint
        unique, counts = np.unique(edge_ids, return_counts=True)
        for eid in unique.tolist():
            a, b = int(edge_u[eid]), int(edge_v[eid])
            adjacency[a].append((b, port_v[eid]))
            adjacency[b].append((a, port_u[eid]))
        core = unique[counts == 2]
        cu, cv = edge_u[core], edge_v[core]
        forest = _rooted_forest(n, np.where(ids[cu] > ids[cv], cu, cv).tolist(), adjacency)
        depth, root_of, height, reach = _fragment_shape(forest, edge_u, edge_v)
        # (26, p) down the merged trees from the new roots
        adopted = depth[depth > 0]
        ledger.deliver_bulk(
            offset + 3 * budget + 5 + adopted, np.full(adopted.size, _ghs_signal_bits(26, p))
        )

    outputs = {
        u: ROOT_OUTPUT if port < 0 else port for u, port in enumerate(forest[4])
    }
    return _result(outputs, ledger.metrics(n, num_phases * window))


# --------------------------------------------------------------------- #
# the full-information LOCAL baseline
# --------------------------------------------------------------------- #


def _analytic_full_info(graph: PortNumberedGraph) -> RunResult:
    """The full-information baseline's run, from every node's hop balls.

    With ``B(u, s)`` the nodes within ``s`` hops of ``u``, ``ecc(u)``
    its eccentricity and ``D`` the diameter:

    * in round 0 every node sends ``(11, id)`` on every port;
    * in round ``s + 1``, for ``s = 0 .. ecc(u)``, node ``u`` knows the
      records of ``B(u, s)`` and sends them on every port: a knowledge
      payload of ``9 + Σ share(w)`` bits over ``w ∈ B(u, s)``;
    * node ``u`` halts in round ``ecc(u) + 2``, once its knowledge is
      closed and stopped growing, so the run lasts ``D + 2`` rounds and
      the last payloads arrive before it ends.

    Every node outputs its parent port in the MST that Kruskal builds
    in the program's ``(weight, smaller id, larger id)`` order, rooted
    at the smallest identifier.
    """
    n = graph.n
    if n == 1:
        # the lone degree-0 node halts during init: no rounds at all
        return _result({0: ROOT_OUTPUT}, _Ledger().metrics(n, 0))
    ids = graph.node_ids
    if np.unique(ids).size != n:
        raise AnalyticUnsupported("the full-information model needs distinct node identifiers")
    id_elem = _id_elems(ids)
    degrees = graph._degrees
    shares = _share_bits(graph, id_elem)
    everything = int(shares.sum())

    ledger = _Ledger()
    hello = _hello_bits(id_elem)
    ledger.deliver_round(1, 2 * graph.m, int(degrees @ hello), int(hello.max()))
    # u sends B(u, s) on each port in round s + 1 while s <= ecc(u), i.e.
    # while B(u, s - 1) still misses a node
    shifts = np.arange(64, dtype=np.uint64)
    last_step = 0  # ends as the diameter
    for lo, step, reach in all_sources_bfs(graph):
        inside = (reach[:, None] >> shifts[: min(64, n - lo)]) & np.uint64(1)
        ball = shares @ inside.astype(np.int64)  # the shares of B(lo + k, step)
        ports = degrees[lo : lo + ball.size]
        if step:
            ports = np.where(last_ball < everything, ports, 0)
        last_ball = ball
        sizes = _KNOWLEDGE_HEADER_BITS + ball
        ledger.deliver_round(
            step + 2, int(ports.sum()), int(ports @ sizes), int(sizes[ports > 0].max(initial=0))
        )
        last_step = max(last_step, step)

    low, high = ids[graph.edge_u], ids[graph.edge_v]
    order = np.lexsort((np.maximum(low, high), np.minimum(low, high), graph.edge_w))
    tree = build_rooted_tree(graph, kruskal_in_order(graph, order), root=int(np.argmin(ids)))
    return _result(_expected_outputs(tree), ledger.metrics(n, last_step + 2))


def run_baseline_analytic(
    baseline, graph: PortNumberedGraph, max_rounds: Optional[int] = None
) -> RunResult:
    """Compute a no-advice baseline's run result without the engine.

    Supports exactly
    :class:`~repro.distributed.boruvka_sync.SynchronizedBoruvkaMST` and
    :class:`~repro.distributed.full_info.FullInformationMST` on a
    connected graph; any other baseline class (the other problems'
    baselines, subclasses), any disconnected instance and a
    full-information instance with duplicate identifiers raise
    :class:`AnalyticUnsupported`, as does a run that would exceed
    ``max_rounds`` — run those on the engine.  The GHS-style baseline's
    tied weights or identifiers raise the engine's own ``ValueError``.

    >>> from repro.distributed.boruvka_sync import SynchronizedBoruvkaMST
    >>> from repro.graphs.generators import random_connected_graph
    >>> from repro.simulator.engine import run_sync
    >>> graph = random_connected_graph(24, 0.1, seed=2)
    >>> ghs = SynchronizedBoruvkaMST()
    >>> result = run_baseline_analytic(ghs, graph)
    >>> engine = run_sync(graph, ghs.program_factory(graph), max_rounds=10_000)
    >>> result.metrics == engine.metrics and result.outputs == engine.outputs
    True
    """
    from repro.distributed.boruvka_sync import SynchronizedBoruvkaMST
    from repro.distributed.full_info import FullInformationMST

    cls = type(baseline)
    if cls is SynchronizedBoruvkaMST:
        model = _analytic_ghs
    elif cls is FullInformationMST:
        model = _analytic_full_info
    else:
        raise AnalyticUnsupported(
            f"no analytic model for baseline class {cls.__name__}; "
            'run it with backend="engine"'
        )
    baseline.program_factory(graph)  # the engine's instance checks
    if not graph.is_connected():
        raise AnalyticUnsupported("the baseline models cover connected graphs only")
    result = model(graph)
    rounds = result.metrics.rounds
    if max_rounds is not None and rounds > max_rounds:
        raise AnalyticUnsupported(
            f"the run needs {rounds} rounds but max_rounds={max_rounds}; "
            "truncated runs must use the engine"
        )
    return result


# --------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------- #


def run_scheme_analytic(
    scheme,
    graph: PortNumberedGraph,
    root: int = 0,
    max_rounds: Optional[int] = None,
    advice=None,
) -> Tuple[Any, RunResult]:
    """Compute (advice, run result) analytically, without the engine.

    Supports exactly the four built-in schemes — a subclass with a
    different decoder would silently diverge from the model, so anything
    else raises :class:`AnalyticUnsupported` (run it on the engine
    instead).  The model never truncates: if the computed run would
    exceed ``max_rounds``, :class:`AnalyticUnsupported` is raised and the
    caller should fall back to the engine for exact truncated metrics.

    ``advice`` may carry a precomputed assignment for this ``(graph,
    root)``; the Theorem-3 model replays the packing layout the advice
    carries, and raises :class:`ValueError` for advice without one.

    >>> from repro.core.scheme_main import ShortAdviceScheme
    >>> from repro.graphs.generators import random_connected_graph
    >>> from repro.simulator.engine import run_sync
    >>> graph = random_connected_graph(24, 0.1, seed=2)
    >>> scheme = ShortAdviceScheme()
    >>> advice, result = run_scheme_analytic(scheme, graph, root=0)
    >>> engine = run_sync(graph, scheme.program_factory(),
    ...                   advice=scheme.compute_advice(graph, root=0).as_payloads())
    >>> result.metrics == engine.metrics  # value-identical, round for round
    True
    >>> class Custom(ShortAdviceScheme):
    ...     pass
    >>> run_scheme_analytic(Custom(), graph)
    Traceback (most recent call last):
        ...
    repro.simulator.analytic.AnalyticUnsupported: no analytic model for scheme class Custom; run it with backend="engine"
    """
    from repro.core.scheme_average import AverageConstantScheme
    from repro.core.scheme_level import LevelAdviceScheme
    from repro.core.scheme_main import ShortAdviceScheme
    from repro.core.scheme_trivial import TrivialRankScheme

    cls = type(scheme)
    if cls is TrivialRankScheme:
        advice, result = _analytic_trivial(scheme, graph, root, advice=advice)
    elif cls is AverageConstantScheme:
        advice, result = _analytic_average(scheme, graph, root, advice=advice)
    elif cls is LevelAdviceScheme:
        advice, result = _analytic_main(scheme, graph, root, is_level=True, advice=advice)
    elif cls is ShortAdviceScheme:
        advice, result = _analytic_main(scheme, graph, root, is_level=False, advice=advice)
    else:
        raise AnalyticUnsupported(
            f"no analytic model for scheme class {cls.__name__}; "
            'run it with backend="engine"'
        )
    if max_rounds is not None and result.metrics.rounds > max_rounds:
        raise AnalyticUnsupported(
            f"the run needs {result.metrics.rounds} rounds but max_rounds="
            f"{max_rounds}; truncated runs must use the engine"
        )
    return advice, result
