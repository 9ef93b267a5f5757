"""The paper's Borůvka variant (Section 2.2) with full per-phase tracing.

The construction proceeds in phases.  Before phase 1 every node is a
singleton fragment.  At phase ``i`` only the fragments of size smaller
than ``2^i`` are *active*; every active fragment selects its minimum
outgoing edge (under the canonical ``(weight, edge_id)`` order, which
subsumes the paper's "ties are broken using the port numbers, remaining
ties arbitrarily" rule with one globally consistent choice), and all
fragments connected by selected edges merge into one fragment for phase
``i + 1``.  Lemma 1 of the paper: after phase ``i`` every fragment has
at least ``2^i`` nodes, hence at most ``⌈log₂ n⌉`` phases are ever
needed.

Two entry points are provided:

:func:`boruvka_mst`
    Just the MST edge ids — an independent reference implementation used
    to cross-check Kruskal and Prim.

:func:`boruvka_trace`
    The full :class:`BoruvkaTrace`: for every phase, the fragment
    partition, the contracted fragment tree with its levels, and one
    :class:`FragmentSelection` record per active fragment (choosing
    node, selected edge, orientation, DFS position, ...).  The oracles
    of ``repro.core`` are written directly against this trace.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.fragments import FragmentPartition, FragmentTree
from repro.mst.rooted_tree import RootedSpanningTree, build_rooted_tree, graph_of
from repro.mst.union_find import UnionFind

__all__ = [
    "FragmentSelection",
    "BoruvkaPhase",
    "BoruvkaTrace",
    "boruvka_mst",
    "boruvka_trace",
    "plain_boruvka_phases",
]


@dataclass(frozen=True)
class FragmentSelection:
    """The edge selected by one active fragment at one phase."""

    phase: int
    fragment: int
    fragment_size: int
    choosing_node: int
    selected_edge: int
    port_at_choosing: int
    weight: float
    #: 1-based rank of the selected edge in the ``index`` order at the choosing node
    rank_at_choosing: int
    #: the paper's ``index_u(e) = (x_u, y_u)`` at the choosing node
    index_pair: Tuple[int, int]
    #: ``True`` iff the selected edge leads towards the global root at the choosing node
    is_up: bool
    target_node: int
    target_fragment: int
    level_of_fragment: int
    level_of_target_fragment: int
    #: 1-based position of the choosing node in the DFS preorder of ``T_F``
    choosing_dfs_index: int


class BoruvkaPhase:
    """Everything that happened at one phase of the construction.

    The per-selection data is stored as one NumPy column per
    :class:`FragmentSelection` field (``arrays``); the tuple of
    :class:`FragmentSelection` records is materialised lazily on first
    access to :attr:`selections` — the hot consumers (the packers and
    the analytic backend) read the columns directly.
    """

    __slots__ = (
        "index",
        "partition",
        "fragment_tree",
        "active",
        "selected_edge_ids",
        "arrays",
        "_selections",
    )

    def __init__(
        self,
        index: int,
        partition: FragmentPartition,
        fragment_tree: FragmentTree,
        active: Tuple[int, ...],
        selected_edge_ids: Tuple[int, ...],
        arrays: Optional[Dict[str, np.ndarray]] = None,
        selections: Optional[Tuple[FragmentSelection, ...]] = None,
    ):
        self.index = index
        self.partition = partition
        self.fragment_tree = fragment_tree
        self.active = active
        #: de-duplicated edge ids selected at this phase
        self.selected_edge_ids = selected_edge_ids
        #: per-selection columns, ordered by fragment index (see
        #: :data:`SELECTION_COLUMNS`)
        if arrays is None:
            arrays = _selection_arrays(selections or ())
        self.arrays = arrays
        self._selections = selections

    @property
    def selections(self) -> Tuple[FragmentSelection, ...]:
        """Per-fragment selection records (lazy view of :attr:`arrays`)."""
        if self._selections is None:
            a = self.arrays
            fields = zip(
                a["fragment"].tolist(),
                a["fragment_size"].tolist(),
                a["choosing_node"].tolist(),
                a["selected_edge"].tolist(),
                a["port_at_choosing"].tolist(),
                a["weight"].tolist(),
                a["rank_at_choosing"].tolist(),
                a["index_x"].tolist(),
                a["index_y"].tolist(),
                a["is_up"].tolist(),
                a["target_node"].tolist(),
                a["target_fragment"].tolist(),
                a["level_of_fragment"].tolist(),
                a["level_of_target_fragment"].tolist(),
                a["choosing_dfs_index"].tolist(),
            )
            self._selections = tuple(
                FragmentSelection(
                    phase=self.index,
                    fragment=f,
                    fragment_size=size,
                    choosing_node=node,
                    selected_edge=eid,
                    port_at_choosing=p,
                    weight=w,
                    rank_at_choosing=rank,
                    index_pair=(x, y),
                    is_up=up,
                    target_node=tgt,
                    target_fragment=tf,
                    level_of_fragment=lf,
                    level_of_target_fragment=lt,
                    choosing_dfs_index=dfs,
                )
                for f, size, node, eid, p, w, rank, x, y, up, tgt, tf, lf, lt, dfs in fields
            )
        return self._selections

    def selection_for_fragment(self, f: int) -> Optional[FragmentSelection]:
        """The selection made by fragment ``f`` at this phase, if any."""
        for sel in self.selections:
            if sel.fragment == f:
                return sel
        return None


def _selection_arrays(
    selections: Sequence[FragmentSelection],
) -> Dict[str, np.ndarray]:
    """Column view of explicit selection records (slow path, small inputs)."""
    return {
        "fragment": np.asarray([s.fragment for s in selections], dtype=np.int64),
        "fragment_size": np.asarray(
            [s.fragment_size for s in selections], dtype=np.int64
        ),
        "choosing_node": np.asarray(
            [s.choosing_node for s in selections], dtype=np.int64
        ),
        "selected_edge": np.asarray(
            [s.selected_edge for s in selections], dtype=np.int64
        ),
        "port_at_choosing": np.asarray(
            [s.port_at_choosing for s in selections], dtype=np.int64
        ),
        "weight": np.asarray([s.weight for s in selections], dtype=np.float64),
        "rank_at_choosing": np.asarray(
            [s.rank_at_choosing for s in selections], dtype=np.int64
        ),
        "index_x": np.asarray([s.index_pair[0] for s in selections], dtype=np.int64),
        "index_y": np.asarray([s.index_pair[1] for s in selections], dtype=np.int64),
        "is_up": np.asarray([s.is_up for s in selections], dtype=bool),
        "target_node": np.asarray([s.target_node for s in selections], dtype=np.int64),
        "target_fragment": np.asarray(
            [s.target_fragment for s in selections], dtype=np.int64
        ),
        "level_of_fragment": np.asarray(
            [s.level_of_fragment for s in selections], dtype=np.int64
        ),
        "level_of_target_fragment": np.asarray(
            [s.level_of_target_fragment for s in selections], dtype=np.int64
        ),
        "choosing_dfs_index": np.asarray(
            [s.choosing_dfs_index for s in selections], dtype=np.int64
        ),
    }


@dataclass
class BoruvkaTrace:
    """The complete run of the paper's Borůvka variant on one instance."""

    #: weak reference to the instance, which memoises the trace
    #: (see :func:`~repro.mst.rooted_tree.graph_of`)
    graph_ref: "weakref.ReferenceType[PortNumberedGraph]"
    root: int
    tree: RootedSpanningTree
    phases: List[BoruvkaPhase]

    @property
    def graph(self) -> PortNumberedGraph:
        """The instance the trace was run on."""
        return graph_of(self.graph_ref)

    @property
    def num_phases(self) -> int:
        """Number of phases until a single fragment remained."""
        return len(self.phases)

    def phase(self, i: int) -> BoruvkaPhase:
        """Phase ``i`` (1-based)."""
        return self.phases[i - 1]

    def selected_before_phase(self, i: int) -> List[int]:
        """All edge ids selected strictly before phase ``i`` (1-based)."""
        out: Set[int] = set()
        for ph in self.phases[: i - 1]:
            out.update(ph.selected_edge_ids)
        return sorted(out)

    def partition_before_phase(self, i: int) -> FragmentPartition:
        """The fragment partition at the beginning of phase ``i`` (1-based).

        For ``i`` beyond the last recorded phase this returns the
        partition obtained after the final phase (which may still have
        several fragments if the trace was truncated with
        ``max_phases``).
        """
        if 1 <= i <= len(self.phases):
            return self.phases[i - 1].partition
        # the beyond-the-end partition is the same object for every such
        # ``i``; build it once (the analytic backend asks for it once per
        # remaining phase window plus once for the final collection)
        cached = getattr(self, "_final_partition", None)
        if cached is None:
            cached = FragmentPartition.from_selected_edges(
                self.tree, self.selected_before_phase(len(self.phases) + 1)
            )
            self._final_partition = cached
        return cached

    def mst_edge_ids(self) -> List[int]:
        """Edge ids of the MST produced by the run (the reference tree's edges)."""
        return sorted(self.tree.edge_ids)


# ---------------------------------------------------------------------- #
# vectorised per-phase minimum-outgoing-edge selection
# ---------------------------------------------------------------------- #


def _minimum_outgoing_edges(
    num_nodes: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    reps: np.ndarray,
    sorted_u: np.ndarray,
    sorted_v: np.ndarray,
    order: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per fragment, its first outgoing edge in the canonical order.

    ``sorted_u`` / ``sorted_v`` are the edge endpoints arranged in the
    canonical ``(weight, edge_id)`` order (``order`` maps a canonical
    position back to the edge id).  A fragment's minimum outgoing edge is
    its *first occurrence* in that order, found with one reversed fancy
    assignment per endpoint side (later writes are overwritten by earlier
    positions) — ``O(m)`` per phase with no per-phase sort, and exactly
    the edge the historical scan found, including the ``(weight,
    edge_id)`` tie-breaking.

    Returns ``(fragments, edge_ids, choosing_nodes)``: for every
    fragment representative with at least one outgoing edge, the
    selected edge id and the endpoint inside the fragment.
    """
    ru = reps[sorted_u]
    rv = reps[sorted_v]
    inter = np.flatnonzero(ru != rv)
    if inter.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    sentinel = order.size
    first_u = np.full(num_nodes, sentinel, dtype=np.int64)
    first_v = np.full(num_nodes, sentinel, dtype=np.int64)
    rev = inter[::-1]
    first_u[ru[rev]] = rev
    first_v[rv[rev]] = rev
    best = np.minimum(first_u, first_v)
    frags = np.flatnonzero(best < sentinel)
    win_pos = best[frags]
    eids = order[win_pos]
    nodes = np.where(first_u[frags] == win_pos, edge_u[eids], edge_v[eids])
    return frags, eids, nodes


# ---------------------------------------------------------------------- #
# plain Borůvka (independent MST reference)
# ---------------------------------------------------------------------- #


def plain_boruvka_phases(
    graph: PortNumberedGraph,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The phases of classic Borůvka, one ``(edge_ids, choosing_nodes)`` each.

    Every fragment (no active/passive distinction) selects its minimum
    outgoing edge under the canonical ``(weight, edge_id)`` order: entry
    ``k`` is one fragment's selected edge and its endpoint inside the
    fragment.  The fragments merge along the selections before the next
    phase is computed; the loop ends when no fragment has an outgoing
    edge (one fragment per connected component).  This is the reference
    MST of :func:`boruvka_mst` and the phase structure of the GHS-style
    baseline's analytic model.
    """
    order = np.lexsort((np.arange(graph.m), graph.edge_w))
    sorted_u = graph.edge_u[order]
    sorted_v = graph.edge_v[order]
    labels = np.arange(graph.n, dtype=np.int64)  # a representative per node
    fragments = graph.n
    while fragments > 1:
        frags, edge_ids, nodes = _minimum_outgoing_edges(
            graph.n, graph.edge_u, graph.edge_v, labels, sorted_u, sorted_v, order
        )
        if edge_ids.size == 0:
            return
        yield edge_ids, nodes
        # merge in one hook-and-jump: every fragment hooks onto the one
        # across its selected edge.  Under one global total order the
        # selections form a forest plus, per merged fragment, one edge
        # selected from both sides; the smaller representative of that
        # mutual pair becomes the root.
        across = np.where(
            graph.edge_u[edge_ids] == nodes, graph.edge_v[edge_ids], graph.edge_u[edge_ids]
        )
        parent = np.arange(graph.n, dtype=np.int64)
        parent[frags] = labels[across]
        roots = frags[(parent[parent[frags]] == frags) & (frags < parent[frags])]
        parent[roots] = roots
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        labels = parent[labels]
        fragments -= edge_ids.size - roots.size  # one merge per distinct edge


def boruvka_mst(graph: PortNumberedGraph) -> List[int]:
    """Edge ids of the reference MST computed by classic Borůvka.

    Because the canonical order is a single global total order, the union
    of the selections of :func:`plain_boruvka_phases` never contains a
    cycle and the result equals the reference MST ``T*`` of Kruskal and
    Prim.
    """
    if not graph.is_connected():
        raise ValueError("MST is undefined on a disconnected graph")
    tree: Set[int] = set()
    for edge_ids, _ in plain_boruvka_phases(graph):
        tree.update(edge_ids.tolist())
    return sorted(tree)


# ---------------------------------------------------------------------- #
# the paper's variant, with tracing
# ---------------------------------------------------------------------- #


def boruvka_trace(
    graph: PortNumberedGraph,
    root: int = 0,
    max_phases: Optional[int] = None,
) -> BoruvkaTrace:
    """Run the paper's active/passive Borůvka variant and record everything.

    Parameters
    ----------
    graph:
        The instance (must be connected).
    root:
        The node chosen as the root ``r`` of the resulting MST; the
        up/down orientation of selected edges and the fragment levels are
        defined relative to ``r``.
    max_phases:
        If given, stop recording after this many phases even if several
        fragments remain (the Theorem-3 oracle only needs
        ``⌈log₂ log₂ n⌉`` phases).  The reference MST and the rooted tree
        are always computed from a full run.
    """
    if not graph.is_connected():
        raise ValueError("MST is undefined on a disconnected graph")
    if not 0 <= root < graph.n:
        raise ValueError("root out of range")

    # full traces are memoised per (graph, root): the trace is a pure
    # function of the immutable instance, and every trace-driven scheme
    # (theorem2 / theorem3 / theorem3-level) plus the analytic backend
    # asks for the same one when run over the same instance
    if max_phases is None:
        memo = getattr(graph, "_trace_cache", None)
        if memo is None:
            memo = {}
            graph._trace_cache = memo
        cached = memo.get(root)
        if cached is not None:
            return cached

    order = np.lexsort((np.arange(graph.m), graph.edge_w))
    sorted_u = graph.edge_u[order]
    sorted_v = graph.edge_v[order]

    # ---------- raw phase loop (membership + selections only) ----------
    uf = UnionFind(graph.n)
    raw_phases: List[Dict] = []
    all_selected: Set[int] = set()
    phase_index = 0
    while uf.component_count > 1:
        phase_index += 1
        threshold = 1 << phase_index
        reps = uf.roots_array()
        sizes = np.bincount(reps, minlength=graph.n)

        # first outgoing edge in canonical order, per active fragment
        # (arrays are ordered by fragment representative — the historical
        # ``sorted(rep -> selection)`` iteration order)
        frag_reps, edge_ids, nodes = _minimum_outgoing_edges(
            graph.n, graph.edge_u, graph.edge_v, reps, sorted_u, sorted_v, order
        )
        active = sizes[frag_reps] < threshold
        sel_eids = edge_ids[active]
        sel_nodes = nodes[active]

        new_edges = np.unique(sel_eids).tolist()
        raw_phases.append(
            {
                "index": phase_index,
                "sel_eids": sel_eids,
                "sel_nodes": sel_nodes,
                "new_edges": new_edges,
            }
        )
        for eid in new_edges:
            uf.union(int(graph.edge_u[eid]), int(graph.edge_v[eid]))
            all_selected.add(eid)
        if phase_index > graph.n:  # pragma: no cover - safety net
            raise RuntimeError("Borůvka did not converge")

    mst_edges = sorted(all_selected)
    if len(mst_edges) != graph.n - 1:  # pragma: no cover - internal invariant
        raise RuntimeError("Borůvka produced a non-spanning edge set")
    # the Borůvka MST equals the Kruskal MST under the shared canonical
    # order; seeding the memo spares the non-trace schemes and the
    # verifier a full Kruskal pass over the same instance
    if getattr(graph, "_kruskal_cache", None) is None:
        graph._kruskal_cache = tuple(mst_edges)
    tree = build_rooted_tree(graph, mst_edges, root=root)

    phases = _annotate_phases(graph, tree, raw_phases, max_phases)
    trace = BoruvkaTrace(graph_ref=weakref.ref(graph), root=root, tree=tree, phases=phases)
    if max_phases is None:
        graph._trace_cache[root] = trace
    return trace


def _annotate_phases(
    graph: PortNumberedGraph,
    tree: RootedSpanningTree,
    raw_phases: List[Dict],
    max_phases: Optional[int] = None,
) -> List[BoruvkaPhase]:
    """Turn raw per-phase selections into fully annotated :class:`BoruvkaPhase`\\ s.

    Partitions are rebuilt incrementally: one union-find accumulates the
    selected edges phase by phase, and each phase's partition is one bulk
    roots_array pass instead of a fresh union-find over all earlier edges;
    every per-selection field (ports, ranks, index pairs, orientations,
    levels, DFS indices) is gathered with one vectorised pass per phase.
    """
    phases: List[BoruvkaPhase] = []
    limit = len(raw_phases) if max_phases is None else min(max_phases, len(raw_phases))
    annotate_uf = UnionFind(graph.n)
    parent_edge_arr = np.asarray(tree.parent_edge, dtype=np.int64)
    slot_rank, slot_x, slot_y = graph._slot_orders()
    offsets = graph._offsets
    for raw in raw_phases[:limit]:
        i = raw["index"]
        partition = FragmentPartition.from_roots(tree, annotate_uf.roots_array())
        ftree = partition.fragment_tree()
        active = tuple(partition.active_fragments(i))
        eids = raw["sel_eids"]
        choosing = raw["sel_nodes"]
        frag_of = partition.fragment_of_array()
        at_u = graph.edge_u[eids] == choosing
        target = np.where(at_u, graph.edge_v[eids], graph.edge_u[eids])
        port = np.where(at_u, graph.edge_port_u[eids], graph.edge_port_v[eids])
        slot = offsets[choosing] + port
        frag = frag_of[choosing]
        counts = partition.fragment_sizes_array()
        levels = ftree.depth_array() % 2
        target_frag = frag_of[target]
        arrays = {
            "fragment": frag,
            "fragment_size": counts[frag],
            "choosing_node": choosing,
            "selected_edge": eids,
            "port_at_choosing": port,
            "weight": graph.edge_w[eids],
            "rank_at_choosing": slot_rank[slot] + 1,
            "index_x": slot_x[slot] + 1,
            "index_y": slot_y[slot] + 1,
            "is_up": parent_edge_arr[choosing] == eids,
            "target_node": target,
            "target_fragment": target_frag,
            "level_of_fragment": levels[frag],
            "level_of_target_fragment": levels[target_frag],
            "choosing_dfs_index": partition.preorder_positions()[choosing] + 1,
        }
        phases.append(
            BoruvkaPhase(
                index=i,
                partition=partition,
                fragment_tree=ftree,
                active=active,
                selected_edge_ids=tuple(raw["new_edges"]),
                arrays=arrays,
            )
        )
        new_edges = raw["new_edges"]
        union = annotate_uf.union
        for a, b in zip(
            graph.edge_u[new_edges].tolist(), graph.edge_v[new_edges].tolist()
        ):
            union(a, b)
    return phases
