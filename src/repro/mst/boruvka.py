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

Both loops keep one representative label per node and merge each
phase's selections with the same vectorised hook-and-jump
(:func:`_hook_and_jump`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from repro.graphs.weighted_graph import PortNumberedGraph, canonical_edge_order, weight_ranks
from repro.mst.fragments import FragmentPartition, FragmentTree
from repro.mst.rooted_tree import RootedSpanningTree, build_rooted_tree, graph_of

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
        arrays: Dict[str, np.ndarray],
    ):
        self.index = index
        self.partition = partition
        self.fragment_tree = fragment_tree
        self.active = active
        #: de-duplicated edge ids selected at this phase
        self.selected_edge_ids = selected_edge_ids
        #: per-selection columns named after the :class:`FragmentSelection`
        #: fields (``index_pair`` split into ``index_x`` and ``index_y``),
        #: ordered by fragment index
        self.arrays = arrays
        self._selections = None

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

    def partition_before_phase(self, i: int) -> FragmentPartition:
        """The fragment partition at the beginning of phase ``i`` (1-based).

        For ``i`` beyond the last phase this is the partition the final
        phase leaves: one fragment holding every node.
        """
        if 1 <= i <= len(self.phases):
            return self.phases[i - 1].partition
        return self._final_partition

    @cached_property
    def _final_partition(self) -> FragmentPartition:
        # one object for every ``i`` past the end: the analytic backend
        # asks for it once per remaining phase window and once more for
        # the final collection
        return FragmentPartition(
            self.tree, np.zeros(self.tree.n, dtype=np.int64), num_fragments=1
        )

    def mst_edge_ids(self) -> List[int]:
        """Edge ids of the MST produced by the run (the reference tree's edges)."""
        return self.tree.edge_ids.tolist()


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


def _hook_and_jump(
    graph: PortNumberedGraph,
    labels: np.ndarray,
    frags: np.ndarray,
    edge_ids: np.ndarray,
    nodes: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Merge one phase's selections: ``(new labels, number of merges)``.

    Fragment ``frags[k]`` (a representative) selected edge
    ``edge_ids[k]`` at its node ``nodes[k]``; every such fragment hooks
    onto the fragment across its edge, and fragments that selected
    nothing stay roots.  Under one global total order the hooks form a
    forest plus, per merged fragment, one edge selected from both sides;
    the smaller representative of that mutual pair becomes the root.
    Pointer jumping then flattens every tree onto its root, and each
    distinct selected edge is one merge.
    """
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
    return parent[labels], edge_ids.size - roots.size


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
    order = canonical_edge_order(graph.edge_w)
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
        labels, merges = _hook_and_jump(graph, labels, frags, edge_ids, nodes)
        fragments -= merges


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


def boruvka_trace(graph: PortNumberedGraph, root: int = 0) -> BoruvkaTrace:
    """Run the paper's active/passive Borůvka variant and record everything.

    Parameters
    ----------
    graph:
        The instance (must be connected).
    root:
        The node chosen as the root ``r`` of the resulting MST; the
        up/down orientation of selected edges and the fragment levels are
        defined relative to ``r``.
    """
    if not graph.is_connected():
        raise ValueError("MST is undefined on a disconnected graph")
    if not 0 <= root < graph.n:
        raise ValueError("root out of range")

    # traces are memoised per (graph, root): the trace is a pure function
    # of the immutable instance, and every trace-driven scheme (theorem2 /
    # theorem3 / theorem3-level) plus the analytic backend asks for the
    # same one when run over the same instance
    memo = getattr(graph, "_trace_cache", None)
    if memo is None:
        memo = {}
        graph._trace_cache = memo
    cached = memo.get(root)
    if cached is not None:
        return cached

    # the annotation reads the slot orders; one ranking of the weights
    # serves them and the canonical order
    ranks = weight_ranks(graph.edge_w)
    graph._slot_orders(ranks)
    order = canonical_edge_order(graph.edge_w, ranks)
    del ranks
    sorted_u = graph.edge_u[order]
    sorted_v = graph.edge_v[order]

    # ---------- raw phase loop (membership + selections only) ----------
    labels = np.arange(graph.n, dtype=np.int64)  # a representative per node
    fragments = graph.n
    raw_phases: List[Dict] = []
    phase_index = 0
    while fragments > 1:
        phase_index += 1
        sizes = np.bincount(labels, minlength=graph.n)

        # first outgoing edge in canonical order, per active fragment
        # (arrays are ordered by representative; ``_annotate_phases``
        # puts them in fragment-index order)
        frags, edge_ids, nodes = _minimum_outgoing_edges(
            graph.n, graph.edge_u, graph.edge_v, labels, sorted_u, sorted_v, order
        )
        active = sizes[frags] < (1 << phase_index)
        frags, edge_ids, nodes = frags[active], edge_ids[active], nodes[active]

        # an edge both of its fragments selected appears twice
        new_edges = np.sort(edge_ids)
        new_edges = new_edges[np.diff(new_edges, prepend=-1) != 0]
        raw_phases.append(
            {
                "index": phase_index,
                "reps": labels,
                "sel_eids": edge_ids,
                "sel_nodes": nodes,
                "new_edges": new_edges,
            }
        )
        labels, merges = _hook_and_jump(graph, labels, frags, edge_ids, nodes)
        fragments -= merges
        if phase_index > graph.n:  # pragma: no cover - safety net
            raise RuntimeError("Borůvka did not converge")

    # a selected edge joins two fragments, so no phase selects it again
    mst_edges = np.sort(
        np.concatenate([raw["new_edges"] for raw in raw_phases] or [np.empty(0, np.int64)])
    )
    if mst_edges.size != graph.n - 1:  # pragma: no cover - internal invariant
        raise RuntimeError("Borůvka produced a non-spanning edge set")
    # the Borůvka MST equals the Kruskal MST under the shared canonical
    # order; seeding the memo spares the non-trace schemes and the
    # verifier a full Kruskal pass over the same instance
    if getattr(graph, "_kruskal_cache", None) is None:
        graph._kruskal_cache = tuple(mst_edges.tolist())
    tree = build_rooted_tree(graph, mst_edges, root=root)

    phases = _annotate_phases(graph, tree, raw_phases)
    trace = BoruvkaTrace(graph_ref=weakref.ref(graph), root=root, tree=tree, phases=phases)
    memo[root] = trace
    return trace


def _annotate_phases(
    graph: PortNumberedGraph,
    tree: RootedSpanningTree,
    raw_phases: List[Dict],
) -> List[BoruvkaPhase]:
    """Turn raw per-phase selections into fully annotated :class:`BoruvkaPhase`\\ s.

    Each phase's partition is one bulk pass over the representatives the
    raw loop recorded at the start of that phase; the selections are put
    in fragment-index order, and every per-selection field (ports,
    ranks, index pairs, orientations, levels, DFS indices) is gathered
    with one vectorised pass per phase.
    """
    phases: List[BoruvkaPhase] = []
    slot_rank, slot_x, slot_y = graph._slot_orders()
    offsets = graph._offsets
    for raw in raw_phases:
        i = raw["index"]
        partition = FragmentPartition.from_roots(tree, raw["reps"])
        ftree = partition.fragment_tree()
        active = tuple(partition.active_fragments(i))
        frag_of = partition.fragment_of_array()
        # one selection per fragment, so its fragment index is its sort key
        frag = frag_of[raw["sel_nodes"]]
        by_fragment = np.argsort(frag)
        frag = frag[by_fragment]
        eids = raw["sel_eids"][by_fragment]
        choosing = raw["sel_nodes"][by_fragment]
        at_u = graph.edge_u[eids] == choosing
        target = np.where(at_u, graph.edge_v[eids], graph.edge_u[eids])
        port = np.where(at_u, graph.edge_port_u[eids], graph.edge_port_v[eids])
        slot = offsets[choosing] + port
        counts = partition.fragment_sizes_array()
        levels = ftree.depth % 2
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
            "is_up": tree.parent_edge[choosing] == eids,
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
                selected_edge_ids=tuple(raw["new_edges"].tolist()),
                arrays=arrays,
            )
        )
    return phases
