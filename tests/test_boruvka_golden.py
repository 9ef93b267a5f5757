"""Golden-trace regression and MST tie-breaking equivalence.

The Borůvka kernel was vectorised (segmented NumPy reductions replacing
the per-phase Python scan of the canonical edge order); its contract is
that :class:`~repro.mst.boruvka.BoruvkaTrace` stays **byte-identical**
to the historical per-fragment implementation.  Two enforcement layers:

* the ``GOLDEN`` fingerprints below were captured from the original
  (pre-vectorisation) kernel on three fixed instances and pin every
  selection field, partition, fragment tree and phase structure;
* a straightforward per-phase reference Borůvka (a transliteration of
  the historical loop) is compared against Kruskal, Prim and both
  vectorised entry points on adversarial instances: many equal-weight
  edges, duplicated node identifiers, and permuted ports.
"""

import hashlib

import numpy as np

from repro.graphs.generators import cycle_graph, grid_graph, random_connected_graph
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.boruvka import boruvka_mst, boruvka_trace
from repro.mst.kruskal import kruskal_mst
from repro.mst.prim import prim_mst
from repro.mst.rooted_tree import build_rooted_tree
from repro.mst.union_find import UnionFind
from repro.runner.registry import GRAPH_FAMILIES, build_graph

# captured from the pre-vectorisation kernel; regenerate only if the
# *specified* trace semantics change, never for a performance refactor
GOLDEN = {
  'random_n24_s3': {'root': 2, 'tree_edges': (0, 2, 3, 7, 9, 13, 14, 15, 16, 19, 20, 21, 24, 25, 27, 30, 32, 36, 42, 45, 46, 48, 51), 'parent': (1, 2, -1, 7, 0, 9, 1, 4, 6, 7, 0, 17, 4, 5, 8, 7, 4, 2, 12, 13, 23, 2, 15, 2), 'phases': ({'index': 1, 'fragment_of': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23), 'active': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23), 'selected_edge_ids': (0, 3, 7, 14, 16, 20, 21, 24, 27, 30, 36, 42, 45, 46, 48, 51), 'ftree_parent': (1, 2, -1, 7, 0, 9, 1, 4, 6, 7, 0, 17, 4, 5, 8, 7, 4, 2, 12, 13, 23, 2, 15, 2), 'ftree_depth': (2, 1, 0, 5, 3, 6, 2, 4, 3, 5, 3, 2, 4, 7, 4, 5, 4, 1, 5, 8, 2, 1, 6, 1), 'selections': ((1, 0, 1, 0, 0, 5, 4.0, 1, (1, 1), True, 1, 1, 0, 1, 1), (1, 1, 1, 1, 0, 1, 4.0, 1, (1, 1), False, 0, 0, 1, 0, 1), (1, 2, 1, 2, 7, 1, 5.0, 1, (1, 1), False, 1, 1, 0, 1, 1), (1, 3, 1, 3, 16, 0, 31.0, 1, (1, 1), True, 7, 7, 1, 0, 1), (1, 4, 1, 4, 21, 3, 10.0, 1, (1, 1), False, 16, 16, 1, 0, 1), (1, 5, 1, 5, 24, 4, 26.0, 1, (1, 1), True, 9, 9, 0, 1, 1), (1, 6, 1, 6, 27, 1, 19.0, 1, (1, 1), False, 8, 8, 0, 1, 1), (1, 7, 1, 7, 30, 5, 6.0, 1, (1, 1), False, 9, 9, 0, 1, 1), (1, 8, 1, 8, 36, 3, 1.0, 1, (1, 1), False, 14, 14, 1, 0, 1), (1, 9, 1, 9, 30, 1, 6.0, 1, (1, 1), True, 7, 7, 1, 0, 1), (1, 10, 1, 10, 3, 2, 11.0, 1, (1, 1), True, 0, 0, 1, 0, 1), (1, 11, 1, 11, 42, 0, 7.0, 1, (1, 1), True, 17, 17, 0, 1, 1), (1, 12, 1, 12, 20, 2, 14.0, 1, (1, 1), True, 4, 4, 0, 1, 1), (1, 13, 1, 13, 46, 0, 22.0, 1, (1, 1), False, 19, 19, 1, 0, 1), (1, 14, 1, 14, 36, 1, 1.0, 1, (1, 1), True, 8, 8, 0, 1, 1), (1, 15, 1, 15, 48, 0, 2.0, 1, (1, 1), False, 22, 22, 1, 0, 1), (1, 16, 1, 16, 21, 0, 10.0, 1, (1, 1), True, 4, 4, 0, 1, 1), (1, 17, 1, 17, 42, 1, 7.0, 1, (1, 1), False, 11, 11, 1, 0, 1), (1, 18, 1, 18, 45, 0, 23.0, 1, (1, 1), True, 12, 12, 1, 0, 1), (1, 19, 1, 19, 46, 2, 22.0, 1, (1, 1), True, 13, 13, 0, 1, 1), (1, 20, 1, 20, 51, 1, 3.0, 1, (1, 1), True, 23, 23, 0, 1, 1), (1, 21, 1, 21, 14, 2, 8.0, 1, (1, 1), True, 2, 2, 1, 0, 1), (1, 22, 1, 22, 48, 1, 2.0, 1, (1, 1), True, 15, 15, 0, 1, 1), (1, 23, 1, 23, 51, 0, 3.0, 1, (1, 1), False, 20, 20, 1, 0, 1))}, {'index': 2, 'fragment_of': (0, 0, 0, 1, 2, 1, 3, 1, 3, 1, 0, 4, 2, 5, 3, 6, 2, 4, 2, 5, 7, 0, 6, 7), 'active': (3, 4, 5, 6, 7), 'selected_edge_ids': (9, 13, 15, 25, 32), 'ftree_parent': (-1, 2, 0, 0, 0, 1, 1, 0), 'ftree_depth': (0, 2, 1, 1, 1, 3, 3, 1), 'selections': ((2, 3, 3, 6, 9, 3, 21.0, 2, (2, 1), True, 1, 0, 1, 0, 1), (2, 4, 2, 17, 13, 3, 9.0, 2, (2, 1), True, 2, 0, 1, 0, 1), (2, 5, 2, 13, 25, 1, 27.0, 2, (2, 1), True, 5, 1, 1, 0, 1), (2, 6, 2, 15, 32, 1, 17.0, 2, (2, 1), True, 7, 1, 1, 0, 1), (2, 7, 2, 23, 15, 4, 12.0, 2, (2, 1), True, 2, 0, 1, 0, 1))}, {'index': 3, 'fragment_of': (0, 0, 0, 1, 2, 1, 0, 1, 0, 1, 0, 0, 2, 1, 0, 1, 2, 0, 2, 1, 0, 0, 1, 0), 'active': (2,), 'selected_edge_ids': (19,), 'ftree_parent': (-1, 2, 0), 'ftree_depth': (0, 2, 1), 'selections': ((3, 2, 4, 4, 19, 0, 15.0, 3, (3, 1), False, 7, 1, 1, 0, 1),)}, {'index': 4, 'fragment_of': (0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0), 'active': (0, 1), 'selected_edge_ids': (2,), 'ftree_parent': (-1, 0), 'ftree_depth': (0, 1), 'selections': ((4, 0, 12, 0, 2, 6, 16.0, 4, (4, 1), False, 4, 1, 0, 1, 3), (4, 1, 12, 4, 2, 1, 16.0, 4, (4, 1), True, 0, 0, 1, 0, 1))})},
  'grid_4x4': {'root': 0, 'tree_edges': (0, 2, 3, 4, 7, 10, 12, 13, 14, 15, 16, 17, 18, 20, 22), 'parent': (-1, 0, 1, 2, 5, 1, 10, 11, 9, 5, 9, 10, 8, 9, 13, 11), 'phases': ({'index': 1, 'fragment_of': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15), 'active': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15), 'selected_edge_ids': (0, 2, 4, 7, 10, 12, 13, 14, 15, 16, 17, 20, 22), 'ftree_parent': (-1, 0, 1, 2, 5, 1, 10, 11, 9, 5, 9, 10, 8, 9, 13, 11), 'ftree_depth': (0, 1, 2, 3, 3, 2, 5, 6, 4, 3, 4, 5, 5, 4, 5, 6), 'selections': ((1, 0, 1, 0, 0, 0, 2.0, 1, (1, 1), False, 1, 1, 0, 1, 1), (1, 1, 1, 1, 0, 0, 2.0, 1, (1, 1), True, 0, 0, 1, 0, 1), (1, 2, 1, 2, 2, 0, 8.0, 1, (1, 1), True, 1, 1, 0, 1, 1), (1, 3, 1, 3, 4, 0, 17.0, 1, (1, 1), True, 2, 2, 1, 0, 1), (1, 4, 1, 4, 7, 1, 16.0, 1, (1, 1), True, 5, 5, 1, 0, 1), (1, 5, 1, 5, 10, 3, 3.0, 1, (1, 1), False, 9, 9, 0, 1, 1), (1, 6, 1, 6, 12, 3, 11.0, 1, (1, 1), True, 10, 10, 1, 0, 1), (1, 7, 1, 7, 13, 2, 4.0, 1, (1, 1), True, 11, 11, 0, 1, 1), (1, 8, 1, 8, 14, 1, 5.0, 1, (1, 1), True, 9, 9, 0, 1, 1), (1, 9, 1, 9, 17, 3, 1.0, 1, (1, 1), False, 13, 13, 1, 0, 1), (1, 10, 1, 10, 16, 1, 9.0, 1, (1, 1), True, 9, 9, 0, 1, 1), (1, 11, 1, 11, 13, 0, 4.0, 1, (1, 1), False, 7, 7, 1, 0, 1), (1, 12, 1, 12, 15, 0, 6.0, 1, (1, 1), True, 8, 8, 1, 0, 1), (1, 13, 1, 13, 17, 0, 1.0, 1, (1, 1), True, 9, 9, 0, 1, 1), (1, 14, 1, 14, 22, 1, 7.0, 1, (1, 1), True, 13, 13, 1, 0, 1), (1, 15, 1, 15, 20, 0, 19.0, 1, (1, 1), True, 11, 11, 0, 1, 1))}, {'index': 2, 'fragment_of': (0, 0, 0, 0, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2), 'active': (2,), 'selected_edge_ids': (18,), 'ftree_parent': (-1, 0, 1), 'ftree_depth': (0, 1, 2), 'selections': ((2, 2, 3, 11, 18, 1, 10.0, 2, (2, 1), True, 10, 1, 0, 1, 1),)}, {'index': 3, 'fragment_of': (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 'active': (0,), 'selected_edge_ids': (3,), 'ftree_parent': (-1, 0), 'ftree_depth': (0, 1), 'selections': ((3, 0, 4, 1, 3, 2, 18.0, 3, (3, 1), False, 5, 1, 0, 1, 2),)})},
  'cycle_13': {'root': 0, 'tree_edges': (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12), 'parent': (-1, 0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 0), 'phases': ({'index': 1, 'fragment_of': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'active': (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), 'selected_edge_ids': (0, 2, 3, 4, 5, 7, 8, 9, 10, 12), 'ftree_parent': (-1, 0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 0), 'ftree_depth': (0, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1), 'selections': ((1, 0, 1, 0, 12, 1, 2.0, 1, (1, 1), False, 12, 12, 0, 1, 1), (1, 1, 1, 1, 0, 0, 3.0, 1, (1, 1), True, 0, 0, 1, 0, 1), (1, 2, 1, 2, 2, 1, 8.0, 1, (1, 1), False, 3, 3, 0, 1, 1), (1, 3, 1, 3, 3, 1, 1.0, 1, (1, 1), False, 4, 4, 1, 0, 1), (1, 4, 1, 4, 3, 0, 1.0, 1, (1, 1), True, 3, 3, 0, 1, 1), (1, 5, 1, 5, 4, 0, 7.0, 1, (1, 1), True, 4, 4, 1, 0, 1), (1, 6, 1, 6, 5, 0, 10.0, 1, (1, 1), True, 5, 5, 0, 1, 1), (1, 7, 1, 7, 7, 1, 12.0, 1, (1, 1), True, 8, 8, 0, 1, 1), (1, 8, 1, 8, 8, 1, 6.0, 1, (1, 1), True, 9, 9, 1, 0, 1), (1, 9, 1, 9, 9, 1, 4.0, 1, (1, 1), True, 10, 10, 0, 1, 1), (1, 10, 1, 10, 9, 0, 4.0, 1, (1, 1), False, 9, 9, 1, 0, 1), (1, 11, 1, 11, 10, 0, 5.0, 1, (1, 1), False, 10, 10, 0, 1, 1), (1, 12, 1, 12, 12, 1, 2.0, 1, (1, 1), True, 0, 0, 1, 0, 1))}, {'index': 2, 'fragment_of': (0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 0), 'active': (0,), 'selected_edge_ids': (11,), 'ftree_parent': (-1, 0, 0), 'ftree_depth': (0, 1, 1), 'selections': ((2, 0, 3, 12, 11, 0, 9.0, 2, (2, 1), False, 11, 2, 0, 1, 2),)}, {'index': 3, 'fragment_of': (0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0), 'active': (1,), 'selected_edge_ids': (1,), 'ftree_parent': (-1, 0), 'ftree_depth': (0, 1), 'selections': ((3, 1, 5, 2, 1, 0, 11.0, 2, (2, 1), True, 1, 0, 1, 0, 1),)})},
}
GOLDEN_MST = {
  'random_n24_s3': [0, 2, 3, 7, 9, 13, 14, 15, 16, 19, 20, 21, 24, 25, 27, 30, 32, 36, 42, 45, 46, 48, 51],
  'grid_4x4': [0, 2, 3, 4, 7, 10, 12, 13, 14, 15, 16, 17, 18, 20, 22],
  'cycle_13': [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12],
}


def _fingerprint(trace):
    phases = []
    for ph in trace.phases:
        phases.append({
            "index": ph.index,
            "fragment_of": tuple(ph.partition.fragment_of_array().tolist()),
            "active": ph.active,
            "selected_edge_ids": ph.selected_edge_ids,
            "ftree_parent": tuple(ph.fragment_tree.parent_fragment.tolist()),
            "ftree_depth": tuple(ph.fragment_tree.depth.tolist()),
            "selections": tuple(
                (s.phase, s.fragment, s.fragment_size, s.choosing_node, s.selected_edge,
                 s.port_at_choosing, s.weight, s.rank_at_choosing, s.index_pair, s.is_up,
                 s.target_node, s.target_fragment, s.level_of_fragment,
                 s.level_of_target_fragment, s.choosing_dfs_index)
                for s in ph.selections),
        })
    return {
        "root": trace.root,
        "tree_edges": tuple(trace.tree.edge_ids.tolist()),
        "parent": tuple(trace.tree.parent.tolist()),
        "phases": tuple(phases),
    }


def _cases():
    return {
        "random_n24_s3": (random_connected_graph(24, 0.15, seed=3), 2),
        "grid_4x4": (grid_graph(4, 4, seed=1), 0),
        "cycle_13": (cycle_graph(13, seed=2), 0),
    }


def test_trace_is_byte_identical_to_golden():
    for name, (graph, root) in _cases().items():
        assert _fingerprint(boruvka_trace(graph, root=root)) == GOLDEN[name], name


def test_mst_is_byte_identical_to_golden():
    for name, (graph, _root) in _cases().items():
        assert boruvka_mst(graph) == GOLDEN_MST[name], name


# --------------------------------------------------------------------- #
# tie-breaking equivalence on adversarial instances
# --------------------------------------------------------------------- #


def _reference_boruvka(graph):
    """The historical per-phase scan, kept as an executable specification."""
    import numpy as np

    uf = UnionFind(graph.n)
    tree = set()
    order = np.lexsort((np.arange(graph.m), graph.edge_w))
    while uf.component_count > 1:
        best = {}
        for eid in order:
            eid = int(eid)
            ru = uf.find(int(graph.edge_u[eid]))
            rv = uf.find(int(graph.edge_v[eid]))
            if ru == rv:
                continue
            if ru not in best:
                best[ru] = eid
            if rv not in best:
                best[rv] = eid
        for eid in best.values():
            if uf.union(int(graph.edge_u[eid]), int(graph.edge_v[eid])):
                tree.add(eid)
    return sorted(tree)


def _equal_weight_graph(n, seed, weights=(1.0, 2.0), duplicate_ids=False):
    import random

    rng = random.Random(seed)
    edges = [(i, i + 1, rng.choice(weights)) for i in range(n - 1)]
    seen = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v, rng.choice(weights)))
    node_ids = [7] * n if duplicate_ids else None  # IDs need not be unique
    return PortNumberedGraph(n, edges, node_ids=node_ids)


def test_tiebreaking_equivalence_with_duplicate_weights():
    for seed in range(5):
        for n in (8, 21, 40):
            graph = _equal_weight_graph(n, seed, duplicate_ids=(seed % 2 == 0))
            reference = _reference_boruvka(graph)
            assert kruskal_mst(graph) == reference
            assert prim_mst(graph) == reference
            assert boruvka_mst(graph) == reference
            assert boruvka_trace(graph).mst_edge_ids() == reference


def test_tiebreaking_equivalence_all_weights_equal():
    # the hardest case: every edge weighs the same, so only the edge-id
    # tie-break decides; all algorithms must agree on one reference tree
    graph = _equal_weight_graph(24, seed=9, weights=(1.0,), duplicate_ids=True)
    reference = _reference_boruvka(graph)
    assert kruskal_mst(graph) == reference
    assert prim_mst(graph) == reference
    assert boruvka_mst(graph) == reference
    assert boruvka_trace(graph).mst_edge_ids() == reference


def test_tiebreaking_stable_under_port_relabelling():
    # port numbers must not influence the reference MST (the canonical
    # order is (weight, edge id), not (weight, port))
    graph = _equal_weight_graph(16, seed=4)
    relabelled = graph.relabel_ports(
        {u: list(reversed(range(graph.degree(u)))) for u in range(graph.n)}
    )
    assert boruvka_mst(relabelled) == boruvka_mst(graph)
    assert kruskal_mst(relabelled) == kruskal_mst(graph)


def test_selection_order_is_deterministic():
    # FragmentSelection records appear in fragment-index order, so twice
    # the same run gives identical phases object-for-object
    graph, root = _cases()["random_n24_s3"]
    a = _fingerprint(boruvka_trace(graph, root=root))
    b = _fingerprint(boruvka_trace(graph, root=root))
    assert a == b


# --------------------------------------------------------------------- #
# every registry family, beyond the three golden instances
# --------------------------------------------------------------------- #

#: sha256 of :func:`_trace_digest`, taken from the trace loop that merged
#: edge by edge with a union-find
TRACE_FINGERPRINT = "fedd2f414af5ca0cd9c2bd29d2665c960dc5aa097e4c926ef57a0fb5c32693e7"

FINGERPRINT_SIZES = (8, 16, 33, 64, 128, 300)


def _registry_traces():
    for family in GRAPH_FAMILIES:
        for n in FINGERPRINT_SIZES:
            for seed in range(3):
                graph = build_graph(family, n, seed=seed)
                yield graph, boruvka_trace(graph, root=seed % graph.n)


def _update(digest, values, dtype=np.int64):
    array = np.asarray(values, dtype=dtype)
    digest.update(array.dtype.str.encode())
    digest.update(array.tobytes())


def _trace_digest():
    digest = hashlib.sha256()
    for graph, trace in _registry_traces():
        digest.update(f"{graph.n} {trace.root} {trace.num_phases}".encode())
        _update(digest, trace.tree.parent)
        _update(digest, trace.tree.edge_ids)
        for ph in trace.phases:
            _update(digest, ph.partition.fragment_of_array())
            _update(digest, ph.active)
            _update(digest, ph.selected_edge_ids)
            _update(digest, ph.fragment_tree.parent_fragment)
            _update(digest, ph.fragment_tree.depth)
            by_fragment = np.argsort(ph.arrays["fragment"], kind="stable")
            for name in sorted(ph.arrays):
                column = ph.arrays[name][by_fragment]
                _update(digest, column, dtype=column.dtype)
    return digest.hexdigest()


def test_registry_traces_match_the_pinned_fingerprint():
    """Partitions, active sets, selected edges, fragment trees, selection
    columns (by fragment) and rooted trees of every registry family."""
    assert _trace_digest() == TRACE_FINGERPRINT


def test_selection_columns_are_in_fragment_order():
    for _graph, trace in _registry_traces():
        for ph in trace.phases:
            assert np.all(np.diff(ph.arrays["fragment"]) > 0), ph.index


# --------------------------------------------------------------------- #
# rooted trees and slot orders under tied, float, signed-zero and NaN
# weights, with shuffled ports
# --------------------------------------------------------------------- #

#: sha256 of :func:`_tree_digest`, taken from the breadth-first rooting,
#: the stack preorder and the lexsort slot and edge orders
TREE_FINGERPRINT = "a4c79ef512a2ba67df392c5fd7279c2aefd698559e1e7582fb2b6c1d4799db03"

TREE_SIZES = (8, 33, 128)


def _weight_variants(graph, rng):
    m = graph.m
    yield graph.edge_w
    yield rng.integers(1, 3, m).astype(np.float64)  # tied integers in 1..2
    yield rng.random(m)  # uniform floats
    yield rng.choice([-0.0, 0.0, 1.0], m)  # -0.0 ties 0.0
    yield rng.choice([np.nan, 1.0, 2.0], m)  # NaNs tie each other, above all numbers


def _tie_graphs():
    for k, family in enumerate(GRAPH_FAMILIES):
        for n in TREE_SIZES:
            for seed in range(2):
                base = build_graph(family, n, seed=seed)
                rng = np.random.default_rng([k, n, seed])
                ports = {
                    u: rng.permutation(d).tolist() for u, d in enumerate(base.degrees().tolist())
                }
                for weights in _weight_variants(base, rng):
                    edges = [(u, v, w) for (u, v, _), w in zip(base.edge_list(), weights.tolist())]
                    yield PortNumberedGraph(base.n, edges, port_permutations=ports), seed % base.n


def _tree_digest():
    digest = hashlib.sha256()
    for graph, root in _tie_graphs():
        tree = build_rooted_tree(graph, kruskal_mst(graph), root=root)
        digest.update(f"{graph.n} {root}".encode())
        for field in (
            tree.parent,
            tree.parent_edge,
            tree.parent_port,
            tree.depth,
            tree.edge_ids,
            tree.preorder(),
            tree.preorder_index(),
            tree.subtree_span(),
        ):
            _update(digest, field)
        kids = [tree.children(u) for u in range(graph.n)]
        _update(digest, [len(group) for group in kids])
        _update(digest, [c for group in kids for c in group])
        for column in graph._slot_orders():  # rank, x - 1, y - 1
            _update(digest, column)
        for ph in boruvka_trace(graph, root=root).phases:
            _update(digest, ph.arrays["selected_edge"])
            _update(digest, ph.arrays["choosing_node"])
    return digest.hexdigest()


def test_tied_weight_trees_match_the_pinned_fingerprint():
    """Every rooted-tree field, the children, the slot orders and the
    Borůvka selections, on every registry family under five weightings."""
    assert _tree_digest() == TREE_FINGERPRINT
