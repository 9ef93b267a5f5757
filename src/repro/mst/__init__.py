"""Sequential MST algorithms and the Borůvka fragment machinery.

This subpackage is the *reference* side of the reproduction: the oracles
of the advising schemes (``repro.core``) run these algorithms on the
whole instance to decide what advice to hand out, and the verifiers use
them to check distributed outputs.

Contents
--------

``union_find``
    A rank + path-compression disjoint-set forest (Kruskal and the
    spanning-tree checks).
``kruskal`` / ``prim``
    Classic sequential MST algorithms under the canonical
    ``(weight, edge_id)`` total order, so that all components of the
    library agree on one reference MST ``T*`` even with duplicate
    weights.
``rooted_tree``
    Rooted-tree representation of an MST: parent pointers, parent ports,
    depths, up/down edge orientation (Section 2.2 of the paper).
``boruvka``
    The paper's Borůvka variant (Section 2.2): a fragment is *active* at
    phase ``i`` iff its size is ``< 2^i``; every active fragment selects
    its minimum outgoing MST edge; the full per-phase trace (fragments,
    choosing nodes, selected edges, levels) is recorded for the oracles.
    Its loop and classic Borůvka share one hook-and-jump merge per phase.
``fragments``
    Fragment forests: membership, induced subtrees ``T_F``, fragment
    roots ``r_F``, DFS orders, the contracted fragment tree ``T_i`` and
    its levels.
``verify``
    MST verification (weight comparison + cut/cycle properties) and
    rooted-tree validity checks.
"""

from repro.mst.union_find import UnionFind
from repro.mst.kruskal import kruskal_mst
from repro.mst.prim import prim_mst
from repro.mst.rooted_tree import RootedSpanningTree, build_rooted_tree
from repro.mst.boruvka import (
    BoruvkaPhase,
    BoruvkaTrace,
    FragmentSelection,
    boruvka_mst,
    boruvka_trace,
)
from repro.mst.fragments import FragmentPartition, FragmentTree
from repro.mst.verify import (
    is_minimum_spanning_tree,
    is_spanning_tree,
    verify_cycle_property,
    verify_cut_property,
)

__all__ = [
    "UnionFind",
    "kruskal_mst",
    "prim_mst",
    "RootedSpanningTree",
    "build_rooted_tree",
    "BoruvkaPhase",
    "BoruvkaTrace",
    "FragmentSelection",
    "boruvka_mst",
    "boruvka_trace",
    "FragmentPartition",
    "FragmentTree",
    "is_minimum_spanning_tree",
    "is_spanning_tree",
    "verify_cycle_property",
    "verify_cut_property",
]
