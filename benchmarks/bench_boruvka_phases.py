"""E5 — Figure 2: the structure of the Borůvka phases (Section 2.2).

The paper's Figure 2 illustrates one phase of the Borůvka variant:
active fragments, choosing nodes and the up/down orientation of selected
edges.  This benchmark regenerates the quantitative counterpart — the
per-phase fragment statistics — and checks the paper's Lemma 1 and
Lemma 2 on them:

* after phase ``i`` every fragment has at least ``2^i`` nodes;
* at phase ``i`` there are at most ``n / 2^{i-1}`` active fragments;
* the rank (``index_u``) of every selected edge at its choosing node is
  at most the fragment size;
* there are at most ``⌈log₂ n⌉`` phases in total.
"""

import math

from conftest import publish

from repro.analysis import format_table
from repro.graphs.generators import random_connected_graph
from repro.mst.boruvka import boruvka_trace


def _phase_rows(n=1024, seed=0, density=0.03):
    graph = random_connected_graph(n, density, seed=seed)
    trace = boruvka_trace(graph, root=0)
    rows = []
    for phase in trace.phases:
        sizes = phase.partition.sizes()
        ranks = [sel.rank_at_choosing for sel in phase.selections]
        rows.append(
            {
                "phase": phase.index,
                "fragments": phase.partition.num_fragments,
                "active": len(phase.active),
                "active_bound": n // 2 ** (phase.index - 1),
                "min_size": min(sizes),
                "max_size": max(sizes),
                "selected_edges": len(phase.selected_edge_ids),
                "up_selections": sum(1 for s in phase.selections if s.is_up),
                "down_selections": sum(1 for s in phase.selections if not s.is_up),
                "max_rank": max(ranks) if ranks else 0,
            }
        )
    return graph, trace, rows


def _run_experiment():
    return [_phase_rows(n=n, seed=s) for n, s in ((256, 1), (1024, 0), (4096, 2))]


def test_boruvka_phase_structure():
    results = _run_experiment()

    text = []
    for graph, trace, rows in results:
        text.append(
            format_table(
                rows,
                title=f"E5  Borůvka phase structure, random graph n={graph.n} m={graph.m}",
            )
        )
    publish("E5_boruvka_phases", "\n\n".join(text))

    for graph, trace, rows in results:
        n = graph.n
        assert trace.num_phases <= math.ceil(math.log2(n))
        for row in rows:
            i = row["phase"]
            # Lemma 1: sizes at the start of phase i are at least 2^(i-1),
            # and the number of active fragments is at most n / 2^(i-1)
            assert row["min_size"] >= 2 ** (i - 1)
            assert row["active"] <= n / 2 ** (i - 1)
            # Lemma 2 (distinct weights): rank of the selected edge <= fragment size
            assert row["max_rank"] <= row["max_size"]
        # the last phase ends with a single fragment
        final_partition = trace.partition_before_phase(trace.num_phases + 1)
        assert final_partition.num_fragments == 1
