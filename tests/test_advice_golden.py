"""Pin the advice bits of every registered scheme.

:class:`~repro.core.advice.AdviceAssignment` is the currency the paper
counts, and the oracles that write it are rewritten for speed from time
to time.  A sha256 over every node's advice string and the assignment's
``stats()`` — for every registered scheme, every registry family at a
few sizes and seeds, one tied-weight graph and the two smallest graphs —
makes any change of a single bit visible.  A scheme that rejects an
instance contributes its error message instead.
"""

import hashlib

from repro.graphs.generators import random_connected_graph
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.runner.registry import GRAPH_FAMILIES, build_graph, qualified_names, resolve_scheme

#: sha256 of :func:`_advice_digest`, taken from the per-node tuple storage
#: the packed bit array replaced
ADVICE_FINGERPRINT = "f6428ce0c0cef206f4baaa57acb4e2637c252d31a690791ab2de3f7d9bb767a6"

FINGERPRINT_SIZES = (8, 33, 64)


def _instances():
    for family in GRAPH_FAMILIES:
        for n in FINGERPRINT_SIZES:
            for seed in range(3):
                graph = build_graph(family, n, seed=seed)
                yield f"{family} {n} {seed}", graph, seed % graph.n
    tied = random_connected_graph(40, 0.15, seed=3, weight_mode="integer", weight_range=3)
    yield "tied", tied, 5
    yield "single", PortNumberedGraph(1, []), 0
    yield "edge", PortNumberedGraph(2, [(0, 1, 1.0)]), 1


def _advice_digest():
    digest = hashlib.sha256()
    for label, graph, root in _instances():
        for name in qualified_names("scheme"):
            digest.update(f"{label} {root} {name}\n".encode())
            try:
                advice = resolve_scheme(name).compute_advice(graph, root=root)
            except ValueError as exc:
                digest.update(f"error {exc}\n".encode())
                continue
            for u in range(graph.n):
                digest.update(advice.get(u).to01().encode() + b",")
            digest.update(repr(sorted(advice.stats().as_dict().items())).encode())
    return digest.hexdigest()


def test_registry_advice_matches_the_pinned_fingerprint():
    assert _advice_digest() == ADVICE_FINGERPRINT


if __name__ == "__main__":  # print the current value for a diff
    print(_advice_digest())
