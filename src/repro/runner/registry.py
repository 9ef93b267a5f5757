"""Names for problems, schemes, baselines and graph families.

The runner describes work declaratively — ``("theorem3", GraphSpec
("random", 0.05), n, seed)`` — so that a task can be pickled to a worker
process and hashed into a stable cache key.  Resolution goes through the
problem registry of :mod:`repro.core.problem`: a target is either a
*qualified* name (``"mst/theorem3"``, ``"leader/flag"``) or a bare name
resolved against a problem (the default problem ``mst`` when none is
given), so every pre-existing name keeps meaning what it meant.  The CLI
re-exports the tables so ``--scheme``/``--problem`` choices and runner
targets can never drift apart.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, NamedTuple, Optional, Union

from repro.core.oracle import AdvisingScheme
from repro.core.problem import (
    DEFAULT_PROBLEM,
    get_problem,
    problem_names,
    qualified_names,
    split_target,
)
from repro.distributed.base import DistributedBaseline, DistributedMSTBaseline
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    power_law_graph,
    random_connected_graph,
    random_geometric_graph,
    torus_graph,
)
from repro.graphs.lowerbound_family import build_gn
from repro.graphs.weighted_graph import PortNumberedGraph

__all__ = [
    "SCHEMES",
    "BASELINES",
    "BACKENDS",
    "GRAPH_FAMILIES",
    "problem_names",
    "qualified_names",
    "resolve_target",
    "resolve_scheme",
    "resolve_baseline",
    "Shape",
    "graph_shape",
    "build_graph",
]

#: execution backends a scheme task may request (see
#: :func:`repro.core.oracle.run_scheme`); baselines always use the engine
from repro.simulator.backends import BACKENDS  # noqa: E402  (re-export)

#: bare scheme name -> factory, for the default (MST) problem — the
#: historical tables, now views of the problem registry
SCHEMES: Dict[str, Callable[[], AdvisingScheme]] = dict(get_problem(DEFAULT_PROBLEM).schemes)

#: bare baseline name -> factory, for the default (MST) problem
BASELINES: Dict[str, Callable[[], DistributedBaseline]] = dict(
    get_problem(DEFAULT_PROBLEM).baselines
)

#: graph family names understood by :func:`build_graph` (the CLI's
#: ``--graph`` choices and the report specs' ``graph.family`` values)
GRAPH_FAMILIES = (
    "random",
    "complete",
    "cycle",
    "grid",
    "torus",
    "hypercube",
    "geometric",
    "powerlaw",
    "gn",
)


def resolve_target(
    kind: str,
    target: Union[str, AdvisingScheme, DistributedBaseline],
    problem: Optional[str] = None,
):
    """Turn a registry name into a scheme or baseline instance.

    ``kind`` is ``"scheme"`` or ``"baseline"``.  Instances pass through
    untouched.  Strings may be qualified (``"leader/flag"``) or bare
    (``"theorem3"``); bare names resolve against ``problem`` (default:
    ``mst``).  A qualifier that contradicts an explicit ``problem`` is an
    error, and unknown names are reported against the full
    problem-qualified vocabulary.

    >>> resolve_target("scheme", "theorem3").name
    'theorem3-main'
    >>> resolve_target("scheme", "leader/flag").name
    'leader-flag'
    >>> resolve_target("baseline", "flood", problem="wakeup").name
    'flood'
    """
    if kind not in ("scheme", "baseline"):
        raise ValueError(f"kind must be 'scheme' or 'baseline', got {kind!r}")
    if not isinstance(target, str):
        return target
    qualifier, bare = split_target(target)
    if qualifier is not None and problem is not None and qualifier != problem:
        raise ValueError(
            f"target {target!r} is qualified for problem {qualifier!r} "
            f"but problem {problem!r} was requested"
        )
    problem_obj = get_problem(qualifier or problem or DEFAULT_PROBLEM)
    table = problem_obj.schemes if kind == "scheme" else problem_obj.baselines
    try:
        return table[bare]()
    except KeyError:
        raise ValueError(
            f"unknown {kind} {target!r}; known: {', '.join(qualified_names(kind))}"
        ) from None


def resolve_scheme(
    scheme: Union[str, AdvisingScheme], problem: Optional[str] = None
) -> AdvisingScheme:
    """Turn a registry name into a scheme instance (instances pass through)."""
    return resolve_target("scheme", scheme, problem=problem)


def resolve_baseline(
    baseline: Union[str, DistributedMSTBaseline], problem: Optional[str] = None
) -> DistributedBaseline:
    """Turn a registry name into a baseline instance (instances pass through)."""
    return resolve_target("baseline", baseline, problem=problem)


class Shape(NamedTuple):
    """What a graph family realises for one requested size."""

    #: the generator's size argument: a node count, a square side, a
    #: hypercube dimension or a ``G_n`` clique size
    arg: int
    #: node count of the instance built from ``arg``
    n: int


def graph_shape(family: str, n: int) -> Shape:
    """The size rule of ``family``: the shape ``build_graph`` builds for ``n``.

    Five families realise exactly ``n`` nodes (``powerlaw`` at least
    2).  The structured ones round:

    * ``grid`` and ``torus`` round *down* to a square of side
      ``isqrt(n)`` (at least 2, resp. 3), so a torus asked for 15 nodes
      has 9, not 16;
    * ``hypercube`` rounds to the nearest power of two in log scale,
      ``2 ** round(log2(n))``, so 40 gives 32 but 48 gives 64;
    * ``gn`` rounds down to an even count: two cliques of ``n // 2``
      nodes (at least 2 each).

    Sizes a family's generator rejects (a cycle below 3 nodes, a
    hypercube above ``2^20``) still raise from :func:`build_graph`.
    Reading a size off this rule costs no build, which is how report
    rendering labels rows at the realised size without an instance.

    >>> graph_shape("torus", 15)
    Shape(arg=3, n=9)
    >>> [graph_shape("torus", 24).n, graph_shape("grid", 10).n]
    [16, 9]
    >>> [graph_shape("hypercube", 40).n, graph_shape("hypercube", 48).n]
    [32, 64]
    >>> [graph_shape("gn", 9).n, graph_shape("powerlaw", 1).n, graph_shape("random", 100).n]
    [8, 2, 100]
    """
    if family in ("grid", "torus"):
        side = max(2 if family == "grid" else 3, math.isqrt(n))
        return Shape(side, side * side)
    if family == "hypercube":
        dim = max(1, round(math.log2(max(n, 2))))
        return Shape(dim, 2**dim)
    if family == "gn":
        half = max(2, n // 2)
        return Shape(half, 2 * half)
    if family == "powerlaw":
        return Shape(max(n, 2), max(n, 2))
    if family in GRAPH_FAMILIES:
        return Shape(n, n)
    raise ValueError(f"unknown graph kind {family!r}; known: {', '.join(GRAPH_FAMILIES)}")


def build_graph(family: str, n: int, seed: int, density: float = 0.05) -> PortNumberedGraph:
    """Build one instance of a named graph family (shared with the CLI).

    ``n`` is a *requested* size: the instance has the shape
    :func:`graph_shape` gives for it, so structured families may realise
    a different node count.  ``density`` only shapes the ``random``
    family.

    >>> build_graph("hypercube", 30, seed=0).n  # rounded to 2^5
    32
    >>> build_graph("torus", 16, seed=0).n
    16
    """
    arg = graph_shape(family, n).arg
    if family == "random":
        return random_connected_graph(arg, min(1.0, density), seed=seed)
    if family == "complete":
        return complete_graph(arg, seed=seed)
    if family == "cycle":
        return cycle_graph(arg, seed=seed)
    if family == "grid":
        return grid_graph(arg, arg, seed=seed)
    if family == "torus":
        return torus_graph(arg, arg, seed=seed)
    if family == "hypercube":
        return hypercube_graph(arg, seed=seed)
    if family == "geometric":
        return random_geometric_graph(arg, seed=seed)
    if family == "powerlaw":
        return power_law_graph(arg, attach=2, seed=seed)
    # "gn": graph_shape has already rejected every unknown family
    return build_gn(arg, seed=seed).graph
