"""repro — reproduction of "Local MST computation with short advice" (SPAA 2007).

The library implements the paper's advising schemes for distributed
Minimum Spanning Tree computation together with every substrate they
need: a port-numbered weighted-graph model, sequential MST algorithms
and the Borůvka fragment machinery, a synchronous LOCAL/CONGEST
message-passing simulator, and no-advice distributed MST baselines.
The advising framework itself is problem-agnostic: :mod:`repro.problems`
hosts further instantiations (leader election, wake-up/broadcast,
spanning-tree verification) on the same engine and runner.

Quickstart
----------

>>> from repro import random_connected_graph, ShortAdviceScheme, run_scheme
>>> graph = random_connected_graph(64, 0.05, seed=1)
>>> report = run_scheme(ShortAdviceScheme(), graph, root=0)
>>> report.correct
True

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
per-theorem reproduction results.
"""

from repro.graphs import (
    PortNumberedGraph,
    LocalView,
    build_gn,
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    fooling_family,
    grid_graph,
    hypercube_graph,
    path_graph,
    power_law_graph,
    random_connected_graph,
    random_geometric_graph,
    random_spanning_tree_graph,
    star_graph,
    torus_graph,
)
from repro.mst import (
    boruvka_mst,
    boruvka_trace,
    build_rooted_tree,
    kruskal_mst,
    prim_mst,
)
from repro.core import (
    AdviceAssignment,
    AdvisingScheme,
    AverageConstantScheme,
    BitString,
    LevelAdviceScheme,
    Problem,
    SchemeReport,
    ShortAdviceScheme,
    TrivialRankScheme,
    check_outputs,
    get_problem,
    problem_names,
    register_problem,
    run_scheme,
)
from repro.simulator import RunMetrics, run_sync
from repro.runner import GraphSpec, SweepTask, run_tasks

__version__ = "2.0.0"

__all__ = [
    "__version__",
    # graphs
    "PortNumberedGraph",
    "LocalView",
    "build_gn",
    "caterpillar_graph",
    "complete_graph",
    "cycle_graph",
    "fooling_family",
    "grid_graph",
    "hypercube_graph",
    "path_graph",
    "power_law_graph",
    "random_connected_graph",
    "random_geometric_graph",
    "random_spanning_tree_graph",
    "star_graph",
    "torus_graph",
    # mst
    "boruvka_mst",
    "boruvka_trace",
    "build_rooted_tree",
    "kruskal_mst",
    "prim_mst",
    # core
    "AdviceAssignment",
    "AdvisingScheme",
    "AverageConstantScheme",
    "BitString",
    "LevelAdviceScheme",
    "Problem",
    "SchemeReport",
    "ShortAdviceScheme",
    "TrivialRankScheme",
    "check_outputs",
    "get_problem",
    "problem_names",
    "register_problem",
    "run_scheme",
    # simulator
    "RunMetrics",
    "run_sync",
    # runner
    "GraphSpec",
    "SweepTask",
    "run_tasks",
]
