"""Common interface of the no-advice distributed baselines.

A baseline is a distributed algorithm that receives *no oracle advice*;
the only inputs of a node are its local view (and, where documented, the
number of nodes ``n``).  Baselines therefore cannot promise which node
ends up distinguished in the output (the root of the tree, the leader,
the wake-up source) — :func:`run_baseline` checks the output against the
specification of the baseline's declared problem without pinning the
root.

``DistributedMSTBaseline`` remains as an alias of
:class:`DistributedBaseline` for the historical MST-only import path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.problem import DEFAULT_PROBLEM, OutputCheck, get_problem
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.simulator.adversary import FaultSpec, apply_churn, effective_fault, run_adversary
from repro.simulator.algorithm import ProgramFactory
from repro.simulator.engine import run_sync
from repro.simulator.metrics import RunMetrics

__all__ = [
    "DistributedBaseline",
    "DistributedMSTBaseline",
    "BaselineReport",
    "run_baseline",
]


class DistributedBaseline(ABC):
    """A distributed algorithm that uses no advice."""

    #: short identifier used in benchmark tables
    name: str = "baseline"
    #: the problem this baseline solves (selects the output verifier)
    problem: str = DEFAULT_PROBLEM
    #: whether the algorithm assumes every node knows ``n`` (documented deviation)
    requires_n: bool = False

    @abstractmethod
    def program_factory(self, graph: PortNumberedGraph) -> ProgramFactory:
        """Node-program factory.

        The graph argument is used *only* to pass global constants the
        baseline is documented to assume (``n`` for the synchronised
        Borůvka baseline); node programs still never see the graph
        object itself.
        """

    def round_bound(self, graph: PortNumberedGraph) -> Optional[float]:
        """Claimed bound on the number of rounds, or ``None``."""
        return None


#: historical name of the base class, kept importable for downstream code
DistributedMSTBaseline = DistributedBaseline


@dataclass
class BaselineReport:
    """Measured behaviour of one baseline on one instance."""

    baseline: str
    n: int
    m: int
    rounds: int
    metrics: RunMetrics
    check: OutputCheck
    round_bound: Optional[float] = None
    problem: str = DEFAULT_PROBLEM

    @property
    def correct(self) -> bool:
        """``True`` iff the output passed the problem's verifier."""
        return self.check.ok

    def as_row(self) -> Dict[str, Any]:
        """Flat dictionary used by the benchmark tables."""
        return {
            "problem": self.problem,
            "scheme": self.baseline,
            "n": self.n,
            "m": self.m,
            "max_advice_bits": 0,
            "avg_advice_bits": 0.0,
            "total_advice_bits": 0,
            "rounds": self.rounds,
            "max_edge_bits_per_round": self.metrics.max_edge_bits_per_round,
            "congest_factor": round(self.metrics.congest_factor(), 2),
            "correct": self.correct,
            "round_bound": self.round_bound,
        }


def run_baseline(
    baseline: DistributedBaseline,
    graph: PortNumberedGraph,
    max_rounds: Optional[int] = None,
    fault: Optional[FaultSpec] = None,
    fault_seed: int = 0,
    backend: str = "engine",
) -> BaselineReport:
    """Run a no-advice baseline end to end and verify its output.

    ``backend`` selects how the program is executed, as for
    :func:`~repro.core.oracle.run_scheme`: ``"engine"`` simulates it
    round by round; ``"analytic"`` computes the same metrics and outputs
    from the plain Borůvka phases (see
    :func:`~repro.simulator.analytic.run_baseline_analytic`).  Baselines
    without an analytic model, and runs that would exceed
    ``max_rounds``, fall back to the engine.

    ``fault`` selects the adversarial engine (seeded delays and
    crash/recovery; ``fault_seed`` pins the schedule); it requires the
    engine backend.  ``max_rounds`` keeps bounding *logical* rounds
    under the adversary, so a baseline with a fixed round schedule never
    spuriously times out merely because delays stretched physical time.

    >>> from repro.distributed.boruvka_sync import SynchronizedBoruvkaMST
    >>> from repro.graphs.generators import random_connected_graph
    >>> graph = random_connected_graph(32, 0.1, seed=1)
    >>> engine = run_baseline(SynchronizedBoruvkaMST(), graph)
    >>> analytic = run_baseline(SynchronizedBoruvkaMST(), graph, backend="analytic")
    >>> analytic.as_row() == engine.as_row() and analytic.correct
    True
    """
    from repro.simulator.backends import BACKENDS

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")
    problem = getattr(baseline, "problem", DEFAULT_PROBLEM)
    fault = effective_fault(fault, backend, problem)
    bound = baseline.round_bound(graph)
    if max_rounds is None and bound is not None:
        max_rounds = int(bound) + 50
    result = None
    if backend == "analytic":
        from repro.simulator.analytic import AnalyticUnsupported, run_baseline_analytic

        try:
            result = run_baseline_analytic(baseline, graph, max_rounds=max_rounds)
        except AnalyticUnsupported:
            pass  # fall back to the engine
    if result is None and fault is None:
        result = run_sync(
            graph,
            baseline.program_factory(graph),
            advice=None,
            max_rounds=max_rounds,
        )
    elif result is None:
        result = run_adversary(
            graph,
            baseline.program_factory(graph),
            advice=None,
            max_rounds=max_rounds,
            fault=fault,
            seed=fault_seed,
        )
    if not result.completed:
        check = OutputCheck(False, "the baseline did not terminate within the round limit")
    else:
        check = get_problem(problem).check_outputs(graph, result.outputs, expected_root=None)
    if fault is not None and fault.churn and check.ok:
        # the baseline's own root anchors the repaired tree (a baseline
        # cannot promise which node ends up distinguished)
        check = apply_churn(graph, check.root, check, fault, fault_seed, result.metrics)
    return BaselineReport(
        baseline=baseline.name,
        n=graph.n,
        m=graph.m,
        rounds=result.metrics.rounds,
        metrics=result.metrics,
        check=check,
        round_bound=bound,
        problem=problem,
    )
