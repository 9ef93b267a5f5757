"""Advising-scheme abstractions and the end-to-end runner.

An ``(m, t)``-advising scheme is a pair ``(O, A)``: an *oracle* ``O``
that sees the whole instance and assigns each node at most ``m`` bits of
advice, and a distributed algorithm ``A`` that, using only local views
and the advice, solves the problem within ``t`` rounds.

:class:`AdvisingScheme` captures the pair: :meth:`compute_advice` is the
oracle and :meth:`program_factory` produces the node programs of the
decoder.  The pair is defined relative to a *problem*
(:mod:`repro.core.problem`) whose verifier decides what counts as a
correct output map; the paper's schemes solve ``mst``, and the framework
hosts further problems under :mod:`repro.problems`.  :func:`run_scheme`
glues everything together — oracle → simulator → the problem's output
verification — and returns a :class:`SchemeReport` with the exact
quantities the paper's theorems bound (max/average advice bits, rounds,
per-edge message bits).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.advice import AdviceAssignment, AdviceStats
from repro.core.problem import DEFAULT_PROBLEM, OutputCheck, get_problem
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.simulator.adversary import FaultSpec, apply_churn, effective_fault, run_adversary
from repro.simulator.algorithm import ProgramFactory
from repro.simulator.engine import run_sync
from repro.simulator.metrics import RunMetrics

__all__ = ["AdvisingScheme", "SchemeReport", "run_scheme"]


class AdvisingScheme(ABC):
    """Base class of every advising scheme in the library."""

    #: short human-readable identifier used in tables
    name: str = "scheme"
    #: the problem this scheme solves (selects the output verifier)
    problem: str = DEFAULT_PROBLEM

    @abstractmethod
    def compute_advice(self, graph: PortNumberedGraph, root: int = 0) -> AdviceAssignment:
        """The oracle: assign advice for ``graph`` with distinguished node ``root``.

        For the MST problem ``root`` roots the reference MST; other
        problems use it as their distinguished node (the leader, the
        wake-up source, the candidate tree's root).
        """

    @abstractmethod
    def program_factory(self) -> ProgramFactory:
        """The decoder: a factory producing one node program per node."""

    # -------- declared theoretical bounds (for reporting only) --------

    def advice_bound_bits(self, n: int) -> Optional[float]:
        """Claimed bound on the maximum advice size, or ``None``."""
        return None

    def round_bound(self, n: int) -> Optional[float]:
        """Claimed bound on the number of rounds, or ``None``."""
        return None


@dataclass
class SchemeReport:
    """Everything measured while running one scheme on one instance."""

    scheme: str
    n: int
    m: int
    root: int
    advice: AdviceStats
    rounds: int
    metrics: RunMetrics
    check: OutputCheck
    advice_bound: Optional[float] = None
    round_bound: Optional[float] = None
    problem: str = DEFAULT_PROBLEM

    @property
    def correct(self) -> bool:
        """``True`` iff the decoder's outputs passed the problem's verifier."""
        return self.check.ok

    def as_row(self) -> Dict[str, Any]:
        """Flat dictionary used by the benchmark tables."""
        return {
            "problem": self.problem,
            "scheme": self.scheme,
            "n": self.n,
            "m": self.m,
            "max_advice_bits": self.advice.max_bits,
            "avg_advice_bits": round(self.advice.average_bits, 3),
            "total_advice_bits": self.advice.total_bits,
            "rounds": self.rounds,
            "max_edge_bits_per_round": self.metrics.max_edge_bits_per_round,
            "congest_factor": round(self.metrics.congest_factor(), 2),
            "correct": self.correct,
            "advice_bound": self.advice_bound,
            "round_bound": self.round_bound,
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.scheme}: n={self.n} max_advice={self.advice.max_bits}b "
            f"avg_advice={self.advice.average_bits:.2f}b rounds={self.rounds} "
            f"correct={self.correct}"
        )


def run_scheme(
    scheme: AdvisingScheme,
    graph: PortNumberedGraph,
    root: int = 0,
    max_rounds: Optional[int] = None,
    backend: str = "engine",
    advice: Optional[AdviceAssignment] = None,
    fault: Optional[FaultSpec] = None,
    fault_seed: int = 0,
) -> SchemeReport:
    """Run ``scheme`` end to end on ``graph`` and verify the output.

    ``advice`` may carry a precomputed oracle assignment — it **must** be
    the value ``scheme.compute_advice`` returned for this exact
    ``(graph, root)`` on this exact ``scheme`` object (the scheme holds
    packing state, e.g. the Theorem-3 layout, that the analytic backend
    replays).  The grouped runner uses this to compute each scheme's
    advice once per instance and run every backend against it.

    The oracle is given the instance and the designated root; the
    decoder is run with the resulting advice; the outputs are then
    checked by the verifier of the scheme's declared problem (for the
    paper's MST schemes: a rooted MST whose root is the designated one).

    ``backend`` selects how the decoder is executed:

    * ``"engine"`` — the :class:`~repro.simulator.engine.SyncEngine`
      simulates every node program round by round (the reference path);
    * ``"analytic"`` — per-round message counts, bit totals and halting
      rounds are computed directly from the Borůvka trace and advice
      packing (see :mod:`repro.simulator.analytic`), skipping the
      per-message simulation entirely.  Metrics are identical to the
      engine's (enforced by the equivalence test-suite).  Schemes without
      an analytic model, and runs that would exceed ``max_rounds``, fall
      back to the engine transparently.

    >>> from repro.graphs.generators import random_connected_graph
    >>> from repro.core.scheme_trivial import TrivialRankScheme
    >>> graph = random_connected_graph(32, 0.1, seed=1)
    >>> report = run_scheme(TrivialRankScheme(), graph, root=0)
    >>> report.correct, report.rounds  # 0 rounds: decoded from advice alone
    (True, 0)
    >>> report.advice.max_bits <= report.advice_bound
    True
    >>> analytic = run_scheme(TrivialRankScheme(), graph, root=0, backend="analytic")
    >>> analytic.as_row() == report.as_row()  # backends are interchangeable
    True
    """
    from repro.simulator.backends import BACKENDS

    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")
    fault = effective_fault(fault, backend, getattr(scheme, "problem", DEFAULT_PROBLEM))
    if fault is not None:
        if advice is None:
            advice = scheme.compute_advice(graph, root=root)
        result = run_adversary(
            graph,
            scheme.program_factory(),
            advice=advice.as_payloads(),
            max_rounds=max_rounds,
            fault=fault,
            seed=fault_seed,
        )
        return _build_report(
            scheme, graph, root, advice, result, fault=fault, fault_seed=fault_seed
        )
    if backend == "analytic":
        from repro.simulator.analytic import AnalyticUnsupported, run_scheme_analytic

        try:
            advice, result = run_scheme_analytic(
                scheme, graph, root=root, max_rounds=max_rounds, advice=advice
            )
        except AnalyticUnsupported:
            result = None  # fall back to the engine (advice keeps its value)
        if result is not None:
            return _build_report(scheme, graph, root, advice, result)

    if advice is None:
        advice = scheme.compute_advice(graph, root=root)
    result = run_sync(
        graph,
        scheme.program_factory(),
        advice=advice.as_payloads(),
        max_rounds=max_rounds,
    )
    return _build_report(scheme, graph, root, advice, result)


def _build_report(
    scheme, graph, root, advice, result, fault=None, fault_seed=0
) -> SchemeReport:
    """Verify the outputs and assemble the report (shared by both backends)."""
    problem = getattr(scheme, "problem", DEFAULT_PROBLEM)
    if not result.completed:
        check = OutputCheck(False, "the decoder did not terminate within the round limit")
    else:
        # verification is a pure function of (problem, root, outputs); the
        # grouped executor verifies four schemes with identical outputs per
        # instance, so memoise the check on the graph (keyed by the outputs
        # themselves — a dict-equality probe, O(n) on hit)
        memo = getattr(graph, "_check_memo", None)
        if memo is None:
            memo = {}
            graph._check_memo = memo
        key = (problem, root)
        cached = memo.get(key)
        if cached is not None and cached[0] == result.outputs:
            check = cached[1]
        else:
            check = get_problem(problem).check_outputs(
                graph, result.outputs, expected_root=root
            )
            memo[key] = (result.outputs, check)
    if fault is not None and fault.churn and check.ok:
        # post-run weight churn: repair the verified tree incrementally,
        # re-verify on the churned instance, and charge the repair
        # traffic into the metrics (the memoised check above is safe to
        # reuse — the adversary masks faults, so the outputs equal the
        # synchronous run's; churn returns a *fresh* check and never
        # touches the memo)
        check = apply_churn(graph, root, check, fault, fault_seed, result.metrics)
    n = graph.n
    return SchemeReport(
        scheme=scheme.name,
        n=n,
        m=graph.m,
        root=root,
        advice=advice.stats(),
        rounds=result.metrics.rounds,
        metrics=result.metrics,
        check=check,
        advice_bound=scheme.advice_bound_bits(n),
        round_bound=scheme.round_bound(n),
        problem=problem,
    )
