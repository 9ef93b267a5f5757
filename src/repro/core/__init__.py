"""The paper's contribution: advising schemes for local distributed MST.

========================  ================================================
module                    paper artefact
========================  ================================================
``scheme_trivial``        the ``(⌈log n⌉, 0)`` scheme of Section 1
``scheme_average``        Theorem 2 — ``(O(log² n), 1)`` with constant
                          *average* advice
``scheme_main``           Theorem 3 — ``(O(1), O(log n))`` (main result)
``scheme_level``          the literal level-based variant of Theorem 3
                          (ablation of deviation D1)
``lower_bound``           Theorem 1 — the ``Ω(log n)`` average-advice
                          lower bound for 0-round schemes
``oracle``                the ``(m, t)``-advising-scheme abstraction and
                          the end-to-end runner
``problem``               the problem axis: scheme/baseline registries
                          and output verifiers per problem
``advice`` / ``bits``     advice assignments, bit strings, γ codes
``verification``          rooted-MST output checking (re-export of the
                          MST problem's verifier)
========================  ================================================
"""

from repro.core.advice import AdviceAssignment, AdviceStats, PackingLayout
from repro.core.bits import BitReader, BitString, BitWriter
from repro.core.oracle import AdvisingScheme, SchemeReport, run_scheme
from repro.core.problem import (
    DEFAULT_PROBLEM,
    Problem,
    get_problem,
    problem_names,
    register_problem,
    split_target,
)
from repro.core.scheme_trivial import TrivialRankScheme
from repro.core.scheme_average import AverageConstantScheme, paper_average_constant
from repro.core.scheme_main import (
    ShortAdviceScheme,
    num_boruvka_phases,
    phase_window_rounds,
    schedule_prefix_rounds,
)
from repro.core.scheme_level import LevelAdviceScheme
from repro.core.verification import OutputCheck, check_outputs
from repro.core.lower_bound import (
    FoolingExperiment,
    average_advice_lower_bound,
    run_fooling_experiment,
    truncated_trivial_failures,
)

__all__ = [
    "AdviceAssignment",
    "AdviceStats",
    "PackingLayout",
    "BitReader",
    "BitString",
    "BitWriter",
    "AdvisingScheme",
    "SchemeReport",
    "run_scheme",
    "DEFAULT_PROBLEM",
    "Problem",
    "get_problem",
    "problem_names",
    "register_problem",
    "split_target",
    "TrivialRankScheme",
    "AverageConstantScheme",
    "paper_average_constant",
    "ShortAdviceScheme",
    "LevelAdviceScheme",
    "num_boruvka_phases",
    "phase_window_rounds",
    "schedule_prefix_rounds",
    "OutputCheck",
    "check_outputs",
    "FoolingExperiment",
    "average_advice_lower_bound",
    "run_fooling_experiment",
    "truncated_trivial_failures",
]
