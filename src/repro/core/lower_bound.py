"""Theorem 1: 0-round advising schemes need ``Ω(log n)`` bits on average.

The proof of Theorem 1 exhibits, inside the two-clique family ``G_n``
(:mod:`repro.graphs.lowerbound_family`), a *fooling family* for every
spine node ``u_i``: a set of ``h - i`` instances whose local view at
``u_i`` is identical while the port ``u_i`` must output (the port of the
unique MST edge ``{u_i, u_{i-1}}``) is different in every instance.  A
0-round algorithm's output at ``u_i`` is a function of its local view
and its advice only, so if the oracle hands ``u_i`` fewer than
``log₂(h - i)`` bits there are two instances with the same advice — and
the algorithm errs on at least one of them.  Summing over ``i`` gives
average advice ``Ω(log n)``.

This module turns the argument into executable experiments:

* :func:`run_fooling_experiment` builds the family once, *verifies its
  premises* computationally (identical views, pairwise-distinct correct
  ports, the spine really is the unique MST of every variant) and keeps
  the trivial scheme's advice at the target of every variant, so the
  returned :class:`FoolingExperiment` answers the pigeonhole for any
  budget (:meth:`FoolingExperiment.failures`,
  :meth:`FoolingExperiment.pigeonhole`) without rebuilding anything;
* :func:`truncated_trivial_failures` carries out the pigeonhole
  explicitly: any 0-round decoder whose advice at ``u_i`` is truncated
  to ``b`` bits is guaranteed at least ``(h - i) - 2^b`` errors on the
  family, regardless of what the decoder does;
* :func:`average_advice_lower_bound` evaluates the paper's
  ``(1/2h) Σ_i log₂(h - i) = Ω(log n)`` accounting, the curve the
  benchmark compares against the (achievable) trivial scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.bits import BitString
from repro.core.scheme_trivial import TrivialRankScheme
from repro.graphs.lowerbound_family import (
    FoolingVariant,
    average_advice_lower_bound_bits,
    fooling_family,
)
from repro.graphs.weighted_graph import LocalView
from repro.mst.verify import unique_mst_edge_ids

__all__ = [
    "FoolingExperiment",
    "average_advice_lower_bound",
    "required_bits_at_node",
    "run_fooling_experiment",
    "truncated_trivial_failures",
]


def average_advice_lower_bound(h: int) -> float:
    """The paper's lower bound on the average advice size on ``G_n`` (in bits)."""
    return average_advice_lower_bound_bits(h)


def required_bits_at_node(h: int, i: int) -> float:
    """Minimum advice bits any correct 0-round scheme must give ``u_i``."""
    return math.log2(max(h - i, 1))


#: what a 0-round decoder at the target sees in one variant: the trivial
#: scheme's full advice there and the target's local view
_TargetKnowledge = Tuple[BitString, LocalView]


def _trivial_knowledge(variants: Sequence[FoolingVariant]) -> Tuple[_TargetKnowledge, ...]:
    """The trivial scheme's advice and the local view at the target, per variant."""
    scheme = TrivialRankScheme()
    knowledge = []
    for v in variants:
        advice = scheme.compute_advice(v.instance.graph, root=v.instance.v(1))
        knowledge.append(
            (advice.get(v.target_node), v.instance.graph.local_view(v.target_node))
        )
    return tuple(knowledge)


def _pigeonhole(knowledge: Sequence[_TargetKnowledge], budget_bits: int) -> Dict[str, int]:
    """Group the variants by (advice truncated to ``budget_bits``, view)."""
    if budget_bits < 0:
        raise ValueError("budget_bits must be non-negative")
    groups = {(full[: min(budget_bits, len(full))], view) for full, view in knowledge}
    return {
        "num_variants": len(knowledge),
        "num_groups": len(groups),
        "min_failures": max(0, len(knowledge) - len(groups)),
        "budget_bits": budget_bits,
    }


@dataclass(frozen=True)
class FoolingExperiment:
    """Verified premises of the Theorem-1 pigeonhole for one target node."""

    h: int
    i: int
    num_variants: int
    views_identical: bool
    distinct_correct_ports: int
    all_msts_are_spine: bool
    required_bits: float
    #: per variant, the trivial scheme's advice and the local view at the
    #: target — all any budget's pigeonhole needs
    knowledge: Tuple[_TargetKnowledge, ...] = field(default=(), repr=False, compare=False)

    @property
    def premises_hold(self) -> bool:
        """``True`` iff the constructed family satisfies the proof's premises."""
        return (
            self.views_identical
            and self.distinct_correct_ports == self.num_variants
            and self.all_msts_are_spine
        )

    def failures(self, budget_bits: int) -> Dict[str, int]:
        """:func:`truncated_trivial_failures` for this family, without rebuilding it.

        >>> experiment = run_fooling_experiment(10, 3)
        >>> experiment.failures(0) == truncated_trivial_failures(10, 3, budget_bits=0)
        True
        """
        return _pigeonhole(self.knowledge, budget_bits)

    def pigeonhole(self, max_budget_bits: int) -> List[Dict[str, int]]:
        """The pigeonhole table: one row per budget ``0..max_budget_bits``.

        >>> run_fooling_experiment(10, 3).pigeonhole(1)  # doctest: +NORMALIZE_WHITESPACE
        [{'advice_bits': 0, 'groups': 1, 'guaranteed_failures': 6},
         {'advice_bits': 1, 'groups': 1, 'guaranteed_failures': 6}]
        """
        rows = []
        for budget in range(max_budget_bits + 1):
            result = self.failures(budget)
            rows.append(
                {
                    "advice_bits": budget,
                    "groups": result["num_groups"],
                    "guaranteed_failures": result["min_failures"],
                }
            )
        return rows


def run_fooling_experiment(h: int, i: int, seed: int = 0) -> FoolingExperiment:
    """Build the fooling family for ``u_i`` in ``G_n`` once and verify its premises.

    The result also carries the trivial scheme's advice at ``u_i`` in
    every variant, so its :meth:`~FoolingExperiment.failures` answers
    every budget's pigeonhole from this one build.
    """
    variants = fooling_family(h, i, seed=seed)
    knowledge = _trivial_knowledge(variants)
    views = {view for _, view in knowledge}
    ports = {v.correct_parent_port for v in variants}
    all_spine = True
    for v in variants:
        unique, mst = unique_mst_edge_ids(v.instance.graph)
        if not unique or sorted(mst) != v.instance.expected_mst_edge_ids():
            all_spine = False
            break
    return FoolingExperiment(
        h=h,
        i=i,
        num_variants=len(variants),
        views_identical=len(views) == 1,
        distinct_correct_ports=len(ports),
        all_msts_are_spine=all_spine,
        required_bits=required_bits_at_node(h, i),
        knowledge=knowledge,
    )


def truncated_trivial_failures(
    h: int, i: int, budget_bits: int, seed: int = 0
) -> Dict[str, int]:
    """The pigeonhole, executed: truncate the advice at ``u_i`` to ``budget_bits``.

    The trivial ``(⌈log n⌉, 0)`` scheme is correct on every variant of
    the fooling family.  Truncating the advice it gives the target node
    ``u_i`` to ``budget_bits`` bits partitions the variants into at most
    ``2^budget_bits`` groups with identical (view, advice) pairs; *any*
    deterministic 0-round decoder must answer identically within a
    group, while the correct answers are pairwise distinct — so at least
    ``num_variants - num_groups`` variants are answered incorrectly, no
    matter how clever the decoder is.

    Returns a dictionary with ``num_variants``, ``num_groups`` and the
    guaranteed number of failures ``min_failures``.  Builds the family
    for this one budget; to tabulate several, call
    :meth:`FoolingExperiment.failures` on one :func:`run_fooling_experiment`.
    """
    return _pigeonhole(_trivial_knowledge(fooling_family(h, i, seed=seed)), budget_bits)
