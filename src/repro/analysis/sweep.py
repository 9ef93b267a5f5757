"""Parameter sweeps over instance sizes.

A sweep runs one advising scheme (or no-advice baseline) on a family of
instances of growing size and collects, per size, the quantities the
paper's theorems bound: maximum / average advice bits, rounds, and the
per-edge message size.  Multiple seeds per size are aggregated by mean
(for averages) and maximum (for worst-case quantities), which is the
conservative choice when checking upper bounds.

Execution routes through :mod:`repro.runner`: every ``(size, seed)``
pair becomes one :class:`~repro.runner.tasks.SweepTask`, so a sweep can
run over a process pool (``jobs=N``) and/or against an on-disk result
cache (``cache_dir=...``).  Workers return raw per-run rows and all
aggregation happens here, in task order — the serial and parallel paths
therefore produce byte-identical results.

Schemes and baselines may be passed as instances (as before) or as
registry names (``"theorem3"``, ``"ghs"``, ...); only name +
:class:`~repro.runner.tasks.GraphSpec` workloads are cacheable, because
ad-hoc instances and closures have no stable content hash.  Names
resolve on the problem axis: bare names against ``problem`` (default
``mst``), qualified names (``"leader/flag"``) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.tables import format_table
from repro.core.oracle import AdvisingScheme
from repro.core.problem import DEFAULT_PROBLEM
from repro.distributed.base import DistributedMSTBaseline
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.runner.registry import graph_shape, resolve_baseline, resolve_scheme
from repro.runner.runner import run_tasks
from repro.runner.tasks import GraphSpec, SweepTask

__all__ = [
    "GraphFactory",
    "SweepResult",
    "aggregate_baseline_rows",
    "aggregate_scheme_rows",
    "default_graph_factory",
    "resolve_actual_sizes",
    "run_scheme_sweep",
    "run_baseline_sweep",
]


def resolve_actual_sizes(
    factory: "GraphFactory", sizes: Sequence[int], seed: int = 0
) -> List[int]:
    """Map requested sizes to the sizes the factory actually realises.

    Structured families round a requested ``n`` (the rule, with its
    cases, is :func:`repro.runner.registry.graph_shape`), and derived
    columns — ``log2_n``, ``congest_factor``, the theoretical bounds —
    must be computed at the *real* size or they quietly describe a
    different instance.  A :class:`~repro.runner.tasks.GraphSpec` reads
    the size off that rule without building anything; any other factory
    builds one instance per size (at ``seed``) to read ``n`` off it.
    """
    if isinstance(factory, GraphSpec):
        return [graph_shape(factory.family, n).n for n in sizes]
    return [factory(n, seed).n for n in sizes]


#: ``factory(n, seed) -> PortNumberedGraph``
GraphFactory = Callable[[int, int], PortNumberedGraph]


def default_graph_factory(extra_edge_prob: float = 0.05) -> GraphSpec:
    """The default workload: random connected graphs with the given density.

    Returns a :class:`~repro.runner.tasks.GraphSpec` — callable like the
    closure it used to be, but picklable (usable with ``jobs > 1``) and
    hashable (usable with the result cache).
    """
    return GraphSpec("random", extra_edge_prob)


@dataclass
class SweepResult:
    """Rows of one sweep (one row per instance size)."""

    name: str
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def series(self, column: str) -> List[Any]:
        """The values of one column, in row order."""
        return [row[column] for row in self.rows]

    def to_text(self, columns: Optional[Sequence[str]] = None) -> str:
        """Aligned text rendering of the sweep."""
        return format_table(self.rows, columns=columns, title=self.name)


def run_scheme_sweep(
    scheme: Union[str, AdvisingScheme],
    sizes: Sequence[int],
    graph_factory: Optional[GraphFactory] = None,
    seeds: Sequence[int] = (0, 1, 2),
    root: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    backend: str = "engine",
    resume: bool = False,
    progress: bool = False,
    problem: Optional[str] = None,
) -> SweepResult:
    """Run ``scheme`` on every size in ``sizes`` and aggregate per size.

    ``backend="analytic"`` computes every point from the Borůvka trace
    instead of simulating the decoder (same metrics, measurably faster —
    see :mod:`repro.simulator.analytic`); backends hash into distinct
    cache keys, so an engine cache is never served to an analytic sweep.

    Schemes may be registry names or instances; ``jobs``/``cache_dir``
    fan the runs over worker processes and an on-disk cache without
    changing a byte of the result.  ``resume=True`` checkpoints a run
    manifest so a killed sweep restarts without recomputing finished
    work, and ``progress=True`` reports done/total + ETA on stderr:

    >>> result = run_scheme_sweep("trivial", sizes=[8, 16], seeds=(0, 1))
    >>> [row["n"] for row in result.rows]
    [8, 16]
    >>> all(row["correct"] and row["rounds"] == 0 for row in result.rows)
    True
    >>> parallel = run_scheme_sweep("trivial", sizes=[8, 16], seeds=(0, 1), jobs=2)
    >>> parallel.rows == result.rows  # byte-identical to serial
    True
    """
    if not seeds:
        raise ValueError("a sweep needs at least one seed")
    factory = graph_factory if graph_factory is not None else default_graph_factory()
    scheme_obj = resolve_scheme(scheme, problem=problem)
    task_problem = getattr(scheme_obj, "problem", DEFAULT_PROBLEM)
    tasks = [
        SweepTask(
            kind="scheme",
            target=scheme,
            graph=factory,
            n=n,
            seed=seed,
            root=root,
            backend=backend,
            problem=task_problem,
        )
        for n in sizes
        for seed in seeds
    ]
    raw = run_tasks(
        tasks,
        jobs=jobs,
        cache_dir=cache_dir,
        resume=resume,
        progress=progress,
        progress_label="sweep",
    )
    return SweepResult(
        name=scheme_obj.name,
        rows=aggregate_scheme_rows(
            scheme_obj,
            resolve_actual_sizes(factory, sizes, seeds[0]),
            len(seeds),
            raw,
        ),
    )


def aggregate_scheme_rows(
    scheme_obj: AdvisingScheme,
    sizes: Sequence[int],
    seeds_per_size: int,
    raw: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Aggregate raw per-run scheme rows into one row per size.

    ``raw`` must be in task order — all seeds of ``sizes[0]`` first, then
    all seeds of ``sizes[1]``, and so on (exactly how the sweep and
    report pipelines lay out their task grids).  Worst-case quantities
    (max advice, rounds, per-edge bits) aggregate by maximum — the
    conservative choice when checking upper bounds — and average advice
    by mean.  Shared by :func:`run_scheme_sweep` and the
    :mod:`repro.report` pipeline so both render identical tables.
    """
    rows: List[Dict[str, Any]] = []
    for index, n in enumerate(sizes):
        group = raw[index * seeds_per_size : (index + 1) * seeds_per_size]
        max_advice = 0
        avg_advice = 0.0
        rounds = 0
        max_edge_bits = 0
        all_correct = True
        for row in group:
            max_advice = max(max_advice, row["max_advice_bits"])
            avg_advice += row["avg_advice_bits"]
            rounds = max(rounds, row["rounds"])
            max_edge_bits = max(max_edge_bits, row["max_edge_bits"])
            all_correct = all_correct and row["correct"]
        log_n = math.log2(max(n, 2))
        rows.append(
            {
                "problem": getattr(scheme_obj, "problem", DEFAULT_PROBLEM),
                "scheme": scheme_obj.name,
                "n": n,
                "log2_n": round(log_n, 2),
                "max_advice_bits": max_advice,
                "avg_advice_bits": round(avg_advice / seeds_per_size, 3),
                "rounds": rounds,
                "rounds_per_log_n": round(rounds / log_n, 2),
                "max_edge_bits": max_edge_bits,
                "congest_factor": round(max_edge_bits / log_n, 2),
                "correct": all_correct,
                "advice_bound": scheme_obj.advice_bound_bits(n),
                "round_bound": scheme_obj.round_bound(n),
            }
        )
    return rows


def run_baseline_sweep(
    baseline: Union[str, DistributedMSTBaseline],
    sizes: Sequence[int],
    graph_factory: Optional[GraphFactory] = None,
    seeds: Sequence[int] = (0, 1),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    progress: bool = False,
    problem: Optional[str] = None,
) -> SweepResult:
    """Run a no-advice baseline on every size in ``sizes``.

    >>> run_baseline_sweep("ghs", [16], seeds=())
    Traceback (most recent call last):
        ...
    ValueError: a sweep needs at least one seed
    """
    if not seeds:
        raise ValueError("a sweep needs at least one seed")
    factory = graph_factory if graph_factory is not None else default_graph_factory()
    baseline_obj = resolve_baseline(baseline, problem=problem)
    tasks = [
        SweepTask(
            kind="baseline",
            target=baseline,
            graph=factory,
            n=n,
            seed=seed,
            problem=getattr(baseline_obj, "problem", DEFAULT_PROBLEM),
        )
        for n in sizes
        for seed in seeds
    ]
    raw = run_tasks(
        tasks,
        jobs=jobs,
        cache_dir=cache_dir,
        resume=resume,
        progress=progress,
        progress_label="sweep",
    )
    return SweepResult(
        name=baseline_obj.name,
        rows=aggregate_baseline_rows(
            baseline_obj,
            resolve_actual_sizes(factory, sizes, seeds[0]),
            len(seeds),
            raw,
        ),
    )


def aggregate_baseline_rows(
    baseline_obj: DistributedMSTBaseline,
    sizes: Sequence[int],
    seeds_per_size: int,
    raw: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Aggregate raw per-run baseline rows into one row per size.

    The baseline counterpart of :func:`aggregate_scheme_rows`: same
    layout contract (``raw`` in task order, sizes-major), same
    aggregation policy, advice columns pinned to zero.
    """
    rows: List[Dict[str, Any]] = []
    for index, n in enumerate(sizes):
        group = raw[index * seeds_per_size : (index + 1) * seeds_per_size]
        rounds = 0
        max_edge_bits = 0
        all_correct = True
        bound: Optional[float] = None
        for row in group:
            rounds = max(rounds, row["rounds"])
            max_edge_bits = max(max_edge_bits, row["max_edge_bits"])
            all_correct = all_correct and row["correct"]
            bound = row["round_bound"]
        log_n = math.log2(max(n, 2))
        rows.append(
            {
                "problem": getattr(baseline_obj, "problem", DEFAULT_PROBLEM),
                "scheme": baseline_obj.name,
                "n": n,
                "log2_n": round(log_n, 2),
                "max_advice_bits": 0,
                "avg_advice_bits": 0.0,
                "rounds": rounds,
                "rounds_per_log_n": round(rounds / log_n, 2),
                "max_edge_bits": max_edge_bits,
                "congest_factor": round(max_edge_bits / log_n, 2),
                "correct": all_correct,
                "round_bound": bound,
            }
        )
    return rows
