"""Spec -> SweepTask grid -> cached parallel runner -> artifacts.

:func:`generate_report` is the push-button reproduction: it compiles
every experiment of a :class:`~repro.report.spec.ReportSpec` into one
flat list of :class:`~repro.runner.tasks.SweepTask` work units, executes
them through :func:`repro.runner.runner.run_tasks` (so ``--jobs N`` and
``--cache-dir`` behave exactly as they do for sweeps: deterministic
order, byte-identical to serial, content-hashed cache), slices the rows
back per experiment, and renders the Markdown/CSV artifacts.

Determinism contract (enforced by the golden-report test):

* artifacts are pure functions of the spec — same spec, same bytes;
* ``jobs`` never changes an artifact (the runner returns rows in task
  order and all aggregation happens here, in the parent);
* the execution backend never changes an artifact (scheme rows are
  value-identical across backends — the analytic-equivalence suite's
  guarantee — and baselines always run on the engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.sweep import (
    aggregate_baseline_rows,
    aggregate_scheme_rows,
    resolve_actual_sizes,
)
from repro.report.render import (
    ROBUSTNESS_COLUMNS,
    SWEEP_COLUMNS,
    TRADEOFF_COLUMNS,
    lowerbound_curve_rows,
    render_csv,
    render_index,
    render_lowerbound_markdown,
    render_robustness_markdown,
    render_sweep_markdown,
    render_tradeoff_markdown,
)
from repro.report.spec import (
    Experiment,
    LowerBoundExperiment,
    ReportSpec,
    RobustnessExperiment,
    SweepExperiment,
    TradeoffExperiment,
)
from repro.runner.registry import resolve_baseline, resolve_scheme
from repro.runner.runner import run_tasks
from repro.runner.tasks import SweepTask
from repro.simulator.adversary import FaultSpec

__all__ = ["ReportResult", "compile_tasks", "generate_report"]


@dataclass
class ReportResult:
    """What :func:`generate_report` produced."""

    spec: ReportSpec
    out_dir: Path
    #: artifact file names, in write order (relative to ``out_dir``)
    artifacts: List[str] = field(default_factory=list)
    #: every decoder output passed its problem's verifier, and every
    #: lower-bound premise held
    all_correct: bool = True
    #: number of simulator tasks executed (or served from the cache)
    tasks_run: int = 0


def _experiment_tasks(experiment: Experiment, backend: str) -> List[SweepTask]:
    """The task grid of one experiment, in renderer-expected order.

    Scheme targets run on the requested backend; baselines have no
    analytic model and are pinned to the engine — their rows are
    backend-independent either way, which is what keeps report artifacts
    byte-identical across backends.
    """
    if isinstance(experiment, LowerBoundExperiment):
        return []
    if isinstance(experiment, RobustnessExperiment):
        # the whole grid is pinned to the engine backend: the adversary
        # has no analytic model, and the fault-free corner must share
        # bytes with it (so --backend analytic cannot move an artifact)
        return [
            SweepTask(
                kind=kind,
                target=target,
                graph=experiment.graph,
                n=n,
                seed=seed,
                root=experiment.root,
                backend="engine",
                problem=experiment.problem,
                fault=FaultSpec(
                    delta=delta,
                    crash_rate=rate,
                    recovery=experiment.recovery,
                    churn=experiment.churn,
                ),
            )
            for kind, target in (
                [("scheme", s) for s in experiment.schemes]
                + [("baseline", b) for b in experiment.baselines]
            )
            for n in experiment.sizes
            for delta in experiment.deltas
            for rate in experiment.crash_rates
            for seed in experiment.seeds
        ]
    if isinstance(experiment, SweepExperiment):
        grid: List[Tuple[str, str, int, int]] = [
            ("scheme", target, n, seed)
            for target in experiment.schemes
            for n in experiment.sizes
            for seed in experiment.seeds
        ] + [
            ("baseline", target, n, seed)
            for target in experiment.baselines
            for n in experiment.sizes
            for seed in experiment.seeds
        ]
    else:  # TradeoffExperiment
        grid = [
            ("scheme", target, experiment.n, experiment.seed)
            for target in experiment.schemes
        ] + [
            ("baseline", target, experiment.n, experiment.seed)
            for target in experiment.baselines
        ]
    return [
        SweepTask(
            kind=kind,
            target=target,
            graph=experiment.graph,
            n=n,
            seed=seed,
            root=experiment.root,
            backend=backend if kind == "scheme" else "engine",
            problem=experiment.problem,
        )
        for kind, target, n, seed in grid
    ]


def compile_tasks(
    spec: ReportSpec, backend: Optional[str] = None
) -> List[Tuple[str, List[SweepTask]]]:
    """Compile a spec into per-experiment task grids.

    Returns ``(experiment_name, tasks)`` pairs in spec order; lower-bound
    experiments compile to an empty grid (they are pure computation).
    ``backend`` overrides the spec's default execution backend.
    """
    chosen = backend if backend is not None else spec.backend
    return [
        (experiment.name, _experiment_tasks(experiment, chosen))
        for experiment in spec.experiments
    ]


def _render_sweep(
    experiment: SweepExperiment, raw: Sequence[Dict[str, Any]]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Aggregate one sweep experiment's raw rows (schemes first, then baselines)."""
    per_target = len(experiment.sizes) * len(experiment.seeds)
    # label rows (and compute log-derived columns / bounds) at the sizes
    # the family actually realises, which rounding families may differ
    # from the requested ones (grid/torus/hypercube/gn)
    actual_sizes = resolve_actual_sizes(
        experiment.graph, experiment.sizes, experiment.seeds[0]
    )
    rows: List[Dict[str, Any]] = []
    offset = 0
    for name in experiment.schemes:
        rows.extend(
            aggregate_scheme_rows(
                resolve_scheme(name, problem=experiment.problem),
                actual_sizes,
                len(experiment.seeds),
                raw[offset : offset + per_target],
            )
        )
        offset += per_target
    for name in experiment.baselines:
        rows.extend(
            aggregate_baseline_rows(
                resolve_baseline(name, problem=experiment.problem),
                actual_sizes,
                len(experiment.seeds),
                raw[offset : offset + per_target],
            )
        )
        offset += per_target
    return rows, all(row["correct"] for row in rows)


def _render_robustness(
    experiment: RobustnessExperiment, raw: Sequence[Dict[str, Any]]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Aggregate one robustness experiment's raw rows into grid cells.

    ``raw`` arrives in grid order (targets, then sizes, then deltas,
    then crash rates, then seeds); each cell aggregates its seeds by
    maximum (worst case) and correctness by conjunction.  Degradation
    factors are relative to the first ``(delta, crash_rate)`` cell of
    the same ``(target, n)`` — the grid's fault-free corner under the
    conventional ``0, 0.0`` leading entries.
    """
    actual_sizes = resolve_actual_sizes(
        experiment.graph, experiment.sizes, experiment.seeds[0]
    )
    seeds = len(experiment.seeds)
    targets = list(experiment.schemes) + list(experiment.baselines)
    rows: List[Dict[str, Any]] = []
    offset = 0
    for target in targets:
        for n in actual_sizes:
            base_rounds: Optional[int] = None
            base_messages: Optional[int] = None
            for delta in experiment.deltas:
                for rate in experiment.crash_rates:
                    cell = raw[offset : offset + seeds]
                    offset += seeds
                    rounds = max(row["rounds"] for row in cell)
                    messages = max(row["total_messages"] for row in cell)
                    if base_rounds is None:
                        base_rounds, base_messages = rounds, messages
                    rows.append(
                        {
                            "scheme": cell[0]["scheme"],
                            "n": n,
                            "delta": delta,
                            "crash_rate": rate,
                            "rounds": rounds,
                            # a 0-round scheme (trivial) never degrades in
                            # rounds; render the factor as an exact 1.0
                            "rounds_factor": round(rounds / base_rounds, 2)
                            if base_rounds
                            else 1.0,
                            "total_messages": messages,
                            "messages_factor": round(messages / base_messages, 2)
                            if base_messages
                            else 1.0,
                            "correct": all(row["correct"] for row in cell),
                        }
                    )
    return rows, all(row["correct"] for row in rows)


def _lowerbound_payload(
    experiment: LowerBoundExperiment,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], List[Dict[str, Any]], bool]:
    """Run the Theorem-1 computations of one lower-bound experiment."""
    from repro.core.lower_bound import average_advice_lower_bound, run_fooling_experiment

    fooling = run_fooling_experiment(experiment.h, experiment.i)
    summary = {
        "variants": fooling.num_variants,
        "views_identical": fooling.views_identical,
        "distinct_ports_ok": fooling.distinct_correct_ports == fooling.num_variants,
        "all_msts_are_spine": fooling.all_msts_are_spine,
        "required_bits": round(fooling.required_bits, 3),
        "average_lower_bound_bits": round(average_advice_lower_bound(experiment.h), 3),
    }
    pigeonhole = fooling.pigeonhole(experiment.max_budget_bits)
    curve = lowerbound_curve_rows(experiment.h_curve)
    return summary, pigeonhole, curve, fooling.premises_hold


def generate_report(
    spec: ReportSpec,
    out_dir: Union[str, Path],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    backend: Optional[str] = None,
    resume: bool = False,
    progress: bool = False,
    executor: Optional[Any] = None,
) -> ReportResult:
    """Execute every experiment of ``spec`` and write its artifacts.

    Artifacts land in ``out_dir`` (created if missing): per experiment a
    ``<name>.md`` and one or more ``<name>*.csv``, plus a top-level
    ``index.md``.  ``jobs``/``cache_dir`` are forwarded to the runner;
    ``backend`` overrides the spec's default execution backend — none of
    them can change a single artifact byte.  ``resume=True`` checkpoints a run manifest next to
    the cache (a killed report re-executes zero finished tasks when
    regenerated) and ``progress=True`` reports done/total + ETA on
    stderr.  The grouped executor pays off here in particular: a spec
    grid names the same ``(family, n, seed)`` instance once per scheme
    and per baseline, and grouping builds it exactly once overall.
    ``executor`` swaps the execution backend wholesale (the sweep
    service passes a :class:`~repro.service.queue.QueueExecutor` so
    workers do the running) — planning, caching and rendering are
    untouched, which is why service artifacts stay byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    compiled = compile_tasks(spec, backend=backend)
    flat: List[SweepTask] = [task for _, tasks in compiled for task in tasks]
    raw = run_tasks(
        flat,
        jobs=jobs,
        cache_dir=cache_dir,
        resume=resume,
        progress=progress,
        progress_label="report",
        executor=executor,
    )

    result = ReportResult(spec=spec, out_dir=out, tasks_run=len(flat))
    artifact_names: Dict[str, List[str]] = {}

    def _write(name: str, content: str, experiment_name: str) -> None:
        (out / name).write_text(content, encoding="utf-8")
        result.artifacts.append(name)
        artifact_names.setdefault(experiment_name, []).append(name)

    offset = 0
    for experiment, (_, tasks) in zip(spec.experiments, compiled):
        rows = raw[offset : offset + len(tasks)]
        offset += len(tasks)
        if isinstance(experiment, SweepExperiment):
            aggregated, correct = _render_sweep(experiment, rows)
            _write(
                f"{experiment.name}.md",
                render_sweep_markdown(experiment, aggregated),
                experiment.name,
            )
            _write(
                f"{experiment.name}.csv",
                render_csv(aggregated, SWEEP_COLUMNS),
                experiment.name,
            )
        elif isinstance(experiment, RobustnessExperiment):
            aggregated, correct = _render_robustness(experiment, rows)
            _write(
                f"{experiment.name}.md",
                render_robustness_markdown(experiment, aggregated),
                experiment.name,
            )
            _write(
                f"{experiment.name}.csv",
                render_csv(aggregated, ROBUSTNESS_COLUMNS),
                experiment.name,
            )
        elif isinstance(experiment, TradeoffExperiment):
            correct = all(row["correct"] for row in rows)
            # structured families round the requested size: label the
            # table at the size the family realises
            (actual_n,) = resolve_actual_sizes(
                experiment.graph, [experiment.n], experiment.seed
            )
            # baselines use no advice: render explicit zeros, not blanks
            display = [
                {"max_advice_bits": 0, "avg_advice_bits": 0.0, **row, "n": actual_n}
                for row in rows
            ]
            _write(
                f"{experiment.name}.md",
                render_tradeoff_markdown(experiment, display, actual_n),
                experiment.name,
            )
            _write(
                f"{experiment.name}.csv",
                render_csv(display, TRADEOFF_COLUMNS),
                experiment.name,
            )
        else:
            summary, pigeonhole, curve, correct = _lowerbound_payload(experiment)
            _write(
                f"{experiment.name}.md",
                render_lowerbound_markdown(experiment, summary, pigeonhole, curve),
                experiment.name,
            )
            _write(
                f"{experiment.name}_pigeonhole.csv",
                render_csv(pigeonhole, ("advice_bits", "groups", "guaranteed_failures")),
                experiment.name,
            )
            _write(
                f"{experiment.name}_curve.csv",
                render_csv(
                    curve, ("h", "n", "average_lower_bound_bits", "trivial_max_bits")
                ),
                experiment.name,
            )
        result.all_correct = result.all_correct and correct

    index = render_index(spec, artifact_names, result.all_correct)
    (out / "index.md").write_text(index, encoding="utf-8")
    result.artifacts.append("index.md")
    return result
