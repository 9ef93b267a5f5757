"""Which program calls are timed as layers, and the metrics made from them.

:func:`instrument` wraps the public call of each layer through the
binding its caller uses; :func:`layer_metrics` turns the recorded spans
of the traced requests into the ``<module>.<metric>`` numbers that
``BENCHMARK.json`` lists under ``per_layer``.  Times are self times (a
span's duration minus what its child spans cover); every time and count
is per request (one workload unit), so counts repeat exactly when the
requests have the same shape.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from spans import Span, Tracer, self_times, union_length
from workloads import SCHEMES

__all__ = ["SPAN_METRICS", "instrument", "layer_metrics", "messages", "percentile"]

#: span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "graphs.build": ("graphs.build_s", "graphs.builds"),
    "mst.trace": ("mst.trace_s", "mst.traces"),
    "mst.kruskal": ("mst.kruskal_s", "mst.kruskal_calls"),
    "core.lowerbound": ("core.lowerbound_s", None),
    "distributed.baseline": ("distributed.baseline_s", None),
    "simulator.engine": ("simulator.engine_s", "simulator.engine_runs"),
    "simulator.analytic": ("simulator.analytic_s", None),
    "problems.verify": ("problems.verify_s", "problems.verify_calls"),
    "runner.plan": ("runner.plan_s", None),
    "runner.hash": ("runner.hash_s", None),
    "runner.store_get": ("runner.store_get_s", "runner.store_gets"),
    "runner.store_put": ("runner.store_put_s", None),
    "report.spec": ("report.spec_s", None),
    "report.compile": ("report.compile_s", None),
    "report.render": ("report.render_s", None),
    "service.enqueue": ("service.enqueue_s", None),
    "service.http_submit": ("service.http_submit_s", None),
}

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _rows_summary(args: tuple, kwargs: Dict[str, Any], rows: Any) -> Dict[str, Any]:
    rows = list(rows)
    return {
        "runs": len(rows),
        "messages": sum(int(row.get("total_messages", 0)) for row in rows),
        "incorrect": sum(1 for row in rows if not row.get("correct")),
    }


def _put_rows(args: tuple, kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    items = args[1] if len(args) > 1 else kwargs.get("items", ())
    return {"rows": len(items) if hasattr(items, "__len__") else 0}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer call listed in the benchmark README."""
    import repro.cli  # noqa: F401  (imports every layer the workloads reach)
    import repro.core.lower_bound as lower_bound
    import repro.distributed.base as distributed
    import repro.mst.boruvka as boruvka
    import repro.mst.kruskal as kruskal
    import repro.report.pipeline as pipeline
    import repro.report.render as render
    import repro.report.spec as spec
    import repro.runner.plan as plan
    import repro.runner.registry as registry
    import repro.runner.runner as runner
    import repro.service.queue as queue
    import repro.simulator.analytic as analytic
    import repro.simulator.engine as engine
    from repro.problems.mst import MSTProblem
    from repro.runner.store import SQLiteResultStore
    from repro.runner.tasks import SweepTask

    tracer.patch_function(registry.build_graph, "graphs.build")
    tracer.patch_function(boruvka.boruvka_trace, "mst.trace")
    tracer.patch_function(kruskal.kruskal_mst, "mst.kruskal")
    scheme_names = {cls: name for name, cls in MSTProblem.schemes.items()}
    for cls in scheme_names:
        if "compute_advice" in vars(cls):
            tracer.patch_method(
                cls,
                "compute_advice",
                "core.advice",
                label=lambda args: scheme_names.get(type(args[0]), "other"),
            )
    tracer.patch_function(lower_bound.run_fooling_experiment, "core.lowerbound")
    tracer.patch_function(lower_bound.truncated_trivial_failures, "core.lowerbound")
    tracer.patch_function(distributed.run_baseline, "distributed.baseline")
    tracer.patch_function(engine.run_sync, "simulator.engine")
    tracer.patch_function(analytic.run_scheme_analytic, "simulator.analytic")
    tracer.patch_method(MSTProblem, "check_outputs", "problems.verify")
    tracer.patch_function(
        plan.plan_groups,
        "runner.plan",
        describe=lambda args, kwargs, groups: {"groups": len(groups)},
    )
    tracer.patch_method(SweepTask, "task_hash", "runner.hash")
    tracer.patch_method(
        plan.InstanceContext,
        "execute",
        "runner.execute",
        describe=lambda args, kwargs, row: {"context": id(args[0])},
    )
    tracer.patch_function(runner.run_tasks, "runner.run_tasks", describe=_rows_summary)
    tracer.patch_method(
        SQLiteResultStore,
        "get",
        "runner.store_get",
        describe=lambda args, kwargs, row: {"hit": row is not None},
    )
    tracer.patch_method(SQLiteResultStore, "put_many", "runner.store_put", describe=_put_rows)
    tracer.patch_function(spec.load_spec, "report.spec")
    tracer.patch_function(spec.parse_spec_text, "report.spec")
    tracer.patch_function(pipeline.compile_tasks, "report.compile")
    for attr, value in sorted(vars(render).items()):
        if attr.startswith("render_") and callable(value):
            tracer.patch_function(value, "report.render")
    tracer.patch_method(queue.LeaseQueue, "enqueue", "service.enqueue")


def messages(spans: Sequence[Span]) -> int:
    """Total messages of every row the traced ``run_tasks`` calls returned."""
    return sum(span.args.get("messages", 0) for span in spans if span.name == "runner.run_tasks")


def layer_metrics(spans: Sequence[Span], units: int) -> Dict[str, float]:
    """Per-request layer numbers from the spans of ``units`` traced requests.

    ``bench.unit`` spans (one per traced request, opened by the
    benchmark) give the uncovered share: the part of each request's
    interval that no other span of the same request covers.
    """
    per = float(max(1, units))
    selfs = self_times(spans)
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + selfs[span.id]
        counts[span.name] = counts.get(span.name, 0) + 1

    out: Dict[str, float] = {}
    for span_name, (time_metric, count_metric) in SPAN_METRICS.items():
        out[time_metric] = totals.get(span_name, 0.0) / per
        if count_metric is not None:
            out[count_metric] = counts.get(span_name, 0) / per
    advice_names = [name for name in totals if name.startswith("core.advice.")]
    out["core.advice_s"] = sum(totals[name] for name in advice_names) / per
    out["core.advice_calls"] = sum(counts[name] for name in advice_names) / per
    for scheme in SCHEMES:
        out[f"core.advice_s.{scheme}"] = totals.get(f"core.advice.{scheme}", 0.0) / per

    def args_of(name: str) -> List[Dict[str, Any]]:
        return [span.args for span in spans if span.name == name]

    out["runner.groups"] = sum(a.get("groups", 0) for a in args_of("runner.plan")) / per
    gets = args_of("runner.store_get")
    out["runner.store_hit_ratio"] = (
        sum(1 for a in gets if a.get("hit")) / len(gets) if gets else 0.0
    )
    out["runner.store_rows_put"] = sum(a.get("rows", 0) for a in args_of("runner.store_put")) / per
    group_seconds: Dict[int, float] = {}
    for span in spans:
        if span.name == "runner.execute":
            key = span.args.get("context", 0)
            group_seconds[key] = group_seconds.get(key, 0.0) + span.duration
    out["runner.group_p50_s"] = percentile(list(group_seconds.values()), 0.5)
    out["runner.group_p90_s"] = percentile(list(group_seconds.values()), 0.9)
    runs = sum(a.get("runs", 0) for a in args_of("runner.run_tasks"))
    out["problems.verify_per_run"] = counts.get("problems.verify", 0) / runs if runs else 0.0

    uncovered = covered_total = 0.0
    for unit in (span for span in spans if span.name == "bench.unit"):
        inner = [
            (max(s.start, unit.start), min(s.end, unit.end))
            for s in spans
            if s.run == unit.run and s is not unit and s.end > unit.start and s.start < unit.end
        ]
        covered_total += unit.duration
        uncovered += unit.duration - union_length(inner)
    out["trace.uncovered_frac"] = uncovered / covered_total if covered_total else 0.0
    return out
