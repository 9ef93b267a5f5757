"""Execution planning: group sweep tasks that share an instance.

A sweep point runs *many* treatments — several advising schemes, two
execution backends, the no-advice baselines — over the *same* graph
instance, and each of those treatments needs the same expensive
preparations: build the graph, run the Borůvka trace, root the reference
MST, compute the oracle advice.  :func:`plan_groups` partitions a miss
list into :class:`TaskGroup`\\ s of tasks that share one instance, and
:class:`InstanceContext` executes a whole group against shared
artifacts, building each of them exactly once:

* the **graph** is built once per group (not once per task);
* the **Borůvka trace** and the **rooted reference tree** are built once
  per ``(instance, root)`` — they live in per-graph memos, which the
  grouping turns from "lucky when tasks happen to be adjacent" into a
  guarantee, including under ``--jobs N`` where the runner ships whole
  groups to workers.  :meth:`InstanceContext.run_group` builds the
  traces before the group's first task, so the trace's MST seeds the
  Kruskal memo and no task of a traced group runs Kruskal;
* the **advice** of each scheme is computed once per ``(scheme, root)``
  and reused by every backend that runs that scheme.

Rows are byte-identical to isolated execution (one fresh context per
task, :func:`~repro.runner.runner.execute_task`): every shared artifact is
a deterministic pure function of the instance, so sharing is observable
only as speed.  :class:`ExecutionStats` counts the groups executed and
the cache hits and misses of one run.  Where the time goes is measured
from outside, by the repository benchmark's per-layer metrics
(``perfbench/README.md``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.oracle import run_scheme
from repro.distributed.base import run_baseline
from repro.mst.boruvka import boruvka_trace
from repro.runner.registry import resolve_baseline, resolve_scheme
from repro.runner.tasks import GraphSpec, SweepTask

__all__ = [
    "ExecutionStats",
    "InstanceContext",
    "TaskGroup",
    "instance_key",
    "plan_groups",
]

@dataclass
class ExecutionStats:
    """What one :func:`~repro.runner.runner.run_tasks` call actually did.

    A warm-cache run has every counter at zero except ``cache_hits``:
    group construction is skipped entirely.
    """

    #: instance groups executed (0 when every task was a cache hit)
    groups: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass(frozen=True)
class TaskGroup:
    """A maximal run of cache-miss tasks sharing one graph instance."""

    #: shared-instance identity, or ``None`` for an ungroupable task
    key: Optional[Hashable]
    #: positions of the group's tasks in the planned task list
    indices: Tuple[int, ...]
    tasks: Tuple[SweepTask, ...]


def instance_key(task: SweepTask) -> Optional[Hashable]:
    """The shared-instance identity of a task, or ``None`` if it has none.

    Tasks agree on the key exactly when :meth:`SweepTask.build_graph`
    builds the same instance (neither the root nor the problem is part
    of the key — traces and advice are memoised per ``(problem, target,
    root)`` inside the group, so a sweep point mixing, say, MST and
    leader-election tasks still builds its graph exactly once).  Tasks
    with ad-hoc factory callables have no comparable identity and become
    singleton groups.
    """
    if not isinstance(task.graph, GraphSpec):
        return None
    spec = task.graph.key_dict()
    return (spec["family"], spec["density"], task.n, task.seed)


def plan_groups(tasks: Sequence[SweepTask]) -> List[TaskGroup]:
    """Partition ``tasks`` into instance groups, in first-seen order.

    Every task lands in exactly one group (the groups' ``indices``
    partition ``range(len(tasks))``); tasks without an instance identity
    become singleton groups at their original position in the order.
    """
    order: List[Hashable] = []
    by_key: Dict[Hashable, Tuple[List[int], List[SweepTask]]] = {}
    for index, task in enumerate(tasks):
        key = instance_key(task)
        if key is None:
            key = ("__singleton__", index)
        bucket = by_key.get(key)
        if bucket is None:
            bucket = ([], [])
            by_key[key] = bucket
            order.append(key)
        bucket[0].append(index)
        bucket[1].append(task)
    return [
        TaskGroup(
            key=None if isinstance(key, tuple) and key and key[0] == "__singleton__" else key,
            indices=tuple(by_key[key][0]),
            tasks=tuple(by_key[key][1]),
        )
        for key in order
    ]


#: per scheme class: whether ``compute_advice`` accepts a ``trace``
#: keyword (trace-driven oracles) — resolved once, not per task
_TRACE_PARAM_CACHE: Dict[type, bool] = {}


def _wants_trace(scheme: Any) -> bool:
    cls = type(scheme)
    cached = _TRACE_PARAM_CACHE.get(cls)
    if cached is None:
        try:
            parameters = inspect.signature(scheme.compute_advice).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            parameters = {}
        cached = "trace" in parameters
        _TRACE_PARAM_CACHE[cls] = cached
    return cached


class InstanceContext:
    """Shared artifacts of one instance group, built once and reused.

    The context is deliberately lazy: a group without a trace-driven
    scheme task never pays for a trace, a cache-warm group is never
    constructed at all.  ``run_group`` produces exactly the rows
    :func:`repro.runner.runner.execute_task` produces task by task —
    sharing is observable only as speed.
    """

    def __init__(self) -> None:
        self._graph = None
        #: (problem, registry name, root) -> (scheme instance, computed advice)
        self._advice: Dict[Tuple[str, str, int], Tuple[Any, Any]] = {}

    # ------------------------------------------------------------------ #

    def _instance(self, task: SweepTask):
        if self._graph is None:
            self._graph = task.build_graph()
        return self._graph

    def _scheme_and_advice(self, task: SweepTask, graph) -> Tuple[Any, Any]:
        """The task's scheme and its advice, shared across the group's backends."""
        root = task.root % graph.n
        memo_key = (
            (task.problem, task.target, root) if isinstance(task.target, str) else None
        )
        if memo_key is not None:
            cached = self._advice.get(memo_key)
            if cached is not None:
                return cached
        scheme = resolve_scheme(task.target, problem=task.problem)
        if _wants_trace(scheme):
            trace = boruvka_trace(graph, root=root)
            advice = scheme.compute_advice(graph, root=root, trace=trace)
        else:
            advice = scheme.compute_advice(graph, root=root)
        if memo_key is not None:
            self._advice[memo_key] = (scheme, advice)
        return scheme, advice

    # ------------------------------------------------------------------ #

    def run_group(self, tasks: Sequence[SweepTask]) -> List[Dict[str, Any]]:
        """Run tasks sharing one instance against this context; rows in task order.

        Before the first task runs, the Borůvka trace is built once per
        distinct root of the trace-driven scheme tasks.  The trace seeds
        the instance's Kruskal and rooted-tree memos, so ``trivial``, the
        MST verifier and ``ghs`` find them filled whatever the task
        order.  A group without a trace-driven scheme task builds no
        trace.
        """
        if tasks:
            graph = self._instance(tasks[0])
            roots = {
                task.root % graph.n
                for task in tasks
                if task.kind == "scheme"
                and _wants_trace(resolve_scheme(task.target, problem=task.problem))
            }
            for root in roots:
                boruvka_trace(graph, root=root)
        return [self.execute(task) for task in tasks]

    def execute(self, task: SweepTask) -> Dict[str, Any]:
        """Run one task against the shared context and return its row."""
        graph = self._instance(task)
        if task.kind == "scheme":
            scheme, advice = self._scheme_and_advice(task, graph)
            report = run_scheme(
                scheme,
                graph,
                root=task.root % graph.n,
                backend=task.backend,
                advice=advice,
                fault=task.fault,
                fault_seed=task.seed,
            )
            return {
                "kind": "scheme",
                "problem": report.problem,
                "scheme": report.scheme,
                "n": task.n,
                "seed": task.seed,
                "max_advice_bits": report.advice.max_bits,
                "avg_advice_bits": report.advice.average_bits,
                "total_advice_bits": report.advice.total_bits,
                "rounds": report.rounds,
                "max_edge_bits": report.metrics.max_edge_bits_per_round,
                "total_messages": report.metrics.total_messages,
                "total_message_bits": report.metrics.total_message_bits,
                "correct": report.correct,
            }
        baseline = resolve_baseline(task.target, problem=task.problem)
        report = run_baseline(
            baseline, graph, fault=task.fault, fault_seed=task.seed, backend=task.backend
        )
        return {
            "kind": "baseline",
            "problem": report.problem,
            "scheme": report.baseline,
            "n": task.n,
            "seed": task.seed,
            "rounds": report.rounds,
            "max_edge_bits": report.metrics.max_edge_bits_per_round,
            "total_messages": report.metrics.total_messages,
            "total_message_bits": report.metrics.total_message_bits,
            "correct": report.correct,
            "round_bound": report.round_bound,
        }
