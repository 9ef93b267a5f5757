"""Process-parallel experiment runner.

Reproducing the paper's trade-off curves takes thousands of simulated
runs across sizes, seeds, schemes and graph families.  This subpackage
amortises that workload:

* :mod:`~repro.runner.registry` — names for every scheme, baseline and
  graph family, so a unit of work can be described declaratively;
* :mod:`~repro.runner.tasks` — :class:`GraphSpec` (a picklable,
  hashable graph-family description) and :class:`SweepTask` (one
  ``(target, graph, n, seed)`` work unit with a stable content hash);
* :mod:`~repro.runner.store` — the result store behind ``--cache-dir``:
  one WAL-mode SQLite file with batched transactional upserts,
  committed per finished group, so a killed run rerun with the same
  store executes only what never landed; plus ``stats`` / ``gc``
  maintenance;
* :mod:`~repro.runner.progress` — live done/total + ETA reporting on
  stderr;
* :mod:`~repro.runner.plan` — the execution planner: cache misses are
  grouped by shared graph instance (:func:`plan_groups`), and each
  group runs against one :class:`InstanceContext` that builds the
  graph, Borůvka trace, rooted tree and per-scheme advice exactly once;
* :mod:`~repro.runner.runner` — :func:`run_tasks`, which executes a
  task list serially or over a ``multiprocessing`` pool (``jobs=N``),
  shipping whole instance groups to workers, with deterministic,
  task-order result merging.

``analysis/sweep.py``, the ``repro.report`` pipeline, the ``sweep
--jobs`` / ``bench`` CLI commands and the ``benchmarks/`` suite all
route through :func:`run_tasks`, so serial, parallel, cached and
restarted runs produce byte-identical aggregated results.
"""

from repro.runner.plan import ExecutionStats, InstanceContext, TaskGroup, plan_groups
from repro.runner.progress import ProgressReporter
from repro.runner.registry import (
    BACKENDS,
    BASELINES,
    GRAPH_FAMILIES,
    SCHEMES,
    build_graph,
    problem_names,
    qualified_names,
    resolve_baseline,
    resolve_scheme,
    resolve_target,
)
from repro.runner.runner import execute_task, run_tasks
from repro.runner.store import STORE_SCHEMA_VERSION, SQLiteResultStore
from repro.runner.tasks import GraphSpec, SweepTask

__all__ = [
    "BACKENDS",
    "BASELINES",
    "GRAPH_FAMILIES",
    "SCHEMES",
    "STORE_SCHEMA_VERSION",
    "ExecutionStats",
    "GraphSpec",
    "InstanceContext",
    "ProgressReporter",
    "SQLiteResultStore",
    "SweepTask",
    "TaskGroup",
    "build_graph",
    "execute_task",
    "plan_groups",
    "problem_names",
    "qualified_names",
    "resolve_baseline",
    "resolve_scheme",
    "resolve_target",
    "run_tasks",
]
