"""Task execution: serial, or process-parallel with ``--jobs N``.

:func:`run_tasks` is the single entry point everything routes through —
``analysis/sweep.py``, the ``repro.report`` pipeline, the CLI's ``sweep
--jobs`` / ``bench`` commands, the paper-shape checks in ``benchmarks/``
and the repository benchmark (``perfbench/``, declared by
``BENCHMARK.json``).  Guarantees:

* **Determinism** — results come back in task order regardless of
  ``jobs``; workers return plain measured rows and all aggregation
  happens in the parent, so serial and parallel runs are byte-identical.
* **Instance grouping** — cache misses are partitioned by
  :func:`repro.runner.plan.plan_groups` into groups sharing one graph
  instance, and each group runs against one
  :class:`~repro.runner.plan.InstanceContext`: the graph, Borůvka trace,
  rooted tree and per-scheme advice are built **once per group** instead
  of once per task.  With ``jobs=N`` whole groups are shipped to
  workers, so the sharing holds in every worker process too.
* **Caching** — with ``cache_dir`` set, every task is looked up /
  stored by its content hash (computed once per task and reused for
  lookup and store) in a :class:`~repro.runner.store.SQLiteResultStore`.
  A cache-warm call never constructs a single group.
* **Checkpointing** — results are committed to the cache *as each
  group's work completes* (batched upserts, streamed back from workers
  in deterministic chunk order), not in one flush at the end: a run
  killed mid-sweep keeps everything that finished, and rerunning it with
  the same ``cache_dir`` serves those rows as hits and executes only the
  rest.
* **Progress** — ``progress=True`` reports done/total, cache hits and
  an ETA on stderr while the run executes (stdout artifacts stay
  byte-identical).

Workers rebuild schemes and graphs from the task description, so a task
is a few hundred bytes on the wire even when the instance it describes
has thousands of nodes.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.runner.plan import ExecutionStats, InstanceContext, TaskGroup, plan_groups
from repro.runner.progress import ProgressReporter
from repro.runner.store import SQLiteResultStore
from repro.runner.tasks import SweepTask

__all__ = ["LocalExecutor", "execute_task", "run_tasks"]


def execute_task(task: SweepTask) -> Dict[str, Any]:
    """Run one task in isolation and return its measured row.

    The single-task view of the grouped executor: a fresh
    :class:`~repro.runner.plan.InstanceContext` per call, so rows are
    identical to grouped execution by construction.  Rows carry
    unrounded measurements; presentation rounding happens in the
    aggregation layer so cached and fresh results cannot diverge.
    """
    (row,) = InstanceContext().run_group([task])
    return row


def _execute_group(group: TaskGroup) -> List[Tuple[int, Dict[str, Any]]]:
    """Run one instance group against one shared context; ``(miss_index, row)`` pairs."""
    return list(zip(group.indices, InstanceContext().run_group(group.tasks)))


def _execute_group_chunk(chunk: Sequence[TaskGroup]) -> List[Tuple[int, Dict[str, Any]]]:
    """Worker entry point: whole instance groups at a time.

    Returns ``(miss_index, row)`` pairs, so the parent can reassemble
    rows in task order.
    """
    return [pair for group in chunk for pair in _execute_group(group)]


def _fork_context():
    # fork shares the parent's sys.path (the repo may be run straight
    # from a checkout, without installation); fall back to the platform
    # default where fork does not exist
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _chunked(items: Sequence[Any], size: int) -> List[List[Any]]:
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


class LocalExecutor:
    """The default miss executor: in-process, or a local process pool.

    ``run_tasks`` plans the cache misses and hands the resulting groups
    to an *executor*; this one runs them here (``jobs=1``) or fans chunks
    of them over worker processes.  The sweep service plugs in a
    :class:`repro.service.queue.QueueExecutor` instead, which routes the
    same groups through a durable lease queue — planning, caching and
    byte-identity live in ``run_tasks`` and are shared by construction.

    The pool survives worker death: when a SIGKILLed or OOM-killed worker
    breaks the pool (whether that surfaces while a result is awaited or
    when the next chunk is submitted), every chunk whose result was lost
    is requeued **once** on a fresh pool (with a warning on stderr), and
    a chunk lost twice raises instead of looping (it is killing its
    workers, which deserves a poison-task error, not an infinite
    respawn).
    """

    #: how often one chunk may take a worker down before it is treated as
    #: poison (the satellite contract: requeue the lost group once)
    MAX_CHUNK_REQUEUES = 1

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def run_units(
        self,
        units: Sequence[TaskGroup],
        commit: Callable[[List[Tuple[int, Dict[str, Any]]]], None],
    ) -> None:
        """Execute planned groups; ``commit`` receives ``(miss_index, row)``
        batches in deterministic (plan) order."""
        if self.jobs > 1 and len(units) > 1:
            chunks = _chunked(units, max(1, math.ceil(len(units) / (self.jobs * 4))))
            self._run_chunks(chunks, commit)
            return
        for unit in units:
            commit(_execute_group(unit))

    def _run_chunks(
        self,
        chunks: Sequence[List[TaskGroup]],
        deliver: Callable[[Any], None],
    ) -> None:
        """Run every chunk on a process pool, delivering results in
        submission order as they stream back.

        A dead worker breaks the whole :class:`ProcessPoolExecutor`:
        awaiting a result raises :class:`BrokenProcessPool`, and so does
        every later ``submit``.  Completed futures keep their results, so
        only the submitted chunks whose results were actually lost, plus
        the chunk whose ``submit`` raised, count as requeued (each at
        most :data:`MAX_CHUNK_REQUEUES` times); they and every chunk not
        yet submitted rerun on a fresh pool.
        Delivery order is unaffected: chunk *i* is always delivered after
        chunk *i - 1*, so the cache write sequence stays deterministic.
        Every pool is shut down with ``wait=True``: its manager and queue
        feeder threads are joined before the next pool forks (a respawn,
        or the next ``run_tasks`` call), so no fork inherits a live
        thread of an earlier pool.
        """
        results: Dict[int, Any] = {}
        requeues: Dict[int, int] = {}
        next_to_deliver = 0
        while next_to_deliver < len(chunks):
            to_run = [
                i for i in range(next_to_deliver, len(chunks)) if i not in results
            ]
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, max(1, len(to_run))),
                mp_context=_fork_context(),
            )
            futures: Dict[int, Any] = {}
            try:
                try:
                    for i in to_run:
                        futures[i] = pool.submit(_execute_group_chunk, chunks[i])
                    for i in range(next_to_deliver, len(chunks)):
                        if i not in results:
                            results[i] = futures[i].result()
                        deliver(results.pop(i))
                        next_to_deliver = i + 1
                    return
                except BrokenProcessPool:
                    pass
                # the pool died under us: harvest every future that did
                # complete (their results are intact), then requeue the rest
                for j, future in futures.items():
                    if j in results or j < next_to_deliver or not future.done():
                        continue
                    try:
                        results[j] = future.result()
                    except BrokenProcessPool:
                        pass
                lost = [
                    j for j in futures if j >= next_to_deliver and j not in results
                ]
                if len(futures) < len(to_run):
                    # the break surfaced at this chunk's submit: count it
                    # too, so a pool refusing every submit cannot respawn
                    # forever
                    lost.append(to_run[len(futures)])
                for j in lost:
                    requeues[j] = requeues.get(j, 0) + 1
                    if requeues[j] > self.MAX_CHUNK_REQUEUES:
                        raise RuntimeError(
                            f"worker process died twice executing the same task "
                            f"group (chunk {j + 1}/{len(chunks)}); giving up on a "
                            "workload that keeps killing its workers"
                        )
                print(
                    f"warning: a worker process died (killed or crashed); "
                    f"requeued {len(lost)} lost task group chunk(s) on a fresh "
                    "pool",
                    file=sys.stderr,
                )
            finally:
                pool.shutdown(wait=True, cancel_futures=True)


def run_tasks(
    tasks: Iterable[SweepTask],
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path, SQLiteResultStore]] = None,
    stats: Optional[ExecutionStats] = None,
    progress: bool = False,
    progress_label: str = "tasks",
    executor: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    """Execute every task and return their rows **in task order**.

    ``jobs=1`` runs in-process; ``jobs>1`` distributes cache misses over
    a process pool.  ``cache_dir`` may be a directory path (opened as a
    :class:`~repro.runner.store.SQLiteResultStore`) or an already-open
    store; a killed call rerun with the same store executes only the
    tasks whose rows never landed.  ``progress=True`` reports done/total
    + ETA on stderr.  ``stats`` may be an
    :class:`~repro.runner.plan.ExecutionStats` to be filled with the
    groups executed and the cache hits and misses.

    ``executor`` plugs in how planned misses actually run: by default a
    :class:`LocalExecutor` built from ``jobs``; the sweep service passes
    a ``QueueExecutor`` that routes the identical groups through its
    durable lease queue.  Planning, cache lookups, checkpointing and row
    order are identical either way — which is what keeps serial,
    ``--jobs N`` and service execution byte-identical.
    """
    task_list = list(tasks)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if executor is None:
        executor = LocalExecutor(jobs=jobs)
    cache: Optional[SQLiteResultStore] = None
    if cache_dir is not None:
        if isinstance(cache_dir, (str, Path)):
            cache = SQLiteResultStore(cache_dir)
        else:
            cache = cache_dir

    results: List[Optional[Dict[str, Any]]] = [None] * len(task_list)
    # one hash per task, reused for the lookup below and the store after
    keys: List[str] = [task.task_hash() for task in task_list] if cache is not None else []

    miss_indices: List[int] = []
    if cache is not None:
        for index, key in enumerate(keys):
            row = cache.get(key)
            if row is not None:
                results[index] = row
            else:
                miss_indices.append(index)
    else:
        miss_indices = list(range(len(task_list)))
    if stats is not None:
        stats.cache_hits += len(task_list) - len(miss_indices)
        stats.cache_misses += len(miss_indices)

    reporter = (
        ProgressReporter(len(task_list), label=progress_label) if progress else None
    )
    if reporter is not None:
        reporter.add_cached(len(task_list) - len(miss_indices))

    def _commit(batch: List[Tuple[int, Dict[str, Any]]]) -> None:
        """Land one completed batch: rows, cache upsert, progress.

        Called in deterministic batch order (groups in plan order, chunks
        in submission order), so the cache write sequence — and
        therefore what a killed run keeps — is reproducible.
        """
        stored: List[Tuple[str, Dict[str, Any], Dict[str, Any]]] = []
        for index, row in batch:
            results[index] = row
            if cache is not None:
                stored.append((keys[index], task_list[index].key_dict(), row))
        if stored and cache is not None:
            cache.put_many(stored)
        if reporter is not None:
            reporter.add_executed(len(batch))

    misses = [task_list[i] for i in miss_indices]

    def _commit_miss_rows(pairs: List[Tuple[int, Dict[str, Any]]]) -> None:
        # executors speak miss-list positions; translate to task indices
        _commit([(miss_indices[i], row) for i, row in pairs])

    try:
        if misses:
            groups = plan_groups(misses)
            if stats is not None:
                stats.groups += len(groups)
            executor.run_units(groups, _commit_miss_rows)
    finally:
        if reporter is not None:
            reporter.close()

    return results  # type: ignore[return-value]
