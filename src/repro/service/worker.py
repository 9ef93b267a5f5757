"""The worker loop: lease a task group, execute it killably, report back.

``repro worker --queue-dir DIR`` attaches one of these to a queue.  Each
leased item is executed in the worker's **execution child**, one
long-lived forked subprocess that receives each payload over a pipe, so
the worker proper can enforce a wall-clock timeout with ``SIGKILL``
instead of hoping a wedged simulation honours an exception, and so an
execution crash (a segfault, an OOM kill) takes down the child, not the
lease bookkeeping.  A child whose item failed, timed out or crashed is
joined and replaced by a fresh fork before the next item; so is one that
died while idle, without charging the next item for it.  While the
child runs an item, the parent heartbeats the lease; a worker that is
itself killed simply stops heartbeating and the queue re-leases its item
after the TTL.  Its child sees the pipe close, finishes the item in
hand and exits.

Before its first lease the worker executes one tiny fixed task
in-process (:func:`warm_up`), then forks the child, so the modules
execution imports lazily are already in the child instead of imported
per item.  While idle it waits on a worker bell
(:mod:`repro.service.bells`) that the queue rings when work is enqueued,
with ``poll_interval`` as the longest wait without a ring.

The child commits result rows straight to the shared content-addressed
store *before* it replies and the parent marks the item done, so
``done`` in the queue always implies rows in the store — the ordering
the :class:`~repro.service.queue.QueueExecutor` relies on.

Chaos hook: ``REPRO_SERVICE_TEST_DELAY`` (seconds, float) makes the
child sleep before executing each item, giving crash-injection tests a
window in which a worker provably holds a lease.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
import time
import traceback
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Dict, Optional

from repro.runner.plan import InstanceContext
from repro.runner.store import SQLiteResultStore
from repro.runner.tasks import GraphSpec, SweepTask, clear_graph_memo, task_from_wire
from repro.service.bells import WORKER_BELLS, Bell
from repro.service.queue import LeaseQueue, LeasedItem
from repro.service.retry import RetryPolicy

__all__ = ["default_owner", "run_worker", "warm_up"]

#: env var: float seconds the execution child sleeps before each item
TEST_DELAY_ENV = "REPRO_SERVICE_TEST_DELAY"

#: seconds a child that should be exiting (it failed an item, or was
#: told to stop) gets before it is SIGKILLed
_EXIT_GRACE = 5.0


def default_owner() -> str:
    """Lease-owner identity of this process: host + pid is unique enough
    for a queue directory that lives on one filesystem."""
    return f"{socket.gethostname()}:{os.getpid()}"


def warm_up() -> None:
    """Execute one tiny fixed task in this process, off the store and queue.

    Execution imports what it needs lazily (``numpy.random``, ``numpy.ma``,
    the problem registry, ...).  A worker runs this once before it forks
    its execution child, so the child inherits those modules instead of
    importing them while it executes items.
    """
    task = SweepTask("scheme", "trivial", GraphSpec("random"), n=8, seed=0, backend="analytic")
    InstanceContext().execute(task)


def _execute_payload(
    queue_dir: str, payload: Dict[str, Any], store: Optional[SQLiteResultStore]
) -> SQLiteResultStore:
    """One item in the execution child: deserialise, execute, commit.

    ``store`` is the child's result store, ``None`` until its first item
    opens it; the store the rows went to is returned for the next item.
    """
    delay = float(os.environ.get(TEST_DELAY_ENV, "0") or "0")
    if delay > 0:
        time.sleep(delay)
    tasks = [task_from_wire(wire) for wire in payload["tasks"]]
    hashes = payload["hashes"]
    if len(hashes) != len(tasks):
        raise ValueError(f"malformed payload: {len(hashes)} hashes for {len(tasks)} tasks")
    rows = InstanceContext().run_group(tasks)
    if store is None:
        store = SQLiteResultStore(Path(queue_dir))
    store.put_many(
        [
            (task_hash, task.key_dict(), row)
            for task, task_hash, row in zip(tasks, hashes, rows)
        ]
    )
    return store


def _child_main(queue_dir: str, conn: Connection, worker_end: Connection) -> None:
    """Execution-child body: run each payload the worker sends until told to stop.

    Replies ``None`` per committed item.  A failing item ships its
    traceback up the pipe and exits 1, so the parent can attach a real
    error message to ``fail()`` instead of just an exit code.  The
    child's copy of the worker's end is closed first: then the worker's
    death, even by SIGKILL, reads here as end of file.  SIGINT and
    SIGTERM are ignored, so a signal to the whole process group drains
    the worker without killing an item mid-way.
    """
    worker_end.close()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_IGN)
    store: Optional[SQLiteResultStore] = None
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break  # the worker is gone
        if payload is None:
            break  # the worker's stop message
        try:
            store = _execute_payload(queue_dir, payload, store)
        except BaseException:
            try:
                conn.send(traceback.format_exc(limit=8))
            except (OSError, ValueError):
                pass
            os._exit(1)
        # a group never shares its instance with the next item: keep no
        # graph (with its trace) alive across items
        clear_graph_memo()
        try:
            conn.send(None)
        except OSError:
            break  # the worker died while this item ran
    if store is not None:
        store.close()
    os._exit(0)


class _ExecutionChild:
    """The worker's execution child and the worker's end of their pipe.

    ``fork`` context deliberately: the child inherits the interpreter
    :func:`warm_up` warmed (and any monkeypatches a test installed).
    """

    def __init__(self, queue_dir: str) -> None:
        self.queue_dir = queue_dir
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[Connection] = None
        self._fork()

    def _fork(self) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(
            target=_child_main, args=(self.queue_dir, child_end, self.conn)
        )
        self.process.start()
        child_end.close()

    def send(self, payload: Dict[str, Any]) -> None:
        """Hand ``payload`` to a live child, first replacing one that is gone."""
        if self.process is not None and self.process.is_alive():
            try:
                self.conn.send(payload)
                return
            except OSError:  # it died between the check and the send
                pass
        self.discard()
        self._fork()
        self.conn.send(payload)

    def discard(self, grace: float = 0.0) -> Optional[int]:
        """Join the child, SIGKILLing it after ``grace`` seconds; its exit code.

        The next :meth:`send` forks a fresh one.
        """
        process, conn = self.process, self.conn
        if process is None:
            return None
        self.process = self.conn = None
        process.join(grace)
        if process.exitcode is None:
            process.kill()
            process.join()
        conn.close()
        exitcode = process.exitcode
        process.close()
        return exitcode

    def stop(self) -> None:
        """Tell the child to exit and join it (SIGKILL after the grace)."""
        if self.conn is not None:
            try:
                self.conn.send(None)
            except OSError:
                pass
        self.discard(_EXIT_GRACE)


def _execute_item(
    queue: LeaseQueue,
    item: LeasedItem,
    owner: str,
    policy: RetryPolicy,
    lease_ttl: float,
    heartbeat_interval: float,
    child: _ExecutionChild,
) -> Optional[str]:
    """Run one leased item to completion in ``child``; an error string or ``None``.

    The parent's only jobs while the child runs: watch the clock (every
    0.2 s at most) and heartbeat the lease once ``heartbeat_interval``
    has passed since the lease or the last heartbeat.  The child stays
    for the next item only if it replied that the rows are committed;
    one that failed is joined, one past the deadline SIGKILLed, and the
    next item gets a fresh fork.
    """
    tasks = item.payload.get("tasks") or []
    timeout = policy.item_timeout(len(tasks))
    child.send(item.payload)
    last_beat = time.monotonic()  # the lease itself is the first beat
    deadline = last_beat + timeout
    while not child.conn.poll(min(heartbeat_interval, 0.2)):
        now = time.monotonic()
        if now >= deadline:
            child.discard()
            return (
                f"timed out after {timeout:.1f}s "
                f"({len(tasks)} task(s) x {policy.task_timeout:.0f}s budget)"
            )
        if now - last_beat >= heartbeat_interval:
            queue.heartbeat(item.dedup_key, owner, lease_ttl)
            last_beat = now
    try:
        detail = child.conn.recv()
    except (EOFError, OSError):
        detail = ""  # it died without a word
    if detail is None:
        return None
    exitcode = child.discard(_EXIT_GRACE)
    last_line = detail.strip().splitlines()[-1] if detail.strip() else ""
    suffix = f": {last_line}" if last_line else " (killed or crashed)"
    return f"execution child exited with code {exitcode}{suffix}"


def run_worker(
    queue_dir: Path,
    policy: Optional[RetryPolicy] = None,
    lease_ttl: float = 30.0,
    poll_interval: float = 0.5,
    heartbeat_interval: Optional[float] = None,
    max_items: Optional[int] = None,
    idle_exit: Optional[float] = None,
    install_signal_handlers: bool = False,
) -> int:
    """Drain a queue directory; returns the number of items processed.

    The worker reports in, runs :func:`warm_up` (a failure there raises
    before anything is leased), forks its execution child, then leases
    until stopped.  An idle worker waits on its bell for at most
    ``poll_interval`` seconds and records a sign of life once per
    heartbeat interval, so ``repro_workers_live`` keeps counting it.

    Runs until stopped: ``max_items`` bounds the work (handy in tests),
    ``idle_exit`` exits after that many seconds without leasable work,
    and with ``install_signal_handlers`` SIGTERM/SIGINT request a
    graceful drain — the in-flight item finishes, gets completed or
    failed honestly, and the loop exits.  Every exit stops and joins the
    execution child.  A SIGKILL needs no handling at all: the lease TTL
    is the recovery path, and the child exits once its item is done.
    """
    policy = policy or RetryPolicy()
    queue = LeaseQueue(Path(queue_dir))
    owner = default_owner()
    queue.worker_seen(owner)  # visible in /metrics even before first lease
    last_sign = time.monotonic()
    heartbeat = heartbeat_interval or max(0.1, lease_ttl / 3.0)
    stop = {"requested": False}
    bell: Optional[Bell] = None
    if install_signal_handlers:

        def _request_stop(signum: int, frame: Any) -> None:
            stop["requested"] = True
            if bell is not None:
                bell.wake()  # cut an idle wait short
            print(
                f"worker {owner}: drain requested (signal {signum}); "
                f"finishing current item",
                file=sys.stderr,
                flush=True,
            )

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    try:
        warm_up()
    except Exception as exc:
        queue.close()
        raise RuntimeError(f"worker {owner}: warm-up execution failed: {exc}") from exc
    child = _ExecutionChild(str(queue.directory))
    # bound before the first lease: an enqueue rung after it is buffered
    bell = Bell(queue.bells_dir, WORKER_BELLS)

    processed = 0
    idle_since: Optional[float] = None
    try:
        while not stop["requested"]:
            if max_items is not None and processed >= max_items:
                break
            item = queue.lease(owner, ttl=lease_ttl, max_attempts=policy.max_attempts)
            if item is None:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if now - last_sign >= heartbeat:
                    queue.worker_seen(owner)
                    last_sign = now
                if idle_exit is not None and now - idle_since >= idle_exit:
                    break
                bell.wait(min(poll_interval, heartbeat))
                continue
            idle_since = None
            started = time.monotonic()
            error = _execute_item(queue, item, owner, policy, lease_ttl, heartbeat, child)
            duration = time.monotonic() - started
            if error is None:
                queue.complete(item.dedup_key, owner, duration=duration)
            else:
                state = queue.fail(item.dedup_key, owner, error, policy, duration=duration)
                print(
                    f"worker {owner}: item {item.dedup_key[:12]} attempt "
                    f"{item.attempts}/{policy.max_attempts} failed -> "
                    f"{state or 'lease lost'}: {error}",
                    file=sys.stderr,
                    flush=True,
                )
            processed += 1
    finally:
        child.stop()
        bell.close()
        queue.close()
    return processed
