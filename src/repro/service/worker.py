"""The worker loop: lease a task group, execute it killably, report back.

``repro worker --queue-dir DIR`` attaches one of these to a queue.  Each
leased item is executed in a **forked subprocess** so the worker proper
can enforce a wall-clock timeout with ``SIGKILL`` instead of hoping a
wedged simulation honours an exception, and so an execution crash (a
segfault, an OOM kill) takes down the child, not the lease bookkeeping.
While the child runs, the parent heartbeats the lease; a worker that is
itself killed simply stops heartbeating and the queue re-leases its item
after the TTL.

Before its first lease the worker executes one tiny fixed task
in-process (:func:`warm_up`), so the modules execution imports lazily
are already in the parent and every forked child inherits them instead
of importing them again per item.  While idle it waits on a worker bell
(:mod:`repro.service.bells`) that the queue rings when work is enqueued,
with ``poll_interval`` as the longest wait without a ring.

The child commits result rows straight to the shared content-addressed
store *before* the parent marks the item done, so ``done`` in the queue
always implies rows in the store — the ordering the
:class:`~repro.service.queue.QueueExecutor` relies on.

Chaos hook: ``REPRO_SERVICE_TEST_DELAY`` (seconds, float) makes each
child sleep before executing, giving crash-injection tests a window in
which a worker provably holds a lease.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Optional

from repro.runner.plan import InstanceContext
from repro.runner.store import SQLiteResultStore
from repro.runner.tasks import GraphSpec, SweepTask, task_from_wire
from repro.service.bells import WORKER_BELLS, Bell
from repro.service.queue import LeaseQueue, LeasedItem
from repro.service.retry import RetryPolicy

__all__ = ["default_owner", "run_worker", "warm_up"]

#: env var: float seconds each execution child sleeps before working
TEST_DELAY_ENV = "REPRO_SERVICE_TEST_DELAY"


def default_owner() -> str:
    """Lease-owner identity of this process: host + pid is unique enough
    for a queue directory that lives on one filesystem."""
    return f"{socket.gethostname()}:{os.getpid()}"


def warm_up() -> None:
    """Execute one tiny fixed task in this process, off the store and queue.

    Execution imports what it needs lazily (``numpy.random``, ``numpy.ma``,
    the problem registry, ...).  A worker runs this once before its first
    lease, so each forked execution child inherits those modules instead
    of importing them again for every item.
    """
    task = SweepTask("scheme", "trivial", GraphSpec("random"), n=8, seed=0, backend="analytic")
    InstanceContext().execute(task)


def _execute_payload_child(queue_dir: str, payload: Dict[str, Any], error_pipe: Any) -> None:
    """Child-process body: deserialise, execute, commit, exit 0.

    Any failure ships its traceback up the pipe and exits nonzero so the
    parent can attach a real error message to ``fail()`` instead of just
    an exit code.
    """
    try:
        delay = float(os.environ.get(TEST_DELAY_ENV, "0") or "0")
        if delay > 0:
            time.sleep(delay)
        tasks = [task_from_wire(wire) for wire in payload["tasks"]]
        hashes = payload["hashes"]
        if len(hashes) != len(tasks):
            raise ValueError(
                f"malformed payload: {len(hashes)} hashes for {len(tasks)} tasks"
            )
        rows = InstanceContext().run_group(tasks)
        SQLiteResultStore(Path(queue_dir)).put_many(
            [
                (task_hash, task.key_dict() or {}, row)
                for task, task_hash, row in zip(tasks, hashes, rows)
            ]
        )
    except BaseException:
        try:
            error_pipe.send(traceback.format_exc(limit=8))
        except (OSError, ValueError):
            pass
        error_pipe.close()
        os._exit(1)
    error_pipe.close()
    os._exit(0)


def _execute_item(
    queue: LeaseQueue,
    item: LeasedItem,
    owner: str,
    policy: RetryPolicy,
    lease_ttl: float,
    heartbeat_interval: float,
) -> Optional[str]:
    """Run one leased item to completion; returns an error string or ``None``.

    The parent's only jobs while the child runs: watch the clock (every
    0.2 s at most) and heartbeat the lease once ``heartbeat_interval``
    has passed since the lease or the last heartbeat.  ``fork`` context
    deliberately — the child inherits the interpreter :func:`warm_up`
    warmed (and any monkeypatches a test installed).
    """
    tasks = item.payload.get("tasks") or []
    timeout = policy.item_timeout(len(tasks))
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(
        target=_execute_payload_child,
        args=(str(queue.directory), item.payload, sender),
    )
    child.start()
    sender.close()
    last_beat = time.monotonic()  # the lease itself is the first beat
    deadline = last_beat + timeout
    while child.is_alive():
        child.join(timeout=min(heartbeat_interval, 0.2))
        if not child.is_alive():
            break
        now = time.monotonic()
        if now >= deadline:
            child.kill()
            child.join()
            return (
                f"timed out after {timeout:.1f}s "
                f"({len(tasks)} task(s) x {policy.task_timeout:.0f}s budget)"
            )
        if now - last_beat >= heartbeat_interval:
            queue.heartbeat(item.dedup_key, owner, lease_ttl)
            last_beat = now
    if child.exitcode == 0:
        return None
    detail = ""
    if receiver.poll(0):
        try:
            detail = receiver.recv()
        except (EOFError, OSError):
            detail = ""
    last_line = detail.strip().splitlines()[-1] if detail.strip() else ""
    suffix = f": {last_line}" if last_line else " (killed or crashed)"
    return f"execution child exited with code {child.exitcode}{suffix}"


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
    before anything is leased), then leases until stopped.  An idle
    worker waits on its bell for at most ``poll_interval`` seconds and
    records a sign of life once per heartbeat interval, so
    ``repro_workers_live`` keeps counting it.

    Runs until stopped: ``max_items`` bounds the work (handy in tests),
    ``idle_exit`` exits after that many seconds without leasable work,
    and with ``install_signal_handlers`` SIGTERM/SIGINT request a
    graceful drain — the in-flight item finishes, gets completed or
    failed honestly, and the loop exits.  A SIGKILL needs no handling at
    all: the lease TTL is the recovery path.
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
            error = _execute_item(queue, item, owner, policy, lease_ttl, heartbeat)
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
        bell.close()
        queue.close()
    return processed
