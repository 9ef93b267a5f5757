"""Durable lease queue of task groups, and the executor that drains it.

One SQLite database (``queue.sqlite``, WAL, same directory as the result
store's ``results.sqlite``) holds everything the service needs to survive
crashes:

``jobs``
    one row per submitted sweep, keyed by the content-addressed job id
    (:func:`run_id_for` over the sweep's ordered task hashes — identical
    submissions collapse onto one row);
``items``
    one row per *task group* (the planner's shared-instance unit),
    keyed by a dedup hash of the group's sorted task hashes — two jobs
    overlapping on a group enqueue it once;
``job_items``
    which items each job is waiting on;
``quarantine``
    poison items pulled out of rotation after exhausting their attempts,
    with the error that condemned them;
``counters`` / ``workers``
    the observability registry: monotonic service counters and the
    per-worker heartbeat table, bumped **in the same transaction** as
    the transition they describe and rendered by
    :func:`repro.service.metrics.render_metrics` behind ``GET /metrics``.

The delivery contract is **at least once**: a lease is a TTL claim, not
a lock.  A worker that crashes or hangs simply stops heartbeating, its
lease expires, and the next ``lease()`` call hands the item to someone
else.  Running a task group twice is safe because results are committed
to the content-addressed store keyed by task hash — the second execution
writes byte-identical rows.  So a done item whose rows were lost from
the store later (a rebuilt corrupt file, or rows only in the files of
an older store layout, which are not read) is simply run again.
Attempts are counted at lease time, so crash-looping items (workers die
before they can even report a failure) still hit the quarantine bound.

Scheduling is **two-lane**: every job (and therefore every item) carries
a ``high`` or ``normal`` priority, and :meth:`LeaseQueue.lease` serves
the high lane first — except that after :data:`NORMAL_LANE_CREDIT`
consecutive high-lane leases one normal item is served, so a flood of
high-priority submissions can delay the normal lane by at most a bounded
factor but can never starve it.  The credit counter lives in the
``counters`` table, so the guarantee holds across any number of worker
processes sharing the queue.

Every transition is also appended to ``events.jsonl`` next to the
database (:mod:`repro.service.events`): the SQLite tables are the
scheduler's truth, the event log is the history they overwrite —
post-mortems replay the log, dashboards scrape the tables.

:class:`QueueExecutor` adapts all of this to the runner's pluggable
executor seam: ``run_tasks(..., executor=QueueExecutor(...))`` plans and
commits exactly as the in-process path does, but the groups are executed
by whatever ``repro worker`` processes are attached to the queue
directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.runner.plan import TaskGroup
from repro.runner.store import BUSY_TIMEOUT_MS, SQLiteResultStore
from repro.runner.tasks import task_to_wire
from repro.service import bells
from repro.service import metrics as service_metrics
from repro.service.events import EventLog

__all__ = [
    "DrainRequested",
    "LeaseQueue",
    "LeasedItem",
    "NORMAL_LANE_CREDIT",
    "PRIORITIES",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "QueueExecutor",
    "QuarantinedTasksError",
    "WIRE_VERSION",
    "group_dedup_key",
    "group_payload",
    "run_id_for",
]

#: version stamp inside item payloads, bumped with the wire format
WIRE_VERSION = 1

#: SQL parameter ceiling is 999 in older SQLites; stay well under it
_IN_CHUNK = 400

#: the two scheduling lanes; jobs default to normal
PRIORITY_HIGH = "high"
PRIORITY_NORMAL = "normal"
PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL)

#: consecutive high-lane leases after which one waiting normal item is
#: served regardless — the starvation bound: with both lanes non-empty,
#: the normal lane gets at least 1 lease in every NORMAL_LANE_CREDIT + 1
NORMAL_LANE_CREDIT = 4

#: counters-table key of the cross-process high-lane streak counter
_LANE_STREAK = "lane_high_streak"

QUEUE_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id   TEXT PRIMARY KEY,
    spec     TEXT NOT NULL,
    state    TEXT NOT NULL,
    error    TEXT,
    created  REAL NOT NULL,
    updated  REAL NOT NULL,
    priority TEXT NOT NULL DEFAULT 'normal'
);
CREATE TABLE IF NOT EXISTS items (
    dedup_key     TEXT PRIMARY KEY,
    payload       TEXT NOT NULL,
    state         TEXT NOT NULL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    owner         TEXT,
    lease_expires REAL,
    not_before    REAL NOT NULL DEFAULT 0,
    error         TEXT,
    created       REAL NOT NULL,
    priority      TEXT NOT NULL DEFAULT 'normal',
    leased_at     REAL
);
CREATE TABLE IF NOT EXISTS job_items (
    job_id    TEXT NOT NULL,
    dedup_key TEXT NOT NULL,
    PRIMARY KEY (job_id, dedup_key)
);
CREATE TABLE IF NOT EXISTS quarantine (
    dedup_key      TEXT PRIMARY KEY,
    payload        TEXT NOT NULL,
    attempts       INTEGER NOT NULL,
    error          TEXT,
    quarantined_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS workers (
    owner      TEXT PRIMARY KEY,
    first_seen REAL NOT NULL,
    last_seen  REAL NOT NULL,
    items_done INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_items_state ON items(state, not_before);
CREATE INDEX IF NOT EXISTS idx_items_lane ON items(priority, state, not_before);
"""

#: columns added after the PR 9 schema shipped; applied with ALTER TABLE
#: on existing databases (new databases get them from QUEUE_SCHEMA)
_MIGRATIONS = (
    ("jobs", "priority", "TEXT NOT NULL DEFAULT 'normal'"),
    ("items", "priority", "TEXT NOT NULL DEFAULT 'normal'"),
    ("items", "leased_at", "REAL"),
)


class QuarantinedTasksError(RuntimeError):
    """A job cannot finish: some of its items were quarantined.

    Raised by :meth:`QueueExecutor.run_units` only after every item that
    *can* complete has completed and been committed — one poison group
    fails the job without discarding the rest of its work (the store
    keeps it; a resubmission after ``requeue_quarantined`` picks up where
    it left off).
    """

    def __init__(self, keys: Sequence[str], errors: Dict[str, str]) -> None:
        self.keys = list(keys)
        self.errors = dict(errors)
        detail = "; ".join(
            f"{key[:12]}: {errors.get(key) or 'no error recorded'}" for key in self.keys
        )
        super().__init__(
            f"{len(self.keys)} task group(s) quarantined after exhausting retries "
            f"({detail}); inspect with LeaseQueue.quarantined() and requeue with "
            f"requeue_quarantined() once the cause is fixed"
        )


class DrainRequested(RuntimeError):
    """The service is shutting down; the job stays resumable, not failed."""


@dataclass(frozen=True)
class LeasedItem:
    """One leased queue item: the group payload plus lease bookkeeping."""

    dedup_key: str
    payload: Dict[str, Any]
    #: execution attempts consumed *including* this lease (1-based)
    attempts: int


def run_id_for(keys: Iterable[str]) -> str:
    """The stable identity of a run: sha256 over its ordered task hashes.

    This is the service's job id.
    """
    blob = json.dumps(list(keys), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def group_dedup_key(hashes: Sequence[str]) -> str:
    """Content identity of a task group: sha256 over its sorted task hashes.

    Sorted, so the key survives planner-side reorderings of the same
    work; distinct from the run id, which is order-sensitive because it
    identifies a *workload*, not a unit of it.
    """
    blob = json.dumps(sorted(hashes), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def group_payload(group: TaskGroup, hashes: Sequence[str]) -> Dict[str, Any]:
    """The wire payload a worker needs to execute ``group`` standalone."""
    return {
        "version": WIRE_VERSION,
        "hashes": list(hashes),
        "tasks": [task_to_wire(task) for task in group.tasks],
    }


class LeaseQueue:
    """TTL-lease work queue over one SQLite file in the queue directory.

    Connections are per-thread and per-process (the daemon's HTTP
    handler threads, its job threads and forked workers all open their
    own), with ``busy_timeout`` standing guard the same way it does for
    the result store.  An injectable ``clock`` keeps lease-expiry tests
    deterministic.
    """

    ITEM_PENDING = "pending"
    ITEM_LEASED = "leased"
    ITEM_DONE = "done"
    ITEM_QUARANTINED = "quarantined"

    JOB_RUNNING = "running"
    JOB_DONE = "done"
    JOB_FAILED = "failed"

    def __init__(
        self,
        directory: Path,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "queue.sqlite"
        self.clock = clock
        self.events = EventLog(self.directory / "events.jsonl", clock=clock)
        #: where waiters bind their wake-up bells (:mod:`repro.service.bells`)
        self.bells_dir = self.directory / "bells"
        self._local = threading.local()
        # create the schema once, eagerly, so concurrent first-touch is
        # settled by SQLite's own locking rather than racing CREATEs later;
        # every other connection (one per thread) only connects
        conn = self._conn()
        conn.execute("PRAGMA journal_mode=WAL")
        conn.executescript(QUEUE_SCHEMA)
        for table, column, ddl in _MIGRATIONS:
            try:
                conn.execute(f"ALTER TABLE {table} ADD COLUMN {column} {ddl}")
            except sqlite3.OperationalError:
                pass  # column already present (new schema or prior migration)

    # ------------------------------------------------------------------
    # connection plumbing

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            return conn
        # fresh connection after a fork or on first use in this thread
        conn = sqlite3.connect(
            str(self.path),
            timeout=BUSY_TIMEOUT_MS / 1000.0,
            isolation_level=None,  # explicit BEGIN IMMEDIATE below
        )
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        conn.execute("PRAGMA synchronous=NORMAL")
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    def close(self) -> None:
        """Close the calling thread's connection (the next call reopens one).

        A thread that used the queue closes its connection before it
        ends: an unclosed ``sqlite3.Connection`` sits in a reference
        cycle with its statement cache, so only the cyclic GC would free
        it (and its file descriptors).
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    class _Txn:
        def __init__(self, conn: sqlite3.Connection) -> None:
            self.conn = conn

        def __enter__(self) -> sqlite3.Connection:
            self.conn.execute("BEGIN IMMEDIATE")
            return self.conn

        def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
            if exc_type is None:
                self.conn.execute("COMMIT")
            else:
                self.conn.execute("ROLLBACK")

    def _txn(self) -> "LeaseQueue._Txn":
        return LeaseQueue._Txn(self._conn())

    # ------------------------------------------------------------------
    # jobs

    def submit_job(
        self,
        job_id: str,
        spec_document: Dict[str, Any],
        priority: str = PRIORITY_NORMAL,
    ) -> bool:
        """Record a job; ``False`` when the job id already exists (dedup)."""
        if priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}, got {priority!r}")
        now = self.clock()
        with self._txn() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO jobs"
                " (job_id, spec, state, created, updated, priority)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (job_id, json.dumps(spec_document), self.JOB_RUNNING, now, now, priority),
            )
            created = cursor.rowcount == 1
            if created:
                service_metrics.bump(conn, "repro_jobs_submitted_total")
        if created:
            self.events.append("job-submit", job=job_id, priority=priority)
        return created

    def job_record(self, job_id: str) -> Optional[Dict[str, Any]]:
        row = (
            self._conn()
            .execute(
                "SELECT job_id, spec, state, error, created, updated, priority"
                " FROM jobs WHERE job_id = ?",
                (job_id,),
            )
            .fetchone()
        )
        if row is None:
            return None
        return {
            "job_id": row[0],
            "spec": json.loads(row[1]),
            "state": row[2],
            "error": row[3],
            "created": row[4],
            "updated": row[5],
            "priority": row[6],
        }

    def list_jobs(self) -> List[Dict[str, Any]]:
        rows = self._conn().execute(
            "SELECT job_id, state, error, created, updated, priority FROM jobs"
            " ORDER BY created"
        )
        return [
            {
                "job_id": job_id,
                "state": state,
                "error": error,
                "created": created,
                "updated": updated,
                "priority": priority,
            }
            for job_id, state, error, created, updated, priority in rows
        ]

    def set_job_state(self, job_id: str, state: str, error: Optional[str] = None) -> None:
        with self._txn() as conn:
            conn.execute(
                "UPDATE jobs SET state = ?, error = ?, updated = ? WHERE job_id = ?",
                (state, error, self.clock(), job_id),
            )
            if state == self.JOB_DONE:
                service_metrics.bump(conn, "repro_jobs_done_total")
            elif state == self.JOB_FAILED:
                service_metrics.bump(conn, "repro_jobs_failed_total")
        self.events.append("job-state", job=job_id, state=state, error=error)
        bells.ring(self.bells_dir, bells.JOB_BELLS)

    def job_progress(self, job_id: str) -> Dict[str, int]:
        """Item-state counts for one job — the progress endpoint's source."""
        rows = self._conn().execute(
            "SELECT items.state, COUNT(*) FROM job_items"
            " JOIN items ON items.dedup_key = job_items.dedup_key"
            " WHERE job_items.job_id = ? GROUP BY items.state",
            (job_id,),
        )
        counts = {
            self.ITEM_PENDING: 0,
            self.ITEM_LEASED: 0,
            self.ITEM_DONE: 0,
            self.ITEM_QUARANTINED: 0,
        }
        for state, count in rows:
            counts[state] = count
        counts["total"] = sum(counts.values())
        return counts

    # ------------------------------------------------------------------
    # items

    def enqueue(
        self,
        job_id: str,
        entries: Iterable[Tuple[str, Dict[str, Any]]],
        priority: str = PRIORITY_NORMAL,
    ) -> int:
        """Attach ``(dedup_key, payload)`` items to a job; returns new items.

        ``INSERT OR IGNORE`` on the content key is the dedup: an item
        already pending, leased or done from another job (or an earlier
        attempt of this one) is linked, not re-executed.  A key sitting
        in quarantine stays quarantined — resubmitting a poison task is
        an explicit ``requeue_quarantined`` call, never a side effect.

        A high-priority enqueue *upgrades* a shared pending item to the
        high lane (a normal enqueue never downgrades one): the urgent
        submitter's latency wins, and the normal job it overlaps with
        simply benefits.
        """
        if priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}, got {priority!r}")
        now = self.clock()
        new = 0
        new_keys: List[str] = []
        with self._txn() as conn:
            for dedup_key, payload in entries:
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO items"
                    " (dedup_key, payload, state, created, priority)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (dedup_key, json.dumps(payload), self.ITEM_PENDING, now, priority),
                )
                if cursor.rowcount:
                    new += 1
                    new_keys.append(dedup_key)
                    service_metrics.bump(conn, "repro_queue_items_enqueued_total")
                elif priority == PRIORITY_HIGH:
                    conn.execute(
                        "UPDATE items SET priority = ? WHERE dedup_key = ?"
                        " AND priority != ?",
                        (PRIORITY_HIGH, dedup_key, PRIORITY_HIGH),
                    )
                conn.execute(
                    "INSERT OR IGNORE INTO job_items (job_id, dedup_key) VALUES (?, ?)",
                    (job_id, dedup_key),
                )
        for dedup_key in new_keys:
            self.events.append("enqueue", key=dedup_key, job=job_id, priority=priority)
        if new_keys:
            bells.ring(self.bells_dir, bells.WORKER_BELLS)
        return new

    def lease(self, owner: str, ttl: float, max_attempts: int) -> Optional[LeasedItem]:
        """Claim the oldest runnable item for ``ttl`` seconds, or ``None``.

        Runnable means pending with its backoff elapsed, *or* leased
        with an expired lease (the previous owner is presumed dead).
        Claiming counts an attempt; a candidate that has already burned
        ``max_attempts`` leases is quarantined here instead of handed
        out — that is how crash-looping items exit rotation even though
        no worker survives long enough to report their failure.

        Lane order is high-first, except that after
        :data:`NORMAL_LANE_CREDIT` consecutive high-lane leases the
        normal lane is tried first once.  The streak counter is a row in
        the ``counters`` table, read and written inside the lease
        transaction, so the bound holds across worker processes.
        """
        while True:
            now = self.clock()
            events: List[Tuple[str, Dict[str, Any]]] = []
            with self._txn() as conn:
                streak = service_metrics.counter_value(conn, _LANE_STREAK)
                lanes = [PRIORITY_HIGH, PRIORITY_NORMAL]
                if streak >= NORMAL_LANE_CREDIT:
                    lanes.reverse()
                row = None
                for lane in lanes:
                    row = conn.execute(
                        "SELECT dedup_key, payload, attempts, error, state, priority"
                        " FROM items WHERE priority = ? AND"
                        " ((state = ? AND not_before <= ?)"
                        "    OR (state = ? AND lease_expires <= ?))"
                        " ORDER BY created, dedup_key LIMIT 1",
                        (lane, self.ITEM_PENDING, now, self.ITEM_LEASED, now),
                    ).fetchone()
                    if row is not None:
                        break
                if row is None:
                    return None
                dedup_key, payload_text, attempts, last_error, state, priority = row
                if attempts >= max_attempts:
                    error = (
                        last_error
                        or f"lease expired {attempts} time(s); worker crashed or hung"
                    )
                    self._quarantine(conn, dedup_key, payload_text, attempts, error)
                    events.append(
                        ("quarantine", {"key": dedup_key, "attempts": attempts, "error": error})
                    )
                else:
                    expired = state == self.ITEM_LEASED
                    conn.execute(
                        "UPDATE items SET state = ?, owner = ?, lease_expires = ?,"
                        " leased_at = ?, attempts = attempts + 1 WHERE dedup_key = ?",
                        (self.ITEM_LEASED, owner, now + ttl, now, dedup_key),
                    )
                    service_metrics.bump(conn, "repro_queue_leases_total")
                    if expired:
                        service_metrics.bump(conn, "repro_queue_lease_expired_total")
                    service_metrics.set_counter(
                        conn,
                        _LANE_STREAK,
                        streak + 1 if priority == PRIORITY_HIGH else 0,
                    )
                    self._worker_seen(conn, owner, now)
                    events.append(
                        (
                            "lease",
                            {
                                "key": dedup_key,
                                "owner": owner,
                                "attempts": attempts + 1,
                                "priority": priority,
                                "expired": True if expired else None,
                            },
                        )
                    )
                    leased = LeasedItem(
                        dedup_key=dedup_key,
                        payload=json.loads(payload_text),
                        attempts=attempts + 1,
                    )
            for kind, fields in events:
                self.events.append(kind, **fields)
            if events and events[-1][0] == "lease":
                return leased
            # quarantined a crash-looping candidate: tell its jobs, then
            # try the next candidate in a new txn
            bells.ring(self.bells_dir, bells.JOB_BELLS)

    def heartbeat(self, dedup_key: str, owner: str, ttl: float) -> bool:
        """Extend a live lease; ``False`` means the lease was lost."""
        now = self.clock()
        expires = now + ttl
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE items SET lease_expires = ? WHERE dedup_key = ?"
                " AND owner = ? AND state = ?",
                (expires, dedup_key, owner, self.ITEM_LEASED),
            )
            alive = cursor.rowcount == 1
            if alive:
                service_metrics.bump(conn, "repro_queue_heartbeats_total")
                self._worker_seen(conn, owner, now)
        if alive:
            self.events.append(
                "heartbeat", key=dedup_key, owner=owner, expires=round(expires, 6)
            )
        return alive

    def complete(
        self, dedup_key: str, owner: str, duration: Optional[float] = None
    ) -> bool:
        """Mark a leased item done (results are already in the store)."""
        now = self.clock()
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE items SET state = ?, owner = NULL, lease_expires = NULL,"
                " error = NULL WHERE dedup_key = ? AND owner = ? AND state = ?",
                (self.ITEM_DONE, dedup_key, owner, self.ITEM_LEASED),
            )
            done = cursor.rowcount == 1
            if done:
                service_metrics.bump(conn, "repro_queue_completes_total")
                if duration is not None:
                    service_metrics.observe_item_seconds(conn, duration)
                self._worker_seen(conn, owner, now, done_delta=1)
        if done:
            self.events.append(
                "complete",
                key=dedup_key,
                owner=owner,
                seconds=round(duration, 6) if duration is not None else None,
            )
            bells.ring(self.bells_dir, bells.JOB_BELLS)
        return done

    def fail(
        self,
        dedup_key: str,
        owner: str,
        error: str,
        policy: Any,
        duration: Optional[float] = None,
    ) -> Optional[str]:
        """Report a failed execution; returns the item's new state.

        Under ``policy.max_attempts`` the item goes back to pending with
        a seeded-backoff ``not_before``; at the bound it is quarantined.
        A stale owner (lease already expired and re-claimed) changes
        nothing and gets ``None``.
        """
        now = self.clock()
        events: List[Tuple[str, Dict[str, Any]]] = []
        with self._txn() as conn:
            row = conn.execute(
                "SELECT payload, attempts FROM items WHERE dedup_key = ?"
                " AND owner = ? AND state = ?",
                (dedup_key, owner, self.ITEM_LEASED),
            ).fetchone()
            if row is None:
                new_state = None
            else:
                payload_text, attempts = row
                service_metrics.bump(conn, "repro_queue_failures_total")
                if duration is not None:
                    service_metrics.observe_item_seconds(conn, duration)
                self._worker_seen(conn, owner, now, done_delta=1)
                events.append(
                    (
                        "fail",
                        {
                            "key": dedup_key,
                            "owner": owner,
                            "error": error,
                            "seconds": round(duration, 6) if duration is not None else None,
                        },
                    )
                )
                if attempts >= policy.max_attempts:
                    self._quarantine(conn, dedup_key, payload_text, attempts, error)
                    events.append(
                        ("quarantine", {"key": dedup_key, "attempts": attempts, "error": error})
                    )
                    new_state = self.ITEM_QUARANTINED
                else:
                    delay = policy.backoff_delay(dedup_key, attempts)
                    not_before = now + delay
                    conn.execute(
                        "UPDATE items SET state = ?, owner = NULL, lease_expires = NULL,"
                        " not_before = ?, error = ? WHERE dedup_key = ?",
                        (self.ITEM_PENDING, not_before, error, dedup_key),
                    )
                    service_metrics.bump(conn, "repro_queue_requeues_total")
                    events.append(
                        ("requeue", {"key": dedup_key, "not_before": round(not_before, 6)})
                    )
                    new_state = self.ITEM_PENDING
        for kind, fields in events:
            self.events.append(kind, **fields)
        if new_state is not None:
            bells.ring(self.bells_dir, bells.JOB_BELLS)
        return new_state

    def _quarantine(
        self,
        conn: sqlite3.Connection,
        dedup_key: str,
        payload_text: str,
        attempts: int,
        error: str,
    ) -> None:
        conn.execute(
            "UPDATE items SET state = ?, owner = NULL, lease_expires = NULL,"
            " error = ? WHERE dedup_key = ?",
            (self.ITEM_QUARANTINED, error, dedup_key),
        )
        conn.execute(
            "INSERT OR REPLACE INTO quarantine"
            " (dedup_key, payload, attempts, error, quarantined_at)"
            " VALUES (?, ?, ?, ?, ?)",
            (dedup_key, payload_text, attempts, error, self.clock()),
        )
        service_metrics.bump(conn, "repro_queue_quarantines_total")

    def _worker_seen(
        self,
        conn: sqlite3.Connection,
        owner: str,
        now: float,
        done_delta: int = 0,
    ) -> None:
        """Upsert the ``workers`` heartbeat row inside the caller's txn."""
        conn.execute(
            "INSERT INTO workers (owner, first_seen, last_seen, items_done)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT(owner) DO UPDATE SET last_seen = excluded.last_seen,"
            " items_done = items_done + excluded.items_done",
            (owner, now, now, done_delta),
        )

    def worker_seen(self, owner: str, done_delta: int = 0) -> None:
        """Record a sign of life from ``owner`` (liveness gauge source)."""
        with self._txn() as conn:
            self._worker_seen(conn, owner, self.clock(), done_delta=done_delta)

    def item_states(self, keys: Sequence[str]) -> Dict[str, Tuple[str, Optional[str]]]:
        """``{dedup_key: (state, error)}`` for the given keys, chunked."""
        states: Dict[str, Tuple[str, Optional[str]]] = {}
        conn = self._conn()
        for start in range(0, len(keys), _IN_CHUNK):
            chunk = list(keys[start : start + _IN_CHUNK])
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                f"SELECT dedup_key, state, error FROM items WHERE dedup_key IN ({marks})",
                chunk,
            )
            for dedup_key, state, error in rows:
                states[dedup_key] = (state, error)
        return states

    def quarantined(self) -> List[Dict[str, Any]]:
        rows = self._conn().execute(
            "SELECT dedup_key, attempts, error, quarantined_at FROM quarantine"
            " ORDER BY quarantined_at"
        )
        return [
            {
                "dedup_key": dedup_key,
                "attempts": attempts,
                "error": error,
                "quarantined_at": quarantined_at,
            }
            for dedup_key, attempts, error, quarantined_at in rows
        ]

    def requeue_quarantined(self, keys: Optional[Sequence[str]] = None) -> int:
        """Put quarantined items back in rotation with a fresh attempt budget."""
        requeued_keys: List[str] = []
        with self._txn() as conn:
            if keys is None:
                keys = [
                    row[0] for row in conn.execute("SELECT dedup_key FROM quarantine")
                ]
            for dedup_key in keys:
                cursor = conn.execute(
                    "UPDATE items SET state = ?, attempts = 0, owner = NULL,"
                    " lease_expires = NULL, not_before = 0, error = NULL"
                    " WHERE dedup_key = ? AND state = ?",
                    (self.ITEM_PENDING, dedup_key, self.ITEM_QUARANTINED),
                )
                if cursor.rowcount:
                    requeued_keys.append(dedup_key)
                    service_metrics.bump(conn, "repro_queue_quarantine_requeues_total")
                conn.execute("DELETE FROM quarantine WHERE dedup_key = ?", (dedup_key,))
        for dedup_key in requeued_keys:
            self.events.append("quarantine-requeue", key=dedup_key)
        if requeued_keys:
            bells.ring(self.bells_dir, bells.WORKER_BELLS)
        return len(requeued_keys)

    def rerun_done(self, dedup_key: str, job_id: str) -> bool:
        """Send a done item back to pending because its rows are missing.

        ``complete()`` only ever follows the worker's commit, so a done
        item lacks rows only when they were lost afterwards: the store
        file was rebuilt after corruption or deleted by hand, or the
        item finished under an older store layout, whose files are not
        read.  The item gets a fresh attempt budget, as a requeued
        quarantined item does.
        """
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE items SET state = ?, attempts = 0, owner = NULL,"
                " lease_expires = NULL, not_before = 0, error = NULL"
                " WHERE dedup_key = ? AND state = ?",
                (self.ITEM_PENDING, dedup_key, self.ITEM_DONE),
            )
            rerun = cursor.rowcount == 1
        if rerun:
            self.events.append("rerun", key=dedup_key, job=job_id)
            bells.ring(self.bells_dir, bells.WORKER_BELLS)
        return rerun

    def stats(self) -> Dict[str, Any]:
        """Queue-wide counters for ``/healthz`` and operator eyes."""
        items = {
            state: count
            for state, count in self._conn().execute(
                "SELECT state, COUNT(*) FROM items GROUP BY state"
            )
        }
        jobs = {
            state: count
            for state, count in self._conn().execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            )
        }
        return {"items": items, "jobs": jobs}

    # ------------------------------------------------------------------
    # retention

    def gc(
        self,
        job_ttl: float = 7 * 24 * 3600.0,
        keep_last: int = 3,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Prune terminal jobs older than ``job_ttl`` and their orphans.

        Retention never touches live state: only ``done``/``failed``
        jobs are candidates, the ``keep_last`` most recently updated
        terminal jobs are always kept regardless of age, and an item is
        removed only when it is itself terminal (``done`` or
        ``quarantined``) *and* no surviving job still references it —
        pending and leased items are untouchable by construction.  A
        pruned job's artifacts directory goes with it.

        Returns ``{"jobs": [...], "items": [...], "quarantine": N}``.
        """
        if now is None:
            now = self.clock()
        cutoff = now - job_ttl
        with self._txn() as conn:
            terminal = [
                row[0]
                for row in conn.execute(
                    "SELECT job_id FROM jobs WHERE state IN (?, ?)"
                    " ORDER BY updated DESC, job_id",
                    (self.JOB_DONE, self.JOB_FAILED),
                )
            ]
            candidates = terminal[max(0, int(keep_last)):]
            removed_jobs: List[str] = []
            for start in range(0, len(candidates), _IN_CHUNK):
                chunk = candidates[start : start + _IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                removed_jobs.extend(
                    row[0]
                    for row in conn.execute(
                        f"SELECT job_id FROM jobs WHERE job_id IN ({marks})"
                        " AND updated <= ?",
                        (*chunk, cutoff),
                    )
                )
            for start in range(0, len(removed_jobs), _IN_CHUNK):
                chunk = removed_jobs[start : start + _IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                conn.execute(f"DELETE FROM jobs WHERE job_id IN ({marks})", chunk)
                conn.execute(f"DELETE FROM job_items WHERE job_id IN ({marks})", chunk)
            # terminal items nothing references any more (items shared
            # with a surviving job keep their row — and their cache hit)
            removed_items = [
                row[0]
                for row in conn.execute(
                    "SELECT dedup_key FROM items WHERE state IN (?, ?)"
                    " AND NOT EXISTS (SELECT 1 FROM job_items"
                    "                 WHERE job_items.dedup_key = items.dedup_key)",
                    (self.ITEM_DONE, self.ITEM_QUARANTINED),
                )
            ]
            for start in range(0, len(removed_items), _IN_CHUNK):
                chunk = removed_items[start : start + _IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                conn.execute(f"DELETE FROM items WHERE dedup_key IN ({marks})", chunk)
            cursor = conn.execute(
                "DELETE FROM quarantine WHERE NOT EXISTS"
                " (SELECT 1 FROM items WHERE items.dedup_key = quarantine.dedup_key)"
            )
            removed_quarantine = cursor.rowcount
            if removed_jobs:
                service_metrics.bump(
                    conn, "repro_gc_jobs_removed_total", len(removed_jobs)
                )
            if removed_items:
                service_metrics.bump(
                    conn, "repro_gc_items_removed_total", len(removed_items)
                )
        for job_id in removed_jobs:
            shutil.rmtree(self.directory / "artifacts" / job_id, ignore_errors=True)
        if removed_jobs or removed_items or removed_quarantine:
            self.events.append(
                "gc",
                jobs=sorted(removed_jobs),
                items=sorted(removed_items),
                quarantine=removed_quarantine,
            )
        return {
            "jobs": sorted(removed_jobs),
            "items": sorted(removed_items),
            "quarantine": removed_quarantine,
        }


class QueueExecutor:
    """Runner executor that ships task groups through a :class:`LeaseQueue`.

    Drop-in for :class:`repro.runner.runner.LocalExecutor`:
    ``run_units`` serialises each :class:`TaskGroup`,
    enqueues it under its content key, then waits on a job bell
    (:mod:`repro.service.bells`) and re-reads the item states each time
    an item finishes — or after ``poll_interval`` seconds without a
    ring — committing each group's rows from the shared result store
    the moment its item completes.  Commit order is completion order —
    the rows themselves are deterministic and the report layer sorts,
    so artifacts stay byte-identical to serial execution.

    A done item whose rows are missing from the store is sent back to
    pending once (:meth:`LeaseQueue.rerun_done`) and waited on again;
    rows missing after that rerun raise.

    Quarantined items do not block the rest of the job: the executor
    keeps draining until only quarantined work remains, then raises
    :class:`QuarantinedTasksError`.  A set ``stop_event`` raises
    :class:`DrainRequested` instead, leaving the job resumable.
    """

    def __init__(
        self,
        queue: LeaseQueue,
        job_id: str,
        poll_interval: float = 0.2,
        stop_event: Optional[threading.Event] = None,
        store: Optional[SQLiteResultStore] = None,
        priority: str = PRIORITY_NORMAL,
    ) -> None:
        self.queue = queue
        self.job_id = job_id
        self.poll_interval = poll_interval
        self.stop_event = stop_event
        self.priority = priority
        #: without one, ``run_units`` opens (and closes) its own, so the
        #: executor can be built on one thread and run on another
        #: (sqlite connections are thread-affine)
        self._store = store

    def run_units(
        self,
        units: Sequence[TaskGroup],
        commit: Callable[[List[Tuple[int, Dict[str, Any]]]], None],
    ) -> None:
        # per dedup key, every planner group waiting on it — each keeps
        # its own (indices, hashes) pairing so commit targets stay
        # aligned even if two groups order the same tasks differently
        pending: Dict[str, List[Tuple[Tuple[int, ...], List[str]]]] = {}
        entries: List[Tuple[str, Dict[str, Any]]] = []
        for unit in units:
            hashes = [task.task_hash() for task in unit.tasks]
            dedup_key = group_dedup_key(hashes)
            entries.append((dedup_key, group_payload(unit, hashes)))
            pending.setdefault(dedup_key, []).append((unit.indices, hashes))

        quarantined_errors: Dict[str, str] = {}
        rerun: Set[str] = set()
        with contextlib.ExitStack() as resources:
            # the bell exists before the first state check, so a completion
            # rung between a check and the wait is buffered, not missed
            bell = resources.enter_context(
                bells.Bell(self.queue.bells_dir, bells.JOB_BELLS)
            )
            store = self._store
            if store is None:
                store = resources.enter_context(
                    contextlib.closing(SQLiteResultStore(self.queue.directory))
                )
            self.queue.enqueue(self.job_id, entries, priority=self.priority)
            while pending:
                if self.stop_event is not None and self.stop_event.is_set():
                    raise DrainRequested(
                        f"service draining with {len(pending)} task group(s) outstanding; "
                        f"job {self.job_id} resumes on restart"
                    )
                states = self.queue.item_states(list(pending))
                for dedup_key, (state, error) in states.items():
                    if dedup_key not in pending:
                        continue
                    if state == LeaseQueue.ITEM_DONE:
                        batch = self._rows_for(store, pending[dedup_key])
                        if batch is None:
                            if dedup_key in rerun:
                                # rows lost again after this job's own
                                # rerun: fail loudly, don't spin
                                raise RuntimeError(
                                    f"queue item {dedup_key[:12]} is done but its results "
                                    f"are missing from the store, even after a rerun; was "
                                    f"the queue directory garbage-collected mid-job?"
                                )
                            rerun.add(dedup_key)
                            self.queue.rerun_done(dedup_key, self.job_id)
                            continue
                        del pending[dedup_key]
                        commit(batch)
                    elif state == LeaseQueue.ITEM_QUARANTINED:
                        pending.pop(dedup_key)
                        quarantined_errors[dedup_key] = error or ""
                if pending:
                    bell.wait(self.poll_interval)
        if quarantined_errors:
            raise QuarantinedTasksError(
                sorted(quarantined_errors), quarantined_errors
            )

    @staticmethod
    def _rows_for(
        store: SQLiteResultStore,
        waiters: List[Tuple[Tuple[int, ...], List[str]]],
    ) -> Optional[List[Tuple[int, Dict[str, Any]]]]:
        """The ``(index, row)`` batch of a done item, or ``None`` if a row is missing."""
        batch: List[Tuple[int, Dict[str, Any]]] = []
        for indices, hashes in waiters:
            for index, task_hash in zip(indices, hashes):
                row = store.get(task_hash)
                if row is None:
                    return None
                batch.append((index, row))
        return batch
