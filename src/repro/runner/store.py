"""WAL-mode SQLite result store behind ``--cache-dir``.

A one-file-per-task cache tops out long before production-scale sweeps:
a full ``specs/paper.toml`` grid already means hundreds of files, and
million-task sweeps would mean millions of inodes, O(files) warm-up
stats and no transactional way to checkpoint a run.  This module keeps
the lookup/store contract of a cache (``get`` / ``put`` / ``put_many``,
``hits`` / ``misses`` counters, a corrupt or version-mismatched entry is
a miss) on top of one SQLite file:

* **Layout** — every row lives in ``results.sqlite`` inside the store
  directory, keyed by task hash.  One file is enough because its writes
  are few: the runner commits once per group from its parent process
  (``--jobs`` workers hand their rows back), and the service once per
  item, while every item already takes several write transactions on
  the one ``queue.sqlite``.  Writers can still overlap — the execution
  children of different service workers, or concurrent runs on one
  ``--cache-dir`` — and the concurrency rules below keep that safe.
* **Concurrency** — the file runs in WAL mode (readers never block the
  writer, the writer never blocks readers) with a 30 s busy timeout;
  writes are batched upserts (``INSERT OR REPLACE``) inside one
  ``BEGIN IMMEDIATE`` transaction per batch, retried behind a seeded
  backoff if the lock still times out, so parallel ``--jobs`` sweeps
  and wholly concurrent invocations interleave safely.
* **Corruption recovery** — a file that fails to open or query is
  treated as all-misses; the first write deletes and recreates it, so a
  torn file costs recomputing its rows, never a crash.
* **Byte identity** — rows are stored as ``json.dumps`` text
  (``repr``-round-tripping floats), so a sweep served from the store is
  byte-identical to a fresh one.

``repro store`` exposes :meth:`SQLiteResultStore.stats` and
:meth:`SQLiteResultStore.gc` for maintenance.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "BUSY_TIMEOUT_MS",
    "LOCK_RETRIES",
    "STORE_FILE",
    "STORE_SCHEMA_VERSION",
    "SQLiteResultStore",
]

#: bump when the on-disk table layout changes; a file carrying another
#: schema version is dropped and rebuilt (its rows become misses)
STORE_SCHEMA_VERSION = 1

#: the file, inside the store directory, that holds every row
STORE_FILE = "results.sqlite"

#: how long one SQLite call waits on another writer before raising
#: ``database is locked`` — set explicitly with ``PRAGMA busy_timeout``
#: (the ``connect(timeout=...)`` handler alone is invisible to
#: introspection and silently reset by some pragmas)
BUSY_TIMEOUT_MS = 30_000

#: bounded retries a write gets after ``database is locked`` surfaces
#: *despite* the busy timeout (WAL checkpoint starvation under many
#: long-lived writers); each retry sleeps a seeded exponential backoff,
#: then the error is real and raises
LOCK_RETRIES = 5

#: first lock-retry delay in seconds (doubles per attempt, capped)
_LOCK_BACKOFF_BASE = 0.05
_LOCK_BACKOFF_CAP = 2.0

def _is_locked(exc: sqlite3.Error) -> bool:
    """Whether an error is SQLite's transient lock/busy condition."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc)
    return "database is locked" in message or "database table is locked" in message


def _lock_backoff_delay(token: str, attempt: int) -> float:
    """The seeded backoff before lock-retry ``attempt`` (0-based).

    Exponential with a deterministic jitter derived from ``token`` (the
    store file plus the writer's pid), so concurrent writers that
    collided once fan out over different moments instead of stampeding
    the file again in lockstep — without drawing from any global RNG.
    """
    base = min(_LOCK_BACKOFF_CAP, _LOCK_BACKOFF_BASE * (2**attempt))
    digest = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2**32  # [0, 1)
    return base * (0.5 + jitter)


def _current_generation() -> Callable[[Any], bool]:
    """A predicate: could stored task content still hash to a key the runner asks for?"""
    from repro.runner.tasks import TASK_FORMAT_VERSION, _library_version, backend_version
    from repro.simulator.adversary import ADVERSARY_VERSION
    from repro.simulator.backends import BACKENDS

    lib = _library_version()
    versions = {backend: backend_version(backend) for backend in BACKENDS}

    def live(task: Any) -> bool:
        if not isinstance(task, dict):
            return False
        backend = task.get("backend")
        fault = task.get("fault")
        return (
            task.get("lib") == lib
            and task.get("format") == TASK_FORMAT_VERSION
            and isinstance(backend, str)
            and backend in versions
            and task.get("backend_version") == versions[backend]
            and (
                fault is None
                or (isinstance(fault, dict) and fault.get("adversary_version") == ADVERSARY_VERSION)
            )
        )

    return live


class SQLiteResultStore:
    """One SQLite file behind one ``get`` / ``put`` / ``put_many`` cache."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"cannot use {self.directory!r} as a store directory: {exc}"
            ) from exc
        self.path = self.directory / STORE_FILE
        #: cache-hit / miss counters of this process (for reporting)
        self.hits = 0
        self.misses = 0
        self._connection: Optional[sqlite3.Connection] = None
        self._pid = os.getpid()
        try:
            self._conn()
        except sqlite3.Error:
            # a corrupt file: its lookups miss and the first write
            # rebuilds it — opening the store must not fail
            pass

    # ------------------------------------------------------------------ #
    # connection plumbing
    # ------------------------------------------------------------------ #

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=BUSY_TIMEOUT_MS / 1000.0, isolation_level=None
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        # explicit busy handler: connect(timeout=...) sets the same thing,
        # but the pragma survives later pragma churn and is inspectable
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        conn.execute("CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        row = conn.execute("SELECT value FROM meta WHERE key='schema_version'").fetchone()
        if row is not None and row[0] != str(STORE_SCHEMA_VERSION):
            # a file written by another schema generation: its rows are
            # stale by definition — drop and rebuild
            conn.execute("DROP TABLE IF EXISTS results")
            conn.execute("DELETE FROM meta")
            row = None
        conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " task TEXT NOT NULL,"
            " result TEXT NOT NULL)"
        )
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
        return conn

    def _conn(self) -> sqlite3.Connection:
        # connections must not cross a fork: a child re-opens its own
        if os.getpid() != self._pid:
            self._connection = None
            self._pid = os.getpid()
        if self._connection is None:
            self._connection = self._connect()
        return self._connection

    def _recover(self) -> None:
        """Delete and recreate a file that SQLite refuses to use.

        The whole file (plus its WAL sidecars) is dropped and started
        fresh — the rows it held become recomputable misses, never an
        error.
        """
        self.close()
        for victim in (self.path, Path(f"{self.path}-wal"), Path(f"{self.path}-shm")):
            try:
                victim.unlink()
            except OSError:
                pass
        self._conn()

    def close(self) -> None:
        """Close the open connection (the store can be reopened)."""
        conn, self._connection = self._connection, None
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close never fails in practice
                pass

    def __getstate__(self) -> Dict[str, Any]:
        # picklable for multiprocessing: connections are per-process
        state = self.__dict__.copy()
        state["_connection"] = None
        return state

    # ------------------------------------------------------------------ #
    # the cache contract
    # ------------------------------------------------------------------ #

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result row for ``key``, or ``None`` on any miss."""
        try:
            row = (
                self._conn()
                .execute("SELECT result FROM results WHERE key = ?", (key,))
                .fetchone()
            )
        except sqlite3.Error:
            # unreadable file: every lookup is a miss; close the
            # connection so a later write can rebuild the file
            self.close()
            self.misses += 1
            return None
        if row is None:
            self.misses += 1
            return None
        try:
            result = json.loads(row[0])
        except ValueError:
            self.misses += 1
            return None
        if not isinstance(result, dict):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, task_content: Dict[str, Any], result: Dict[str, Any]) -> None:
        """Atomically persist one result row under ``key``."""
        self.put_many([(key, task_content, result)])

    def put_many(
        self, items: Iterable[Tuple[str, Dict[str, Any], Dict[str, Any]]]
    ) -> None:
        """Upsert a batch of rows in one transaction.

        The batch is the runner's checkpoint unit: a killed run loses at
        most the groups whose transaction had not committed yet, and its
        rerun serves everything committed before the kill.
        """
        # no sort_keys: a row read back must serialise
        # byte-identically to a freshly computed one
        rows = [
            (key, json.dumps(task_content), json.dumps(result))
            for key, task_content, result in items
        ]
        if rows:
            self._upsert(rows)

    @staticmethod
    def _is_corruption(exc: sqlite3.Error) -> bool:
        """Whether an error means the store *file* is beyond saving.

        Only actual corruption justifies deleting the file: transient
        conditions — ``database is locked`` after the busy timeout, a
        full disk — raise :class:`sqlite3.OperationalError` and must
        surface to the caller, not destroy committed rows.
        """
        if isinstance(
            exc,
            (
                sqlite3.OperationalError,
                sqlite3.IntegrityError,
                sqlite3.ProgrammingError,
                sqlite3.InterfaceError,
            ),
        ):
            return False
        message = str(exc)
        return (
            type(exc) is sqlite3.DatabaseError
            or "malformed" in message
            or "not a database" in message
        )

    #: sleeping primitive of the lock-retry loop (tests stub it to count
    #: backoffs without waiting them out)
    _sleep = staticmethod(time.sleep)

    def _upsert(self, rows: List[Tuple[str, str, str]]) -> None:
        lock_attempts = 0
        recovered = False
        while True:
            try:
                conn = self._conn()
                conn.execute("BEGIN IMMEDIATE")
                try:
                    conn.executemany(
                        "INSERT OR REPLACE INTO results (key, task, result) VALUES (?, ?, ?)",
                        rows,
                    )
                    conn.execute("COMMIT")
                except BaseException:
                    try:
                        conn.execute("ROLLBACK")
                    except sqlite3.Error:
                        pass  # surface the original error, not the rollback's
                    raise
                return
            except sqlite3.Error as exc:
                # three tiers: a transient lock gets bounded seeded-backoff
                # retries (long-lived service writers must not surface it
                # as a failure); a corrupt file is rebuilt once and the
                # write retried; anything else (disk full, a bug) is a
                # real error worth surfacing — never grounds for deleting
                # committed rows
                if _is_locked(exc) and lock_attempts < LOCK_RETRIES:
                    self._sleep(
                        _lock_backoff_delay(f"{self.path}:{os.getpid()}", lock_attempts)
                    )
                    lock_attempts += 1
                    continue
                if recovered or not self._is_corruption(exc):
                    raise
                recovered = True
                self._recover()

    # ------------------------------------------------------------------ #
    # maintenance (the `repro store` command)
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """The row count and on-disk size of the store.

        ``bytes`` counts every ``results.sqlite*`` file: committed rows can
        sit in the ``-wal`` sidecar until a checkpoint.  A file SQLite
        cannot query reports ``rows: None`` (corrupt — its lookups miss
        until a write rebuilds it).
        """
        size = 0
        for path in self.directory.glob(f"{STORE_FILE}*"):
            try:
                size += path.stat().st_size
            except OSError:  # a sidecar the last connection's close removed
                pass
        try:
            rows = self._conn().execute("SELECT COUNT(*) FROM results").fetchone()[0]
        except sqlite3.Error:
            self.close()
            rows = None
        return {
            "backend": "sqlite",
            "directory": str(self.directory),
            "schema_version": STORE_SCHEMA_VERSION,
            "rows": rows,
            "bytes": size,
        }

    def gc(self, vacuum: bool = True) -> Dict[str, int]:
        """Drop rows no current task hash can ever reference again.

        Task hashes mix in the library version, the task format, the
        backend's semantic version and, for faulty tasks, the adversary's
        version, so rows whose stored task content names another
        generation of any of them are dead weight: they can never be
        served, only grow the file.  Unparseable task content counts as
        dead too.
        """
        is_live = _current_generation()
        try:
            conn = self._conn()
            stored = conn.execute("SELECT key, task FROM results").fetchall()
        except sqlite3.Error:
            self.close()
            return {"removed": 0, "kept": 0}
        dead: List[Tuple[str]] = []
        for key, task_text in stored:
            try:
                live = is_live(json.loads(task_text))
            except ValueError:
                live = False
            if not live:
                dead.append((key,))
        if dead:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany("DELETE FROM results WHERE key = ?", dead)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            if vacuum:
                # only a file that actually shed rows has space to
                # reclaim; VACUUM rewrites the whole file, so running it
                # otherwise would be pure wasted I/O
                conn.execute("VACUUM")
        return {"removed": len(dead), "kept": len(stored) - len(dead)}
