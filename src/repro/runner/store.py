"""Sharded, WAL-mode SQLite result store behind ``--cache-dir``.

A one-file-per-task cache tops out long before production-scale sweeps:
a full ``specs/paper.toml`` grid already means hundreds of files, and
million-task sweeps would mean millions of inodes, O(files) warm-up
stats and no transactional way to checkpoint a run.  This module keeps
the lookup/store contract of a cache (``get`` / ``put`` / ``put_many``,
``hits`` / ``misses`` counters, a corrupt or version-mismatched entry is
a miss) on top of a small number of SQLite files:

* **Shard layout** — ``shard-00.sqlite`` ... ``shard-NN.sqlite`` inside
  the store directory; a task hash is routed by its leading hex digits
  (``int(key[:8], 16) % shards``), so concurrent sweeps writing disjoint
  regions of the key space rarely contend on the same file.  The shard
  count is fixed at creation and recorded in a ``store.layout`` claimed
  atomically (``os.link`` of a fully written temp file, so even two
  processes racing to create a brand-new directory agree): reopening a
  directory always adopts the layout on disk, and two openers can never
  disagree on routing.
* **Concurrency** — every shard runs in WAL mode (readers never block
  the writer, the writer never blocks readers) with a 30 s busy
  timeout; writes are batched upserts (``INSERT OR REPLACE``) inside
  one ``BEGIN IMMEDIATE`` transaction per shard, so parallel ``--jobs``
  sweeps and wholly concurrent invocations interleave safely.
* **Corruption recovery** — a shard that fails to open or query is
  treated as all-misses; the first write to it deletes and recreates
  the shard file, so one torn file costs recomputation, never a crash.
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
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "DEFAULT_BUSY_TIMEOUT_MS",
    "DEFAULT_LOCK_RETRIES",
    "DEFAULT_SHARDS",
    "STORE_SCHEMA_VERSION",
    "SQLiteResultStore",
]

#: bump when the on-disk table layout changes; a shard carrying another
#: schema version is dropped and rebuilt (its rows become misses)
STORE_SCHEMA_VERSION = 1

#: default shard count of a freshly created store.  Shards only need to
#: spread *file-level* contention between concurrent writers (row-level
#: conflicts are already resolved by the upsert), so a small power of
#: two is plenty; reopening an existing store ignores this and adopts
#: the on-disk layout.
DEFAULT_SHARDS = 4

#: how long one SQLite call waits on another writer before raising
#: ``database is locked`` — set explicitly with ``PRAGMA busy_timeout``
#: (the ``connect(timeout=...)`` handler alone is invisible to
#: introspection and silently reset by some pragmas)
DEFAULT_BUSY_TIMEOUT_MS = 30_000

#: bounded retries a write gets after ``database is locked`` surfaces
#: *despite* the busy timeout (WAL checkpoint starvation under many
#: long-lived writers); each retry sleeps a seeded exponential backoff,
#: then the error is real and raises
DEFAULT_LOCK_RETRIES = 5

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
    shard identity plus the writer's pid), so concurrent writers that
    collided once fan out over different moments instead of stampeding
    the shard again in lockstep — without drawing from any global RNG.
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


def _process_exists(pid: int) -> bool:
    """Whether process ``pid`` exists (signal 0 only probes)."""
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:
        return True  # alive, owned by another user
    return True


class SQLiteResultStore:
    """N SQLite shard files behind one ``get`` / ``put`` / ``put_many`` cache."""

    def __init__(
        self,
        directory: Union[str, Path],
        shards: int = DEFAULT_SHARDS,
        busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS,
        lock_retries: int = DEFAULT_LOCK_RETRIES,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        #: lock-contention posture: how long a call blocks inside SQLite
        #: before ``database is locked``, and how many seeded-backoff
        #: retries a write gets on top (tests shrink both)
        self.busy_timeout_ms = busy_timeout_ms
        self.lock_retries = lock_retries
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"cannot use {self.directory!r} as a store directory: {exc}"
            ) from exc
        #: shard count: whatever ``store.layout`` records wins, so every
        #: opener of one directory routes keys identically — including
        #: two processes racing to create a brand-new directory, which
        #: the atomic layout claim serialises
        self.shards = self._claim_layout(shards)
        #: cache-hit / miss counters of this process (for reporting)
        self.hits = 0
        self.misses = 0
        self._conns: Dict[int, sqlite3.Connection] = {}
        self._pid = os.getpid()
        for index in range(self.shards):
            try:
                self._conn(index)
            except sqlite3.Error:
                # a corrupt shard file: its lookups miss and the first
                # write rebuilds it — opening the store must not fail
                pass

    # ------------------------------------------------------------------ #
    # shard plumbing
    # ------------------------------------------------------------------ #

    @property
    def layout_path(self) -> Path:
        """The file pinning this directory's shard count (JSON content)."""
        return self.directory / "store.layout"

    def _claim_layout(self, requested: int) -> int:
        """Agree on the directory's shard count, atomically.

        Exactly one opener of a brand-new directory wins the claim; every
        other opener (concurrent or later) reads the winner's count.  The
        claim is an ``os.link`` of a *fully written* temp file, so a
        reader can never observe a partially written ``store.layout``.
        Directories created before the layout file existed fall back to
        counting the shard files on disk (and pin that count for future
        openers).
        """
        try:
            payload = json.loads(self.layout_path.read_text(encoding="utf-8"))
            return int(payload["shards"])
        except (OSError, ValueError, KeyError, TypeError):
            pass
        existing = sorted(self.directory.glob("shard-*.sqlite"))
        count = len(existing) if existing else requested
        blob = json.dumps({"schema_version": STORE_SCHEMA_VERSION, "shards": count})
        tmp = self.directory / f".layout.{os.getpid()}.tmp"
        tmp.write_text(blob, encoding="utf-8")
        try:
            os.link(tmp, self.layout_path)
        except FileExistsError:
            # another opener won the race: adopt its layout below
            pass
        except OSError:  # pragma: no cover - filesystems without hard links
            # non-atomic fallback; fine on filesystems that cannot race
            if not self.layout_path.exists():
                os.replace(tmp, self.layout_path)
                return count
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        payload = json.loads(self.layout_path.read_text(encoding="utf-8"))
        return int(payload["shards"])

    def shard_for(self, key: str) -> int:
        """The shard index a key routes to (stable across processes)."""
        try:
            prefix = int(key[:8], 16)
        except ValueError:
            # non-hash keys (tests, ad-hoc use) still need a stable route
            prefix = zlib.crc32(key.encode("utf-8"))
        return prefix % self.shards

    def path_for_shard(self, index: int) -> Path:
        """The file shard ``index`` lives in."""
        return self.directory / f"shard-{index:02d}.sqlite"

    def _connect(self, index: int) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path_for_shard(index),
            timeout=self.busy_timeout_ms / 1000.0,
            isolation_level=None,
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        # explicit busy handler: connect(timeout=...) sets the same thing,
        # but the pragma survives later pragma churn and is inspectable
        conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_ms)}")
        conn.execute("CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        row = conn.execute("SELECT value FROM meta WHERE key='schema_version'").fetchone()
        if row is not None and row[0] != str(STORE_SCHEMA_VERSION):
            # a shard written by another schema generation: its rows are
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
                "INSERT OR REPLACE INTO meta (key, value) VALUES"
                " ('schema_version', ?), ('shards', ?), ('shard_index', ?)",
                (str(STORE_SCHEMA_VERSION), str(self.shards), str(index)),
            )
        return conn

    def _conn(self, index: int) -> sqlite3.Connection:
        # connections must not cross a fork: a child re-opens its own
        if os.getpid() != self._pid:
            self._conns = {}
            self._pid = os.getpid()
        conn = self._conns.get(index)
        if conn is None:
            conn = self._connect(index)
            self._conns[index] = conn
        return conn

    def _drop_conn(self, index: int) -> None:
        conn = self._conns.pop(index, None)
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close never fails in practice
                pass

    def _recover_shard(self, index: int) -> None:
        """Delete and recreate a shard that SQLite refuses to use.

        The whole file (plus its WAL sidecars) is dropped and started
        fresh — the rows it held become recomputable misses, never an
        error.
        """
        self._drop_conn(index)
        path = self.path_for_shard(index)
        for victim in (path, Path(f"{path}-wal"), Path(f"{path}-shm")):
            try:
                victim.unlink()
            except OSError:
                pass
        self._conn(index)

    def close(self) -> None:
        """Close every open connection (the store can be reopened)."""
        for index in list(self._conns):
            self._drop_conn(index)

    def __getstate__(self) -> Dict[str, Any]:
        # picklable for multiprocessing: connections are per-process
        state = self.__dict__.copy()
        state["_conns"] = {}
        return state

    # ------------------------------------------------------------------ #
    # the cache contract
    # ------------------------------------------------------------------ #

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result row for ``key``, or ``None`` on any miss."""
        try:
            row = (
                self._conn(self.shard_for(key))
                .execute("SELECT result FROM results WHERE key = ?", (key,))
                .fetchone()
            )
        except sqlite3.Error:
            # unreadable shard: every lookup into it is a miss; drop the
            # connection so a later write can rebuild the file
            self._drop_conn(self.shard_for(key))
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
        """Upsert a batch of rows, one transaction per touched shard.

        The batch is the runner's checkpoint unit: a killed run loses at
        most the groups whose transaction had not committed yet, and its
        rerun serves everything committed before the kill.
        """
        by_shard: Dict[int, List[Tuple[str, str, str]]] = {}
        for key, task_content, result in items:
            # no sort_keys: a row read back must serialise
            # byte-identically to a freshly computed one
            by_shard.setdefault(self.shard_for(key), []).append(
                (key, json.dumps(task_content), json.dumps(result))
            )
        for index, rows in by_shard.items():
            self._upsert_shard(index, rows)

    @staticmethod
    def _is_corruption(exc: sqlite3.Error) -> bool:
        """Whether an error means the shard *file* is beyond saving.

        Only actual corruption justifies deleting the shard: transient
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

    def _upsert_shard(self, index: int, rows: List[Tuple[str, str, str]]) -> None:
        lock_attempts = 0
        recovered = False
        while True:
            try:
                conn = self._conn(index)
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
                # as a failure); a corrupt shard file is rebuilt once and
                # the write retried; anything else (disk full, a bug) is a
                # real error worth surfacing — never grounds for deleting
                # committed rows
                if _is_locked(exc) and lock_attempts < self.lock_retries:
                    self._sleep(
                        _lock_backoff_delay(
                            f"{self.directory}:{index}:{os.getpid()}", lock_attempts
                        )
                    )
                    lock_attempts += 1
                    continue
                if recovered or not self._is_corruption(exc):
                    raise
                recovered = True
                self._recover_shard(index)

    # ------------------------------------------------------------------ #
    # maintenance (the `repro store` command)
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """Row counts and file sizes, per shard and total.

        A shard SQLite cannot query reports ``rows: None`` (corrupt —
        its lookups miss until a write rebuilds it).
        """
        per_shard: List[Dict[str, Any]] = []
        total_rows = 0
        total_bytes = 0
        for index in range(self.shards):
            path = self.path_for_shard(index)
            size = path.stat().st_size if path.exists() else 0
            try:
                rows = self._conn(index).execute("SELECT COUNT(*) FROM results").fetchone()[0]
            except sqlite3.Error:
                self._drop_conn(index)
                rows = None
            per_shard.append({"shard": index, "file": path.name, "rows": rows, "bytes": size})
            total_rows += rows or 0
            total_bytes += size
        return {
            "backend": "sqlite",
            "directory": str(self.directory),
            "schema_version": STORE_SCHEMA_VERSION,
            "shards": self.shards,
            "rows": total_rows,
            "bytes": total_bytes,
            "per_shard": per_shard,
        }

    def gc(self, vacuum: bool = True) -> Dict[str, int]:
        """Drop rows no current task hash can ever reference again.

        Task hashes mix in the library version, the task format, the
        backend's semantic version and, for faulty tasks, the adversary's
        version, so rows whose stored task content names another
        generation of any of them are dead weight: they can never be
        served, only grow the files.  Unparseable task content counts as
        dead too.  Layout-claim temp files left by a killed opener go as
        well (:meth:`_remove_stray_temp_files`).
        """
        self._remove_stray_temp_files()
        is_live = _current_generation()
        removed = 0
        kept = 0
        for index in range(self.shards):
            try:
                conn = self._conn(index)
                stored = conn.execute("SELECT key, task FROM results").fetchall()
            except sqlite3.Error:
                self._drop_conn(index)
                continue
            dead: List[Tuple[str]] = []
            for key, task_text in stored:
                try:
                    live = is_live(json.loads(task_text))
                except ValueError:
                    live = False
                if live:
                    kept += 1
                else:
                    dead.append((key,))
            if dead:
                conn.execute("BEGIN IMMEDIATE")
                try:
                    conn.executemany("DELETE FROM results WHERE key = ?", dead)
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
                removed += len(dead)
                if vacuum:
                    # only a shard that actually shed rows has space to
                    # reclaim; VACUUM rewrites the whole file, so running
                    # it on untouched shards would be pure wasted I/O
                    conn.execute("VACUUM")
        return {"removed": removed, "kept": kept}

    def _remove_stray_temp_files(self) -> None:
        """Delete layout-claim temp files whose writer process is gone.

        The layout claim writes ``.layout.<pid>.tmp`` first and links it
        into place after; a writer killed in between leaves the temp file
        behind for good.  A file whose writer is still alive may be
        mid-write and stays.
        """
        for path in self.directory.glob(".layout.*.tmp"):
            pid = path.name.rsplit(".", 2)[-2]
            if not pid.isdigit() or int(pid) == 0 or _process_exists(int(pid)):
                continue
            try:
                path.unlink()
            except OSError:
                pass  # another gc got there first
