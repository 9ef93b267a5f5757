"""Run manifests: the checkpoint ledger behind ``--resume``.

A manifest identifies one *run* — an ordered list of task hashes — and
records which of those tasks have completed.  The result cache is the
authority on rows (a resumed run re-reads them from there); the
manifest's job is orchestration:

* it gives a killed run a durable identity, so ``repro sweep --resume``
  / ``repro report --resume`` with the same workload find their own
  ledger and report how much of the run was already done;
* it is checkpointed **per completed group** (atomic temp-file +
  ``os.replace`` rewrite), in the same breath as the group's rows are committed to the store — so the
  set of checkpointed hashes is always a subset of the rows actually
  persisted, and a resumed run re-executes zero checkpointed tasks.

Layout: ``<cache-dir>/manifests/run-<id>.json`` where ``<id>`` is the
sha256 of the ordered task-hash list — the same workload always resumes
the same manifest, and different workloads can never collide::

    {
      "version": 1,
      "run_id": "<sha256 prefix>",
      "total": 96,               # cacheable tasks in the run
      "finished": false,         # every task checkpointed?
      "completed": ["<hash>", ...]
    }
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterable, List, Optional, Set

__all__ = ["MANIFEST_VERSION", "RunManifest", "atomic_write_json", "run_id_for"]

MANIFEST_VERSION = 1


def atomic_write_json(path: Path, payload: Any) -> None:
    """Atomically (re)write one JSON checkpoint file.

    Temp file + ``os.replace`` in the target directory: a reader can
    observe the old checkpoint or the new one, never a torn write.  This
    is the single checkpoint discipline of the runner *and* the sweep
    service — run manifests, queue job records and service artifacts
    metadata all go through here, so "how job state reaches disk" has
    exactly one implementation to audit.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    os.replace(tmp, path)


def run_id_for(keys: Iterable[Optional[str]]) -> str:
    """The stable identity of a run: sha256 over its ordered task hashes.

    Uncacheable tasks (hash ``None``) participate as placeholders so two
    runs differing only in uncacheable work still get distinct ledgers.
    """
    blob = json.dumps(list(keys), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class RunManifest:
    """The on-disk completion ledger of one run."""

    def __init__(self, path: Path, run_id: str, total: int, completed: Set[str]) -> None:
        self.path = path
        self.run_id = run_id
        self.total = total
        self.completed = completed
        #: completed hashes found on disk when the manifest was opened —
        #: what a resumed run inherited, for progress reporting
        self.resumed = len(completed)

    @classmethod
    def open(cls, directory: Path, keys: List[Optional[str]]) -> "RunManifest":
        """Load the run's manifest from ``directory``, or start a fresh one.

        ``keys`` is the run's ordered task-hash list (``None`` for
        uncacheable tasks, which are never checkpointed).  A readable
        manifest with the matching ``run_id`` resumes; anything corrupt
        or mismatched is ignored and rewritten on the first checkpoint.
        """
        run_id = run_id_for(keys)
        path = Path(directory) / "manifests" / f"run-{run_id}.json"
        known = {key for key in keys if key is not None}
        # unique hashes: a grid may name the same task twice (e.g. a
        # trade-off point that also sits on a sweep curve), and the
        # completed set can only ever hold each hash once
        total = len(known)
        completed: Set[str] = set()
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if (
                isinstance(payload, dict)
                and payload.get("version") == MANIFEST_VERSION
                and payload.get("run_id") == run_id
            ):
                # only hashes the run actually contains: a doctored or
                # stale ledger cannot inflate the completed set
                completed = set(payload.get("completed", ())) & known
        except (OSError, ValueError):
            pass
        return cls(path, run_id, total, completed)

    @property
    def finished(self) -> bool:
        return len(self.completed) >= self.total

    def is_done(self, key: Optional[str]) -> bool:
        return key is not None and key in self.completed

    def mark_done(self, keys: Iterable[Optional[str]]) -> None:
        """Record completed tasks and checkpoint the ledger atomically."""
        added = False
        for key in keys:
            if key is not None and key not in self.completed:
                self.completed.add(key)
                added = True
        if added:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Atomically rewrite the ledger (temp file + ``os.replace``)."""
        atomic_write_json(
            self.path,
            {
                "version": MANIFEST_VERSION,
                "run_id": self.run_id,
                "total": self.total,
                "finished": self.finished,
                "completed": sorted(self.completed),
            },
        )
