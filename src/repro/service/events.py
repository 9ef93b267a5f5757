"""Structured service event log: one append-only ``events.jsonl``.

Every queue transition — lease, heartbeat, complete, fail, requeue,
quarantine, job submission/state change, drain, gc — is appended as one
JSON line to ``events.jsonl`` next to ``queue.sqlite``, so a crashed or
SIGKILLed run can be reconstructed post-mortem with nothing but a text
file.  The log is an *operator* artifact: the queue's SQLite tables stay
the source of truth for scheduling; the log is the history those tables
overwrite.

Records are plain dicts with a fixed head::

    {"ts": <float unix seconds>, "kind": "<event kind>", ...fields}

``ts`` comes from the queue's injectable clock (so tests are fully
deterministic) and is non-decreasing per writer; with several worker
processes appending concurrently, *file order* is the authoritative
order — each line is written with one ``O_APPEND`` write well under the
pipe-buffer atomicity bound, so lines never interleave mid-record.
Events are appended after their transaction commits: a process killed in
the sub-millisecond window between commit and append loses that one
line, which is why :func:`replay` folds states rather than counting —
a later ``lease``/``complete`` record repairs the history.

``repro serve events --queue-dir DIR [--since TS] [--follow]`` tails the
log from the command line; :func:`replay` turns any event iterable back
into per-item and per-job states (the post-mortem "what happened here").
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Set

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "read_events",
    "replay",
    "follow_events",
]

#: every kind the service emits, in rough lifecycle order
EVENT_KINDS = (
    "job-submit",  # new job record created (fields: job, priority)
    "job-resume",  # daemon re-adopted a parked running job
    "job-state",  # job reached done/failed (fields: job, state, error)
    "enqueue",  # one *new* item entered the queue (fields: key, job, priority)
    "lease",  # item claimed (fields: key, owner, attempts, priority, expired)
    "heartbeat",  # lease extended (fields: key, owner, expires)
    "complete",  # item done (fields: key, owner, seconds)
    "fail",  # worker reported a failure (fields: key, owner, error, seconds)
    "requeue",  # failed item returned to pending (fields: key, not_before)
    "quarantine",  # item pulled from rotation (fields: key, attempts, error)
    "quarantine-requeue",  # operator returned quarantined item to pending
    "rerun",  # done item returned to pending: its rows were missing (fields: key, job)
    "drain",  # service began draining (fields: outstanding)
    "gc",  # retention pass (fields: jobs, items, quarantine)
)


class EventLog:
    """Append-only JSONL writer bound to one log file and one clock.

    Opens the file per append: the log survives forks for free (worker
    children inherit no shared file position) and a crashed writer can
    never hold the file hostage.

    >>> import tempfile
    >>> log = EventLog(Path(tempfile.mkdtemp()) / "events.jsonl", clock=lambda: 12.5)
    >>> log.append("lease", key="abc", owner="w1", attempts=1)
    {'ts': 12.5, 'kind': 'lease', 'key': 'abc', 'owner': 'w1', 'attempts': 1}
    >>> [event["kind"] for event in read_events(log.path)]
    ['lease']
    """

    def __init__(self, path: Path, clock: Callable[[], float] = time.time) -> None:
        self.path = Path(path)
        self.clock = clock

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Write one event line; returns the record that was written.

        ``None``-valued fields are dropped so records stay compact and
        the log never encodes "field absent" two different ways.
        """
        record: Dict[str, Any] = {"ts": round(self.clock(), 6), "kind": kind}
        record.update({key: value for key, value in fields.items() if value is not None})
        line = json.dumps(record, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return record


def _decode(
    line: str, since: Optional[float], wanted: Optional[Set[str]]
) -> Optional[Dict[str, Any]]:
    """One log line as an event, or ``None`` if it is unreadable or filtered out."""
    try:
        event = json.loads(line)
    except ValueError:
        return None  # blank, or torn by a writer killed mid-append
    if not isinstance(event, dict) or "kind" not in event:
        return None
    ts = event.get("ts", 0.0)
    if isinstance(ts, bool) or not isinstance(ts, (int, float)):
        return None  # as unreadable as a torn line
    if since is not None and ts < since:
        return None
    if wanted is not None and event["kind"] not in wanted:
        return None
    return event


def read_events(
    path: Path,
    since: Optional[float] = None,
    kinds: Optional[Iterable[str]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events from ``path`` in file order, oldest first.

    ``since`` drops events with ``ts`` strictly before it; ``kinds``
    restricts to the given event kinds.  Torn or garbage lines (a writer
    SIGKILLed mid-append) are skipped, not fatal — the log must stay
    readable after exactly the crashes it exists to explain.
    """
    wanted = set(kinds) if kinds is not None else None
    path = Path(path)
    if not path.is_file():
        return
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            event = _decode(line, since, wanted)
            if event is not None:
                yield event


#: event kind -> item state it leaves the item in (replay's fold table)
_ITEM_STATE_AFTER = {
    "enqueue": "pending",
    "lease": "leased",
    "complete": "done",
    "requeue": "pending",
    "quarantine": "quarantined",
    "quarantine-requeue": "pending",
    "rerun": "pending",
}


def replay(events: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Fold an event stream into final per-item and per-job states.

    Returns ``{"items": {key: {"state", "attempts", "owner"}},
    "jobs": {job_id: {"state", "priority"}}}`` — the state the queue
    tables should show if every appended transition committed.  This is
    the post-mortem tool: after a chaos run, ``replay`` over
    ``events.jsonl`` must agree with ``queue.sqlite`` on every terminal
    state (pinned by ``tests/test_service.py``).

    >>> final = replay([
    ...     {"ts": 1, "kind": "enqueue", "key": "k", "job": "j", "priority": "normal"},
    ...     {"ts": 2, "kind": "lease", "key": "k", "owner": "w", "attempts": 1},
    ...     {"ts": 3, "kind": "complete", "key": "k", "owner": "w"},
    ... ])
    >>> final["items"]["k"]["state"], final["items"]["k"]["attempts"]
    ('done', 1)
    """
    items: Dict[str, Dict[str, Any]] = {}
    jobs: Dict[str, Dict[str, Any]] = {}
    for event in events:
        kind = event["kind"]
        key = event.get("key")
        if kind in _ITEM_STATE_AFTER and key is not None:
            item = items.setdefault(key, {"state": None, "attempts": 0, "owner": None})
            item["state"] = _ITEM_STATE_AFTER[kind]
            if kind == "lease":
                item["attempts"] = event.get("attempts", item["attempts"])
                item["owner"] = event.get("owner")
            elif kind in ("quarantine-requeue", "rerun"):
                item["attempts"] = 0
                item["owner"] = None
            else:
                item["owner"] = None
        elif kind == "job-submit":
            jobs[event["job"]] = {
                "state": "running",
                "priority": event.get("priority", "normal"),
            }
        elif kind == "job-state":
            job = jobs.setdefault(event["job"], {"state": None, "priority": "normal"})
            job["state"] = event["state"]
        elif kind == "gc":
            for job_id in event.get("jobs", []):
                jobs.pop(job_id, None)
            for item_key in event.get("items", []):
                items.pop(item_key, None)
    return {"items": items, "jobs": jobs}


def follow_events(
    path: Path,
    since: Optional[float] = None,
    kinds: Optional[Iterable[str]] = None,
    poll_interval: float = 0.5,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """``tail -f`` for the event log: yield forever as lines arrive.

    Existing events (filtered like :func:`read_events`) come first, then
    the generator polls for appended lines.  ``stop`` is checked between
    polls so tests (and the CLI's signal handling) can end the tail.
    """
    wanted = set(kinds) if kinds is not None else None
    path = Path(path)
    position = 0
    buffer = ""
    while True:
        if path.is_file():
            with open(path, "r", encoding="utf-8") as handle:
                handle.seek(position)
                chunk = handle.read()
                position = handle.tell()
            buffer += chunk
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                event = _decode(line, since, wanted)
                if event is not None:
                    yield event
        if stop is not None and stop():
            return
        time.sleep(poll_interval)
