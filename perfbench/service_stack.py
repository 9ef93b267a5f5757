"""The sweep service as a user runs it, driven only through its public surfaces.

:class:`ServiceStack` starts ``make_server``/``SweepService`` in this
process and ``repro worker`` subprocesses through ``spawn_worker``, and
talks to them over HTTP.  :func:`queue_layer_numbers` reads the layer
numbers from outside: the ``events.jsonl`` log via ``read_events`` and
the ``/metrics`` page.
"""

from __future__ import annotations

import json
import re
import subprocess
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import percentile

__all__ = ["ServiceStack", "parse_metrics", "queue_layer_numbers"]

#: queue poll interval of the job threads and workers (``SweepService``'s default)
POLL_INTERVAL = 0.2
#: how often the client polls a job's state, and how long it waits at most
CLIENT_POLL = 0.01
JOB_TIMEOUT = 150.0

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text -> ``{"name{labels}": value}`` (comments skipped)."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match:
            samples[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return samples


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process from ``/proc`` (0.0 if gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


class ServiceStack:
    """One daemon (in this process) plus its worker subprocesses."""

    def __init__(self, queue_dir: Path, workers: int) -> None:
        from repro.service.daemon import SweepService, make_server, spawn_worker

        self.queue_dir = Path(queue_dir)
        self.service = SweepService(self.queue_dir, poll_interval=POLL_INTERVAL)
        self.server = make_server(self.service)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()
        self.workers: List[subprocess.Popen] = [
            spawn_worker(self.queue_dir, self.service.policy, 30.0, POLL_INTERVAL)
            for _ in range(workers)
        ]
        self.worker_peak_mb = 0.0

    # ------------------------------------------------------------ HTTP client

    def _request(self, path: str, body: Optional[bytes] = None, headers=None) -> Tuple[int, bytes]:
        request = urllib.request.Request(
            self.url + path, data=body, headers=headers or {}, method="POST" if body else "GET"
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()

    def metrics(self) -> Dict[str, float]:
        return parse_metrics(self._request("/metrics")[1].decode("utf-8"))

    def wait_workers(self, timeout: float = 90.0) -> None:
        """Block until every worker has reported in to the queue."""
        deadline = time.monotonic() + timeout
        while self.metrics().get("repro_workers_live", 0) < len(self.workers):
            if time.monotonic() > deadline or any(p.poll() is not None for p in self.workers):
                raise RuntimeError("service workers did not report in")
            time.sleep(0.01)

    def submit(self, spec: Dict[str, Any], name: str) -> Tuple[str, bool]:
        """POST one JSON spec; returns ``(job_id, created)``."""
        _, body = self._request(
            f"/jobs?name={name}",
            json.dumps(spec).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        reply = json.loads(body)
        return reply["job_id"], reply["created"]

    def wait_job(self, job_id: str) -> Dict[str, Any]:
        """Poll the job until it leaves ``running``; returns its status."""
        deadline = time.monotonic() + JOB_TIMEOUT
        while True:
            status = json.loads(self._request(f"/jobs/{job_id}")[1])
            if status["state"] != "running":
                return status
            if time.monotonic() > deadline:
                raise RuntimeError(f"job {job_id} still running after {JOB_TIMEOUT}s")
            time.sleep(CLIENT_POLL)

    def artifacts(self, job_id: str, names: Sequence[str]) -> Dict[str, bytes]:
        return {name: self._request(f"/jobs/{job_id}/artifacts/{name}")[1] for name in names}

    # --------------------------------------------------------------- teardown

    def stop(self) -> None:
        """Drain the workers and the daemon; records the workers' peak memory."""
        self.worker_peak_mb = sum(_vm_hwm_mb(proc.pid) for proc in self.workers)
        for proc in self.workers:
            proc.terminate()
        for proc in self.workers:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)
        self.service.drain(timeout=10)
        self.service.queue.close()


def queue_layer_numbers(
    queue_dir: Path, jobs: Sequence[str], metrics: Dict[str, float]
) -> Tuple[Dict[str, float], List[Tuple[bool, str]]]:
    """Service layer numbers for ``jobs``, read from the event log.

    Returns ``(numbers, checks)``; each check is ``(passed, what)`` and
    crosses the event log with the ``/metrics`` scrape (completes equal
    done items, leases at least completes, no quarantined item, no
    failed job).
    """
    from repro.service.events import read_events

    wanted = set(jobs)
    job_keys: Dict[str, List[str]] = {}
    enqueued: Dict[str, float] = {}
    leased: Dict[str, List[float]] = {}
    completed: Dict[str, float] = {}
    job_done: Dict[str, float] = {}
    kinds: Dict[str, int] = {}
    for event in read_events(Path(queue_dir) / "events.jsonl"):
        kind, key = event["kind"], event.get("key")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "enqueue" and event.get("job") in wanted:
            job_keys.setdefault(event["job"], []).append(key)
            enqueued[key] = event["ts"]
        elif kind == "lease" and key in enqueued:
            leased.setdefault(key, []).append(event["ts"])
        elif kind == "complete" and key in enqueued:
            completed[key] = event["ts"]
        elif kind == "job-state" and event.get("job") in wanted and event.get("state") == "done":
            job_done[event["job"]] = event["ts"]

    waits = [leased[key][0] - enqueued[key] for key in enqueued if key in leased]
    items = [
        completed[key] - max(ts for ts in leased[key] if ts <= completed[key])
        for key in completed
        if key in leased
    ]
    lags = [
        job_done[job] - max(completed.get(key, 0.0) for key in keys)
        for job, keys in job_keys.items()
        if job in job_done
    ]
    leases = sum(len(times) for times in leased.values())
    per_job = float(max(1, len(wanted)))
    numbers = {
        "service.lease_wait_s": percentile(waits, 0.5),
        "service.item_s": percentile(items, 0.5),
        "service.item_p90_s": percentile(items, 0.9),
        "service.finish_lag_s": percentile(lags, 0.5),
        "service.leases": leases / per_job,
        "service.retries": sum(max(0, len(times) - 1) for times in leased.values()) / per_job,
        "service.lease_efficiency": len(completed) / leases if leases else 0.0,
    }

    done_items = sum(v for k, v in metrics.items() if k.startswith('repro_queue_items{state="done"'))
    quarantined = sum(
        v for k, v in metrics.items() if k.startswith('repro_queue_items{state="quarantined"')
    )
    completes = metrics.get("repro_queue_completes_total", 0.0)
    leases_total = metrics.get("repro_queue_leases_total", 0.0)
    checks = [
        (completes == done_items, f"completes counter {completes:g} != done items {done_items:g}"),
        (leases_total >= completes, "fewer leases than completes"),
        (
            kinds.get("complete", 0) == completes and kinds.get("lease", 0) == leases_total,
            "event log and /metrics disagree on lease/complete counts",
        ),
        (not quarantined, f"{quarantined:g} quarantined item(s)"),
        (not metrics.get('repro_queue_jobs{state="failed"}', 0.0), "a job failed"),
    ]
    return numbers, checks
