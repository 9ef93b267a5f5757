"""``repro serve``: the stdlib-HTTP daemon in front of the lease queue.

One process owns the HTTP surface and the per-job report threads; any
number of ``repro worker`` processes (spawned by the daemon and/or
attached by hand) execute the queued task groups.  A job id is
content-addressed (:func:`~repro.service.queue.run_id_for` over the
sweep's ordered task hashes), each job thread is just
``generate_report(..., executor=QueueExecutor(...))``, and the result
store ``run_tasks`` commits to per group is the job's completion record:
a restarted job thread serves every committed row as a cache hit.
Identical submissions therefore collapse onto one job — and one
execution — for free.

HTTP surface (JSON in/out unless noted)::

    POST /jobs[?priority=high]      spec body (TOML, or JSON by
                                    Content-Type) -> {"job_id", "created"};
                                    ``priority`` picks the scheduling lane;
                                    400 for a bad spec or Content-Length
    GET  /jobs                      all job records
    GET  /jobs/<id>                 state + item-progress counts (+
                                    artifact names once done)
    GET  /jobs/<id>/progress        plain-text progress stream until the
                                    job reaches a terminal state
    GET  /jobs/<id>/artifacts/<f>   one artifact file of a known job
    GET  /healthz                   queue-wide counters
    GET  /metrics                   Prometheus text exposition (see
                                    repro.service.metrics)

Shutdown is a drain, not an abort: SIGTERM stops the HTTP server, sets
the service stop event (job threads park their jobs in ``running``,
their finished groups already in the store), SIGTERMs the workers so
each finishes its in-flight item, and exits 0.  ``repro serve`` on the
same queue directory picks every parked job back up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.report.pipeline import compile_tasks, generate_report
from repro.report.spec import ReportSpec, parse_spec_text
from repro.runner.progress import ProgressReporter
from repro.runner.store import SQLiteResultStore
from repro.service import bells
from repro.service import metrics as service_metrics
from repro.service.queue import (
    PRIORITIES,
    PRIORITY_NORMAL,
    DrainRequested,
    LeaseQueue,
    QuarantinedTasksError,
    QueueExecutor,
    run_id_for,
)
from repro.service.retry import RetryPolicy

__all__ = ["SweepService", "make_server", "serve", "spawn_worker"]

#: artifact suffixes the daemon will serve, with their content types
_ARTIFACT_TYPES = {".md": "text/markdown", ".csv": "text/csv", ".json": "application/json"}


class SweepService:
    """Job bookkeeping shared by the HTTP handlers and the job threads.

    Owns one :class:`LeaseQueue` (thread-safe: connections are
    per-thread, and each job thread and request thread closes its own
    when it ends) and at most one live thread per running job; a
    finished job thread removes itself.  The result
    store and artifacts live inside the queue directory,
    so the directory is the whole service state — durable across daemon
    restarts and inspectable with plain sqlite3/ls.
    """

    def __init__(
        self,
        queue_dir: Path,
        policy: Optional[RetryPolicy] = None,
        lease_ttl: float = 30.0,
        poll_interval: float = 0.2,
    ) -> None:
        self.directory = Path(queue_dir)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.policy = policy or RetryPolicy()
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.queue = LeaseQueue(self.directory)
        self.stop_event = threading.Event()
        self._lock = threading.Lock()
        self._threads: Dict[str, threading.Thread] = {}

    def artifacts_dir(self, job_id: str) -> Path:
        return self.directory / "artifacts" / job_id

    # ------------------------------------------------------------------
    # submission

    def compile_job(
        self, text: str, fmt: str, name: Optional[str] = None
    ) -> Tuple[str, ReportSpec]:
        """Validate a spec document and derive its content-addressed job id.

        ``name`` stands in for the filename a ``repro report --spec``
        run would have had; it flows into the artifacts' regeneration
        hint, so submitting ``name=smoke.toml`` reproduces a local
        ``--spec specs/smoke.toml`` run byte for byte.  It is rendering
        metadata only — the job id hashes the compiled task grid, never
        the name.
        """
        source = name or f"submitted.{fmt}"
        spec = parse_spec_text(text, fmt=fmt, source=source, where=f"spec {source}")
        keys = [task.task_hash() for _, tasks in compile_tasks(spec) for task in tasks]
        return run_id_for(keys), spec

    def submit_text(
        self,
        text: str,
        fmt: str,
        name: Optional[str] = None,
        priority: str = PRIORITY_NORMAL,
    ) -> Tuple[str, bool]:
        """Submit a spec document; returns ``(job_id, created)``.

        ``created=False`` means the identical workload was already known
        (done, failed, or still running) — the existing record answers.
        A known-but-``running`` job without a live thread (daemon
        restarted since) gets its thread back here.
        """
        job_id, _ = self.compile_job(text, fmt, name=name)
        created = self.queue.submit_job(
            job_id, {"format": fmt, "text": text, "name": name}, priority=priority
        )
        self._ensure_thread(job_id)
        return job_id, created

    def resume_running_jobs(self) -> List[str]:
        """Restart the job thread of every job parked in ``running``."""
        resumed = [
            record["job_id"]
            for record in self.queue.list_jobs()
            if record["state"] == LeaseQueue.JOB_RUNNING
        ]
        for job_id in resumed:
            self.queue.events.append("job-resume", job=job_id)
            self._ensure_thread(job_id)
        return resumed

    def _ensure_thread(self, job_id: str) -> None:
        with self._lock:
            thread = self._threads.get(job_id)
            if thread is not None and thread.is_alive():
                return
            record = self.queue.job_record(job_id)
            if record is None or record["state"] != LeaseQueue.JOB_RUNNING:
                return
            thread = threading.Thread(
                target=self._run_job,
                args=(job_id, record["spec"], record["priority"]),
                name=f"job-{job_id[:8]}",
                daemon=True,
            )
            self._threads[job_id] = thread
            thread.start()

    # ------------------------------------------------------------------
    # the job thread

    def _run_job(
        self,
        job_id: str,
        document: Mapping[str, Any],
        priority: str = PRIORITY_NORMAL,
    ) -> None:
        try:
            source = document.get("name") or f"submitted.{document['format']}"
            spec = parse_spec_text(
                document["text"],
                fmt=document["format"],
                source=source,
                where=f"job {job_id[:8]} spec",
            )
            # one result store per job, closed with it: the runner's
            # lookups and the executor's row reads share its connections
            with contextlib.closing(SQLiteResultStore(self.directory)) as store:
                generate_report(
                    spec,
                    self.artifacts_dir(job_id),
                    cache_dir=store,
                    executor=QueueExecutor(
                        self.queue,
                        job_id,
                        poll_interval=self.poll_interval,
                        stop_event=self.stop_event,
                        store=store,
                        priority=priority,
                    ),
                )
        except DrainRequested:
            # parked, not failed: the store has everything committed
            # so far and resume_running_jobs() picks it up next start
            return
        except QuarantinedTasksError as exc:
            self.queue.set_job_state(job_id, LeaseQueue.JOB_FAILED, error=str(exc))
        except Exception as exc:  # noqa: BLE001 - job threads must not die silently
            self.queue.set_job_state(
                job_id, LeaseQueue.JOB_FAILED, error=f"{type(exc).__name__}: {exc}"
            )
        else:
            self.queue.set_job_state(job_id, LeaseQueue.JOB_DONE)
        finally:
            self.queue.close()
            with self._lock:
                if self._threads.get(job_id) is threading.current_thread():
                    del self._threads[job_id]

    # ------------------------------------------------------------------
    # status

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        record = self.queue.job_record(job_id)
        if record is None:
            return None
        status = {
            "job_id": record["job_id"],
            "state": record["state"],
            "error": record["error"],
            "created": record["created"],
            "updated": record["updated"],
            "progress": self.queue.job_progress(job_id),
        }
        artifacts = self.artifacts_dir(job_id)
        if record["state"] == LeaseQueue.JOB_DONE and artifacts.is_dir():
            status["artifacts"] = sorted(
                path.name for path in artifacts.iterdir() if path.is_file()
            )
        return status

    def request_stop(self) -> None:
        """Set the stop event and wake the job threads and progress streams."""
        self.stop_event.set()
        bells.ring(self.queue.bells_dir, bells.JOB_BELLS)

    def drain(self, timeout: float = 30.0) -> None:
        """Stop event + bounded join of the job threads."""
        self.request_stop()
        with self._lock:
            threads = list(self._threads.values())
        outstanding = sum(1 for thread in threads if thread.is_alive())
        self.queue.events.append("drain", outstanding=outstanding)
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`SweepService` via subclassing."""

    service: SweepService  # injected by make_server
    server_version = "repro-serve"
    #: seconds one socket read or write may block; a client that stalls
    #: mid-request (a short body under a long ``Content-Length``) has its
    #: connection closed instead of holding a handler thread until it
    #: hangs up.  The progress stream writes at least every 0.5 s, so it
    #: is never idle for this long.
    timeout = 30.0

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        print(f"serve: {self.address_string()} {format % args}", file=sys.stderr)

    def finish(self) -> None:
        # every request runs on a fresh server thread: close the queue
        # connection it opened instead of leaving it to the cyclic GC
        try:
            super().finish()
        finally:
            self.service.queue.close()

    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        url = urlsplit(self.path)
        if url.path.rstrip("/") != "/jobs":
            self._send_json(404, {"error": f"no such endpoint: POST {self.path}"})
            return
        if self.service.stop_event.is_set():
            self._send_json(503, {"error": "service is draining; resubmit after restart"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up
            self._send_json(400, {"error": "Content-Length must be a non-negative integer"})
            return
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        fmt = "json" if content_type == "application/json" else "toml"
        # ?name=smoke.toml names the submission like the spec file a local
        # run would read, for byte-identical regeneration hints;
        # ?priority=high puts the job in the urgent scheduling lane
        query = parse_qs(url.query)
        name = (query.get("name") or [None])[0]
        priority = (query.get("priority") or [PRIORITY_NORMAL])[0]
        if priority not in PRIORITIES:
            self._send_json(
                400, {"error": f"priority must be one of {list(PRIORITIES)}: {priority}"}
            )
            return
        try:
            text = self.rfile.read(length).decode("utf-8")
            job_id, created = self.service.submit_text(
                text, fmt, name=name, priority=priority
            )
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._send_json(
            202 if created else 200,
            {"job_id": job_id, "created": created, "status_url": f"/jobs/{job_id}"},
        )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = [part for part in urlsplit(self.path).path.split("/") if part]
        if parts == ["healthz"]:
            self._send_json(200, {"ok": True, **self.service.queue.stats()})
        elif parts == ["metrics"]:
            body = service_metrics.render_metrics(self.service.queue).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif parts == ["jobs"]:
            self._send_json(200, {"jobs": self.service.queue.list_jobs()})
        elif len(parts) == 2 and parts[0] == "jobs":
            status = self.service.job_status(parts[1])
            if status is None:
                self._send_json(404, {"error": f"no such job: {parts[1]}"})
            else:
                self._send_json(200, status)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "progress":
            self._stream_progress(parts[1])
        elif len(parts) == 4 and parts[0] == "jobs" and parts[2] == "artifacts":
            self._send_artifact(parts[1], parts[3])
        else:
            self._send_json(404, {"error": f"no such endpoint: GET {self.path}"})

    # ------------------------------------------------------------------

    def _stream_progress(self, job_id: str) -> None:
        """Plain-text progress lines until the job is terminal.

        Reuses :class:`ProgressReporter` over the queue's item counts
        (items, not tasks: the group is the service's unit of work), so
        the stream reads exactly like a local ``--progress`` run.
        """
        status = self.service.job_status(job_id)
        if status is None:
            self._send_json(404, {"error": f"no such job: {job_id}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.end_headers()
        writer = io.TextIOWrapper(self.wfile, encoding="utf-8", write_through=True)
        reporter = ProgressReporter(
            total=status["progress"]["total"],
            label=f"job {job_id[:8]}",
            stream=writer,
            min_interval=0.0,
        )
        # bound before the first check, like every queue waiter
        bell = bells.Bell(self.service.queue.bells_dir, bells.JOB_BELLS)
        try:
            while True:
                counts = self.service.queue.job_progress(job_id)
                record = self.service.queue.job_record(job_id)
                done = counts[LeaseQueue.ITEM_DONE]
                reporter.total = counts["total"]
                if done > reporter.executed:
                    reporter.add_executed(done - reporter.executed)
                else:
                    reporter.emit(force=True)
                state = record["state"] if record else "gone"
                if state != LeaseQueue.JOB_RUNNING or self.service.stop_event.is_set():
                    writer.write(f"state: {state}\n")
                    if record and record["error"]:
                        writer.write(f"error: {record['error']}\n")
                    writer.flush()
                    break
                bell.wait(0.5)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up
        finally:
            bell.close()
            writer.detach()  # leave self.wfile to the handler machinery

    def _send_artifact(self, job_id: str, name: str) -> None:
        artifacts = self.service.artifacts_dir(job_id)
        path = artifacts / name
        # the id must name a job (so "jobs/../artifacts/<f>" cannot climb
        # into the queue directory), and names come from our own
        # renderers: flat files only
        if (
            self.service.queue.job_record(job_id) is None
            or os.sep in name
            or name in (".", "..")
            or not path.is_file()
        ):
            self._send_json(404, {"error": f"no such artifact: {job_id}/{name}"})
            return
        body = path.read_bytes()
        self.send_response(200)
        self.send_header(
            "Content-Type", _ARTIFACT_TYPES.get(path.suffix, "application/octet-stream")
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def make_server(
    service: SweepService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A threaded HTTP server bound to ``service`` (``port=0`` for tests)."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def spawn_worker(
    queue_dir: Path,
    policy: RetryPolicy,
    lease_ttl: float,
    poll_interval: float,
) -> "subprocess.Popen[bytes]":
    """Start one ``repro worker`` subprocess attached to ``queue_dir``."""
    command = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--queue-dir",
        str(queue_dir),
        "--lease-ttl",
        str(lease_ttl),
        "--poll-interval",
        str(poll_interval),
        "--max-attempts",
        str(policy.max_attempts),
        "--backoff-base",
        str(policy.backoff_base),
        "--backoff-cap",
        str(policy.backoff_cap),
        "--task-timeout",
        str(policy.task_timeout),
    ]
    return subprocess.Popen(command)


def serve(
    queue_dir: Path,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    policy: Optional[RetryPolicy] = None,
    lease_ttl: float = 30.0,
    poll_interval: float = 0.2,
) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain; the CLI entry point.

    The HTTP server runs on a background thread so the *main* thread can
    sit in an interruptible wait — calling ``server.shutdown()`` from a
    signal handler on the serving thread would deadlock.
    """
    service = SweepService(
        queue_dir, policy=policy, lease_ttl=lease_ttl, poll_interval=poll_interval
    )
    parked = service.resume_running_jobs()
    server = make_server(service, host=host, port=port)
    actual_port = server.server_address[1]
    server_thread = threading.Thread(
        target=server.serve_forever, name="http", daemon=True
    )
    server_thread.start()
    worker_procs = [
        spawn_worker(service.directory, service.policy, lease_ttl, poll_interval)
        for _ in range(workers)
    ]
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _signum, _frame: stop.set())
    print(
        f"repro serve: http://{host}:{actual_port} queue={service.directory} "
        f"workers={len(worker_procs)}"
        + (f" resumed={len(parked)} job(s)" if parked else ""),
        file=sys.stderr,
        flush=True,
    )
    stop.wait()
    print("repro serve: draining (signal received)", file=sys.stderr, flush=True)
    server.shutdown()
    service.request_stop()
    for proc in worker_procs:
        proc.terminate()
    for proc in worker_procs:
        try:
            proc.wait(timeout=max(10.0, service.policy.task_timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    service.drain()
    running = [
        record["job_id"]
        for record in service.queue.list_jobs()
        if record["state"] == LeaseQueue.JOB_RUNNING
    ]
    if running:
        print(
            f"repro serve: {len(running)} job(s) parked for resume: "
            + " ".join(job_id[:12] for job_id in running),
            file=sys.stderr,
            flush=True,
        )
    print("repro serve: drained, exiting", file=sys.stderr, flush=True)
    return 0
