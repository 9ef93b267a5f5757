"""Fault-tolerant sweep service: lease queue, retrying workers, daemon.

The execution layer that turns the runner/store stack into a long-lived
service (ROADMAP item 1).  The paper's CONGEST model is deliberately
fault-free; the machines that *reproduce* it are not — so everything
here is built around at-least-once delivery made safe by idempotency:

* :mod:`repro.service.queue` — a durable SQLite lease queue of task
  groups (dedup by content hash, TTL leases, heartbeats, automatic
  requeue of expired leases) plus content-addressed job records;
* :mod:`repro.service.retry` — bounded attempts, exponential backoff
  with seeded jitter, per-task wall-clock timeouts, and the quarantine
  rule that keeps one poison task from wedging a queue;
* :mod:`repro.service.worker` — the worker loop behind ``repro
  worker``: lease, execute in one long-lived killable subprocess,
  heartbeat, commit to the shared result store, complete or fail;
* :mod:`repro.service.daemon` — the stdlib-HTTP daemon behind ``repro
  serve``: spec submission with task-hash job dedup, progress
  streaming, artifact serving, and graceful SIGTERM drain.

Because every result lands in the content-addressed result store keyed
by task hash, running a task twice (a crashed worker's work re-leased
by another) writes the identical row twice — so serial runs, ``--jobs
N`` pools and a chaos-ridden service sweep all produce byte-identical
artifacts.
"""

from repro.service.queue import LeaseQueue, QueueExecutor
from repro.service.retry import RetryPolicy

__all__ = ["LeaseQueue", "QueueExecutor", "RetryPolicy"]
