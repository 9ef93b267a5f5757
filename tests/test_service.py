"""Tests of the fault-tolerant sweep service (`repro.service`).

Five layers, in rising order of violence:

* unit tests of the retry policy and the lease queue's state machine
  (TTL expiry, heartbeats, dedup, backoff, quarantine) — all with an
  injected clock, no sleeping;
* the observability layer: the /metrics registry must agree with the
  queue tables it counts, the event log must replay to the same
  terminal state, the priority lanes must never starve the normal lane
  (a hypothesis bounded-wait property), and queue gc must never touch
  live or leased work;
* worker tests: poison payloads quarantine instead of wedging, hung
  executions hit the wall-clock timeout, drained items survive,
  heartbeats keep their configured cadence, idle workers stay live,
  a warmed worker's execution child imports nothing per item, and that
  one child serves item after item, is replaced after a failure or a
  timeout, and outlives neither a drain nor a SIGKILLed worker;
* waiting tests: bells wake idle workers and waiting jobs long before
  their poll interval, and an unbindable or stale bell degrades to
  polling; 20 jobs through the HTTP daemon leave no connection, file
  descriptor or job thread behind, and its routes serve artifacts only
  of known jobs and answer a bad ``Content-Length`` with 400;
* the chaos tests: a 12-task sweep over two real worker processes, one
  of which is SIGKILLed mid-lease, and a worker SIGKILLed between its
  child's store commit and the lease complete.  The job must complete,
  no item may exceed its attempt budget, the artifacts must be
  byte-identical to a serial ``generate_report``, and both the metrics
  scrape and the event log replay must agree with the final queue
  state — the whole point of the service.

The ``--jobs N`` dead-worker regression test lives here too: it is the
same failure mode (a worker dying mid-task) on the in-process pool path.
"""

import contextlib
import gc
import http.client
import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.report.pipeline import compile_tasks, generate_report
from repro.report.spec import parse_spec_text
import repro.runner.runner as runner_module
from repro.runner.plan import InstanceContext, TaskGroup, plan_groups
from repro.runner.runner import run_tasks
from repro.runner.store import SQLiteResultStore
from repro.runner.tasks import GraphSpec, SweepTask, task_from_wire, task_to_wire
from repro.service import metrics as service_metrics
from repro.service.bells import JOB_BELLS, WORKER_BELLS, Bell, ring
from repro.service.daemon import SweepService, make_server
from repro.service.events import follow_events, read_events, replay
from repro.service.queue import (
    NORMAL_LANE_CREDIT,
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    LeaseQueue,
    QuarantinedTasksError,
    QueueExecutor,
    group_dedup_key,
    group_payload,
    run_id_for,
)
from repro.service.retry import RetryPolicy
from repro.service.worker import TEST_DELAY_ENV, run_worker

REPO = Path(__file__).resolve().parent.parent

#: 3 schemes x 2 sizes x 2 seeds = 12 tasks in 4 instance groups — the
#: chaos grid: big enough that both workers hold leases, small enough
#: to finish fast
CHAOS_SPEC = """
title = "chaos"

[[experiment]]
name = "curves"
kind = "sweep"
schemes = ["trivial", "theorem2", "theorem3"]
sizes = [8, 16]
seeds = 2
"""


def make_task(seed: int = 0, n: int = 8, target: str = "trivial") -> SweepTask:
    return SweepTask(
        kind="scheme", target=target, graph=GraphSpec("random", 0.3), n=n, seed=seed
    )


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------------ #
# retry policy
# ------------------------------------------------------------------ #


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=4.0)
        delays = [policy.backoff_delay("key", attempt) for attempt in (1, 2, 3, 9)]
        assert delays == [policy.backoff_delay("key", a) for a in (1, 2, 3, 9)]
        assert 0.5 <= delays[0] < 1.0
        assert 1.0 <= delays[1] < 2.0
        assert all(delay < 4.0 for delay in delays)
        # different keys spread out
        assert policy.backoff_delay("other", 1) != delays[0]

    def test_item_timeout_scales_with_task_count(self):
        policy = RetryPolicy(task_timeout=10.0)
        assert policy.item_timeout(3) == 30.0
        assert policy.item_timeout(0) == 10.0  # never a zero budget

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=1.0, backoff_cap=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0)


# ------------------------------------------------------------------ #
# task wire format
# ------------------------------------------------------------------ #


class TestWireFormat:
    def test_roundtrip_preserves_hash(self):
        task = make_task(seed=3, n=16, target="theorem3")
        rebuilt = task_from_wire(task_to_wire(task))
        assert rebuilt == task
        assert rebuilt.task_hash() == task.task_hash()

    def test_wire_payload_with_a_non_name_target_raises(self):
        # a worker reads queue items from disk: a target that is no
        # registry name must fail as undecodable work, not run
        wire = task_to_wire(make_task())
        wire["target"] = {"name": "trivial"}
        with pytest.raises(ValueError, match="registry name"):
            task_from_wire(wire)

    def test_malformed_wire_payload_raises(self):
        wire = task_to_wire(make_task())
        wire["kind"] = "nonsense"
        with pytest.raises(ValueError):
            task_from_wire(wire)


# ------------------------------------------------------------------ #
# lease queue state machine (injected clock, no sleeping)
# ------------------------------------------------------------------ #


class TestLeaseQueue:
    def payload(self, seed: int) -> tuple:
        [group] = plan_groups([make_task(seed=seed)])
        hashes = [task.task_hash() for task in group.tasks]
        return group_dedup_key(hashes), group_payload(group, hashes)

    def test_enqueue_dedups_by_content(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        key, payload = self.payload(0)
        assert queue.enqueue("job-a", [(key, payload)]) == 1
        # same item again, other job: linked, not duplicated
        assert queue.enqueue("job-b", [(key, payload)]) == 0
        assert queue.job_progress("job-a")["total"] == 1
        assert queue.job_progress("job-b")["total"] == 1

    def test_lease_expiry_requeues_to_another_owner(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        key, payload = self.payload(0)
        queue.enqueue("job", [(key, payload)])
        item = queue.lease("worker-a", ttl=10.0, max_attempts=3)
        assert item.dedup_key == key and item.attempts == 1
        # still leased: nobody else can claim it
        assert queue.lease("worker-b", ttl=10.0, max_attempts=3) is None
        # heartbeat extends the lease
        clock.now += 8.0
        assert queue.heartbeat(key, "worker-a", ttl=10.0)
        clock.now += 8.0
        assert queue.lease("worker-b", ttl=10.0, max_attempts=3) is None
        # owner goes silent: the lease expires and worker-b takes over
        clock.now += 11.0
        item2 = queue.lease("worker-b", ttl=10.0, max_attempts=3)
        assert item2 is not None and item2.attempts == 2
        # the stale owner's completion is ignored, the live one's counts
        assert not queue.complete(key, "worker-a")
        assert queue.complete(key, "worker-b")
        assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_DONE

    def test_crash_looping_item_is_quarantined_at_lease_time(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        key, payload = self.payload(0)
        queue.enqueue("job", [(key, payload)])
        for _ in range(2):  # two leases, both owners die silently
            assert queue.lease("doomed", ttl=1.0, max_attempts=2) is not None
            clock.now += 2.0
        # attempt budget burned: the next lease call quarantines instead
        assert queue.lease("survivor", ttl=1.0, max_attempts=2) is None
        assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_QUARANTINED
        [row] = queue.quarantined()
        assert row["dedup_key"] == key and row["attempts"] == 2

    def test_fail_backs_off_then_quarantines(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        policy = RetryPolicy(max_attempts=2, backoff_base=5.0, backoff_cap=5.0)
        key, payload = self.payload(0)
        queue.enqueue("job", [(key, payload)])
        queue.lease("w", ttl=10.0, max_attempts=policy.max_attempts)
        assert queue.fail(key, "w", "boom", policy) == LeaseQueue.ITEM_PENDING
        # backoff holds the item out of rotation until not_before passes
        assert queue.lease("w", ttl=10.0, max_attempts=policy.max_attempts) is None
        clock.now += 6.0
        item = queue.lease("w", ttl=10.0, max_attempts=policy.max_attempts)
        assert item.attempts == 2
        assert queue.fail(key, "w", "boom again", policy) == LeaseQueue.ITEM_QUARANTINED
        state, error = queue.item_states([key])[key]
        assert state == LeaseQueue.ITEM_QUARANTINED and "boom again" in error
        # explicit requeue puts it back with a fresh budget
        assert queue.requeue_quarantined() == 1
        assert queue.lease("w", ttl=10.0, max_attempts=policy.max_attempts).attempts == 1

    def test_job_records_dedup_and_track_state(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        assert queue.submit_job("job-1", {"text": "t"})
        assert not queue.submit_job("job-1", {"text": "t"})
        queue.set_job_state("job-1", LeaseQueue.JOB_DONE)
        assert queue.job_record("job-1")["state"] == LeaseQueue.JOB_DONE
        assert queue.job_record("missing") is None
        assert [job["job_id"] for job in queue.list_jobs()] == ["job-1"]

    def test_run_id_is_pinned_and_distinguishes_workloads(self):
        keys = ["0" * 64, None, "f" * 64]
        # the job ids of existing queue directories must not change
        assert run_id_for(keys) == "26bb2998fa67ed5117ab2bf0804ec118"
        assert run_id_for(keys[::-1]) != run_id_for(keys)  # order-sensitive
        assert run_id_for(keys[:2]) != run_id_for(keys)


# ------------------------------------------------------------------ #
# observability: metrics registry, event log, priority lanes, gc
# ------------------------------------------------------------------ #


def metric_value(text: str, name: str, labels: str = "") -> float:
    """One sample out of a rendered /metrics page."""
    needle = f"{name}{{{labels}}} " if labels else f"{name} "
    for line in text.splitlines():
        if line.startswith(needle):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {name}{{{labels}}} not in:\n{text}")


def synthetic_entries(count: int, start: int = 0):
    """Cheap (dedup_key, payload) pairs; no task compilation needed."""
    return [(f"item-{index:04d}", {"i": index}) for index in range(start, start + count)]


class TestMetrics:
    def test_counters_and_gauges_track_transitions(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        policy = RetryPolicy(max_attempts=2, backoff_base=1.0, backoff_cap=1.0)
        queue.submit_job("job", {"t": 1})
        queue.enqueue("job", synthetic_entries(3))
        # enqueueing the same items again is a dedup link, not a count
        queue.enqueue("job-b", synthetic_entries(3))

        item = queue.lease("w1", ttl=10.0, max_attempts=policy.max_attempts)
        queue.complete(item.dedup_key, "w1", duration=0.2)
        item = queue.lease("w1", ttl=10.0, max_attempts=policy.max_attempts)
        queue.heartbeat(item.dedup_key, "w1", ttl=10.0)
        queue.fail(item.dedup_key, "w1", "boom", policy, duration=2.0)
        # third item: lease it, let the lease expire
        item = queue.lease("w1", ttl=10.0, max_attempts=policy.max_attempts)
        clock.now += 11.0
        # oldest runnable first: w2 re-leases the requeued second item
        # (attempt budget now burned) and its fail quarantines it ...
        retried = queue.lease("w2", ttl=10.0, max_attempts=policy.max_attempts)
        assert retried is not None and retried.attempts == 2
        queue.fail(retried.dedup_key, "w2", "poison", policy)
        # ... then takes over the third item's expired lease
        takeover = queue.lease("w2", ttl=10.0, max_attempts=policy.max_attempts)
        assert takeover.dedup_key == item.dedup_key and takeover.attempts == 2

        text = service_metrics.render_metrics(queue)
        assert metric_value(text, "repro_queue_items_enqueued_total") == 3
        assert metric_value(text, "repro_queue_leases_total") == 5
        assert metric_value(text, "repro_queue_lease_expired_total") == 1
        assert metric_value(text, "repro_queue_heartbeats_total") == 1
        assert metric_value(text, "repro_queue_completes_total") == 1
        assert metric_value(text, "repro_queue_failures_total") == 2
        assert metric_value(text, "repro_queue_requeues_total") == 1
        assert metric_value(text, "repro_queue_quarantines_total") == 1
        assert metric_value(text, "repro_jobs_submitted_total") == 1
        # histogram: two observations (0.2s and 2.0s)
        assert metric_value(text, "repro_item_seconds_count") == 2
        assert metric_value(text, "repro_item_seconds_sum") == pytest.approx(2.2)
        assert metric_value(text, "repro_item_seconds_bucket", 'le="0.25"') == 1
        assert metric_value(text, "repro_item_seconds_bucket", 'le="+Inf"') == 2
        # gauges agree with the tables
        stats = queue.stats()
        for state in ("pending", "done", "quarantined"):
            both_lanes = sum(
                metric_value(text, "repro_queue_items", f'state="{state}",priority="{lane}"')
                for lane in ("high", "normal")
            )
            assert both_lanes == stats["items"].get(state, 0)
        # both workers heartbeated recently
        assert metric_value(text, "repro_workers_live") == 2
        assert metric_value(text, "repro_worker_items_processed_total", 'owner="w1"') == 2

    def test_scrape_is_consistent_with_queue_state(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.submit_job("job", {"t": 1})
        queue.enqueue("job", synthetic_entries(5))
        held = queue.lease("w", ttl=100.0, max_attempts=3)
        clock.now += 7.0
        text = service_metrics.render_metrics(queue)
        assert metric_value(text, "repro_queue_items", 'state="leased",priority="normal"') == 1
        assert metric_value(text, "repro_queue_items", 'state="pending",priority="normal"') == 4
        assert metric_value(text, "repro_queue_oldest_lease_age_seconds") == 7
        assert metric_value(text, "repro_queue_jobs", 'state="running"') == 1
        # progress ratio: 0 done of 5
        assert metric_value(text, "repro_job_progress_ratio", 'job="job"') == 0
        queue.complete(held.dedup_key, "w")
        text = service_metrics.render_metrics(queue)
        assert metric_value(text, "repro_job_progress_ratio", 'job="job"') == pytest.approx(0.2)
        assert metric_value(text, "repro_queue_oldest_lease_age_seconds") == 0


class TestEventLog:
    def test_transitions_append_and_replay_to_terminal_state(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        policy = RetryPolicy(max_attempts=2, backoff_base=1.0, backoff_cap=1.0)
        queue.submit_job("job", {"t": 1}, priority=PRIORITY_HIGH)
        queue.enqueue("job", synthetic_entries(2), priority=PRIORITY_HIGH)
        first = queue.lease("w", ttl=10.0, max_attempts=2)
        queue.complete(first.dedup_key, "w", duration=0.1)
        second = queue.lease("w", ttl=10.0, max_attempts=2)
        queue.fail(second.dedup_key, "w", "boom", policy)
        clock.now += 2.0
        again = queue.lease("w", ttl=10.0, max_attempts=2)
        queue.fail(again.dedup_key, "w", "boom again", policy)
        queue.set_job_state("job", LeaseQueue.JOB_FAILED, error="quarantined")

        events = list(read_events(tmp_path / "events.jsonl"))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "job-submit" and kinds.count("enqueue") == 2
        assert "requeue" in kinds and "quarantine" in kinds
        # timestamps are non-decreasing in file order
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)

        final = replay(events)
        states = queue.item_states([key for key, _ in synthetic_entries(2)])
        for key, (state, _) in states.items():
            assert final["items"][key]["state"] == state
        assert final["jobs"]["job"]["state"] == LeaseQueue.JOB_FAILED
        assert final["jobs"]["job"]["priority"] == PRIORITY_HIGH

    @pytest.mark.parametrize(
        "reader",
        [read_events, lambda path, **filters: follow_events(path, stop=lambda: True, **filters)],
        ids=["read_events", "follow_events"],
    )
    def test_torn_lines_are_skipped_and_filters_apply(self, tmp_path, reader):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.submit_job("job", {"t": 1})
        clock.now = 2000.0
        queue.enqueue("job", synthetic_entries(1))
        log_path = tmp_path / "events.jsonl"
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write('\nnot json\n[1, 2]\n{"ts": 2500.0}\n')  # no event on any line
            handle.write('{"ts": "x", "kind": "lease"}\n')  # a stamp that is no time
            handle.write('{"ts": 3000.0, "kind": "lea')  # torn mid-append
        assert [e["kind"] for e in reader(log_path)] == ["job-submit", "enqueue"]
        assert [e["kind"] for e in reader(log_path, since=1500.0)] == ["enqueue"]
        assert [e["kind"] for e in reader(log_path, kinds=["enqueue"])] == ["enqueue"]

    def test_follow_events_streams_appended_lines(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.submit_job("job", {"t": 1})
        seen = []
        done = threading.Event()

        def tail() -> None:
            for event in follow_events(
                tmp_path / "events.jsonl",
                poll_interval=0.01,
                stop=lambda: done.is_set() and len(seen) >= 2,
            ):
                seen.append(event["kind"])
            # generator returns via stop()

        thread = threading.Thread(target=tail, daemon=True)
        thread.start()
        queue.enqueue("job", synthetic_entries(1))
        deadline = time.monotonic() + 10.0
        while len(seen) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        done.set()
        thread.join(timeout=10.0)
        assert seen[:2] == ["job-submit", "enqueue"]


class TestPriorityLanes:
    def test_high_job_submitted_behind_big_normal_job_leases_first(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.submit_job("big", {"t": 1})
        queue.enqueue("big", synthetic_entries(12))
        queue.submit_job("urgent", {"t": 2}, priority=PRIORITY_HIGH)
        queue.enqueue(
            "urgent", synthetic_entries(2, start=100), priority=PRIORITY_HIGH
        )
        first = queue.lease("w", ttl=10.0, max_attempts=3)
        second = queue.lease("w", ttl=10.0, max_attempts=3)
        assert {first.dedup_key, second.dedup_key} == {"item-0100", "item-0101"}

    def test_high_enqueue_upgrades_shared_pending_item(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.enqueue("normal-job", synthetic_entries(1))
        queue.enqueue("high-job", synthetic_entries(1), priority=PRIORITY_HIGH)
        row = queue._conn().execute(
            "SELECT priority FROM items WHERE dedup_key = 'item-0000'"
        ).fetchone()
        assert row[0] == PRIORITY_HIGH

    def test_normal_lane_is_never_starved(self, tmp_path):
        # a continuous flood of high work: the normal lane must still get
        # one lease in every NORMAL_LANE_CREDIT + 1
        queue = LeaseQueue(tmp_path)
        queue.enqueue("n", synthetic_entries(4))
        queue.enqueue("h", synthetic_entries(60, start=1000), priority=PRIORITY_HIGH)
        lanes = []
        for _ in range(5 * (NORMAL_LANE_CREDIT + 1)):
            item = queue.lease("w", ttl=60.0, max_attempts=99)
            lanes.append("h" if item.dedup_key.startswith("item-1") else "n")
        assert lanes.count("n") == 4  # every normal item got through
        # and each was served within one credit window of the previous
        normal_positions = [i for i, lane in enumerate(lanes) if lane == "n"]
        assert normal_positions[0] <= NORMAL_LANE_CREDIT
        for before, after in zip(normal_positions, normal_positions[1:]):
            assert after - before <= NORMAL_LANE_CREDIT + 1

    def test_bounded_wait_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=25, deadline=None)
        @given(
            n_high=st.integers(min_value=0, max_value=20),
            n_normal=st.integers(min_value=1, max_value=20),
        )
        def check(n_high: int, n_normal: int) -> None:
            with tempfile.TemporaryDirectory() as tmp:
                queue = LeaseQueue(Path(tmp))
                queue.enqueue("n", synthetic_entries(n_normal))
                queue.enqueue(
                    "h", synthetic_entries(n_high, start=1000), priority=PRIORITY_HIGH
                )
                lanes = []
                while (item := queue.lease("w", ttl=60.0, max_attempts=99)) is not None:
                    lanes.append("h" if item.dedup_key.startswith("item-1") else "n")
                assert len(lanes) == n_high + n_normal
                # bounded wait: while normal work was pending, no run of
                # consecutive high leases ever exceeded the credit
                normal_left = n_normal
                streak = 0
                for lane in lanes:
                    if lane == "n":
                        normal_left -= 1
                        streak = 0
                    else:
                        streak += 1
                        if normal_left > 0:
                            assert streak <= NORMAL_LANE_CREDIT

        check()


class TestQueueGC:
    def seeded_queue(self, tmp_path, clock):
        queue = LeaseQueue(tmp_path, clock=clock)
        queue.submit_job("old-done", {"t": 1})
        queue.enqueue("old-done", synthetic_entries(2))
        for _ in range(2):
            item = queue.lease("w", ttl=10.0, max_attempts=3)
            queue.complete(item.dedup_key, "w")
        queue.set_job_state("old-done", LeaseQueue.JOB_DONE)
        return queue

    def test_gc_reclaims_terminal_jobs_artifacts_and_orphans(self, tmp_path):
        clock = FakeClock()
        queue = self.seeded_queue(tmp_path, clock)
        artifacts = tmp_path / "artifacts" / "old-done"
        artifacts.mkdir(parents=True)
        (artifacts / "index.md").write_text("report", encoding="utf-8")

        clock.now += 100_000.0
        result = queue.gc(job_ttl=3600.0, keep_last=0)
        assert result["jobs"] == ["old-done"]
        assert sorted(result["items"]) == ["item-0000", "item-0001"]
        assert queue.job_record("old-done") is None
        assert queue.item_states(["item-0000", "item-0001"]) == {}
        assert not artifacts.exists()
        text = service_metrics.render_metrics(queue)
        assert metric_value(text, "repro_gc_jobs_removed_total") == 1
        assert metric_value(text, "repro_gc_items_removed_total") == 2

    def test_gc_never_touches_live_leased_or_recent_work(self, tmp_path):
        clock = FakeClock()
        queue = self.seeded_queue(tmp_path, clock)
        # a running job holding pending + leased items, sharing one done
        # item with the terminal job
        queue.submit_job("live", {"t": 2})
        queue.enqueue("live", synthetic_entries(3))  # item-0000/0001 shared, done
        queue.enqueue("live", synthetic_entries(2, start=10))
        leased = queue.lease("w", ttl=10_000.0, max_attempts=3)

        clock.now += 100_000.0
        result = queue.gc(job_ttl=3600.0, keep_last=0)
        # the terminal job goes; every item the live job references stays
        assert result["jobs"] == ["old-done"] and result["items"] == []
        states = queue.item_states(
            [key for key, _ in synthetic_entries(3)]
            + [key for key, _ in synthetic_entries(2, start=10)]
        )
        assert len(states) == 5
        assert states[leased.dedup_key][0] == LeaseQueue.ITEM_LEASED
        assert queue.job_record("live")["state"] == LeaseQueue.JOB_RUNNING

    def test_keep_last_and_ttl_are_both_safety_nets(self, tmp_path):
        clock = FakeClock()
        queue = LeaseQueue(tmp_path, clock=clock)
        for index in range(4):
            clock.now = 1000.0 + index  # distinct updated stamps
            queue.submit_job(f"job-{index}", {"i": index})
            queue.set_job_state(f"job-{index}", LeaseQueue.JOB_DONE)
        clock.now = 2000.0
        queue.submit_job("young", {"i": 9})
        queue.set_job_state("young", LeaseQueue.JOB_DONE)

        clock.now = 5000.0
        # ttl protects 'young'; keep_last protects the 2 newest of the rest
        result = queue.gc(job_ttl=3600.0, keep_last=3)
        assert result["jobs"] == ["job-0", "job-1"]
        survivors = {record["job_id"] for record in queue.list_jobs()}
        assert survivors == {"job-2", "job-3", "young"}
        # quarantine rows whose item is gone are dropped too
        assert queue.gc(job_ttl=0.0, keep_last=0)["jobs"] == ["job-2", "job-3", "young"]


# ------------------------------------------------------------------ #
# queue executor
# ------------------------------------------------------------------ #


class TestQueueExecutor:
    def test_commits_done_items_and_raises_on_quarantine(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        store = SQLiteResultStore(tmp_path)
        good = plan_groups([make_task(seed=0)])[0]
        poison = plan_groups([make_task(seed=1)])[0]
        executor = QueueExecutor(queue, "job", poll_interval=0.01, store=store)

        def drain() -> None:
            # stand-in for a worker: execute the good group for real,
            # quarantine the poison one.  Like a real worker it opens
            # its own store — SQLite connections are thread-affine
            worker_store = SQLiteResultStore(tmp_path)
            deadline = time.monotonic() + 30.0
            served = 0
            while served < 2 and time.monotonic() < deadline:
                item = queue.lease("fake-worker", ttl=30.0, max_attempts=1)
                if item is None:
                    time.sleep(0.01)
                    continue
                good_key = group_dedup_key([t.task_hash() for t in good.tasks])
                if item.dedup_key == good_key:
                    context = InstanceContext()
                    worker_store.put_many(
                        [
                            (h, t.key_dict(), context.execute(t))
                            for h, t in zip(item.payload["hashes"], good.tasks)
                        ]
                    )
                    queue.complete(item.dedup_key, "fake-worker")
                else:
                    queue.fail(
                        item.dedup_key,
                        "fake-worker",
                        "synthetic poison",
                        RetryPolicy(max_attempts=1),
                    )
                served += 1

        committed = []
        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        with pytest.raises(QuarantinedTasksError, match="synthetic poison"):
            executor.run_units(
                [good, TaskGroup(key=poison.key, indices=(10,), tasks=poison.tasks)],
                committed.extend,
            )
        thread.join(timeout=30)
        # the good group was committed at its planner positions before
        # the quarantine surfaced — poison does not discard finished work
        assert sorted(index for index, _ in committed) == list(good.indices)
        assert all(row["correct"] for _, row in committed)

    def test_done_item_without_rows_is_rerun_once_then_raises(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        group = plan_groups([make_task(seed=2)])[0]
        executor = QueueExecutor(queue, "job", poll_interval=0.01)
        completions = []

        def complete_without_rows() -> None:
            # a worker whose rows never reach the store
            deadline = time.monotonic() + 30.0
            while len(completions) < 2 and time.monotonic() < deadline:
                item = queue.lease("fake-worker", ttl=30.0, max_attempts=3)
                if item is None:
                    time.sleep(0.01)
                    continue
                completions.append(queue.complete(item.dedup_key, "fake-worker"))

        thread = threading.Thread(target=complete_without_rows, daemon=True)
        thread.start()
        with pytest.raises(RuntimeError, match="missing from the store"):
            executor.run_units([group], lambda batch: None)
        thread.join(timeout=30)
        assert not thread.is_alive()
        # the first done-without-rows was sent back once; the second raised
        assert completions == [True, True]
        assert event_kinds(tmp_path).count("rerun") == 1


# ------------------------------------------------------------------ #
# worker behaviour
# ------------------------------------------------------------------ #


def enqueue_group(queue: LeaseQueue, job_id: str, tasks) -> str:
    [group] = plan_groups(list(tasks))
    hashes = [task.task_hash() for task in group.tasks]
    key = group_dedup_key(hashes)
    queue.enqueue(job_id, [(key, group_payload(group, hashes))])
    return key


class TestWorker:
    def test_worker_executes_and_commits(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        key = enqueue_group(queue, "job", [make_task(seed=0), make_task(seed=0, target="theorem3")])
        processed = run_worker(tmp_path, max_items=1, poll_interval=0.05)
        assert processed == 1
        assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_DONE
        store = SQLiteResultStore(tmp_path)
        row = store.get(make_task(seed=0).task_hash())
        assert row is not None and row["correct"]

    def test_poison_payload_is_quarantined_not_retried_forever(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        key = enqueue_group(queue, "job", [make_task()])
        # corrupt the stored payload: the worker child will fail to decode
        with queue._txn() as conn:
            conn.execute(
                "UPDATE items SET payload = ? WHERE dedup_key = ?",
                (json.dumps({"version": 1, "hashes": [], "tasks": [{"kind": "junk"}]}), key),
            )
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_cap=0.02)
        processed = run_worker(
            tmp_path, policy=policy, max_items=2, poll_interval=0.02
        )
        assert processed == 2
        state, error = queue.item_states([key])[key]
        assert state == LeaseQueue.ITEM_QUARANTINED
        assert "exited with code 1" in error

    def test_hung_execution_hits_wall_clock_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TEST_DELAY_ENV, "60")
        queue = LeaseQueue(tmp_path)
        key = enqueue_group(queue, "job", [make_task()])
        policy = RetryPolicy(max_attempts=1, task_timeout=0.3)
        start = time.monotonic()
        run_worker(tmp_path, policy=policy, max_items=1, poll_interval=0.02)
        assert time.monotonic() - start < 30.0  # killed, not joined for 60s
        state, error = queue.item_states([key])[key]
        assert state == LeaseQueue.ITEM_QUARANTINED
        assert "timed out" in error


# ------------------------------------------------------------------ #
# dead pool worker on the in-process --jobs path
# ------------------------------------------------------------------ #


class TestDeadPoolWorker:
    def test_jobs_pool_survives_a_killed_worker(self, tmp_path, monkeypatch, capfd):
        tasks = [make_task(seed=seed, target=target) for seed in range(4) for target in ("trivial", "theorem3")]
        reference = run_tasks(tasks)

        flag = tmp_path / "killed-once"
        original = InstanceContext.execute

        def kill_once(self, task):
            # first pool worker to get here nukes itself mid-chunk, once
            if not flag.exists():
                try:
                    flag.touch(exist_ok=False)
                except FileExistsError:
                    pass
                else:
                    os.kill(os.getpid(), signal.SIGKILL)
            return original(self, task)

        monkeypatch.setattr(InstanceContext, "execute", kill_once)
        rows = run_tasks(tasks, jobs=2)
        assert flag.exists()  # the kill really happened
        assert rows == reference
        assert "worker process died" in capfd.readouterr().err

    @pytest.mark.parametrize("path", ["normal", "respawn", "poison"])
    def test_no_pool_thread_outlives_run_tasks(self, path, tmp_path, monkeypatch, capfd):
        """A pool's manager and feeder threads are joined before
        ``run_tasks`` returns or raises, after a killed-worker respawn
        too, so no later fork (the next pool, a service child) inherits
        them."""
        tasks = [make_task(seed=seed, target=target) for seed in range(4) for target in ("trivial", "theorem3")]
        flag = tmp_path / "killed-once"
        original = InstanceContext.execute

        def kill(self, task):
            # respawn: the first worker to get here dies, once; poison: all do
            if path == "respawn":
                try:
                    flag.touch(exist_ok=False)
                except FileExistsError:
                    return original(self, task)
            os.kill(os.getpid(), signal.SIGKILL)

        if path != "normal":
            monkeypatch.setattr(InstanceContext, "execute", kill)
        before = threading.enumerate()
        if path == "poison":
            with pytest.raises(RuntimeError, match="died twice"):
                run_tasks(tasks, jobs=2)
        else:
            run_tasks(tasks, jobs=2)
        assert [t for t in threading.enumerate() if t not in before] == []
        assert ("worker process died" in capfd.readouterr().err) == (path != "normal")

    def test_chunk_lost_twice_raises_instead_of_spinning(self, tmp_path, monkeypatch):
        tasks = [make_task(seed=seed) for seed in range(2)]

        def always_kill(self, task):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(InstanceContext, "execute", always_kill)
        with pytest.raises(RuntimeError, match="died twice"):
            run_tasks(tasks, jobs=2)

    def test_pool_broken_at_submit_time_is_requeued(self, monkeypatch, capfd):
        """A worker that dies between two ``submit`` calls makes the next
        ``submit`` raise ``BrokenProcessPool``; that must take the same
        requeue path as a break seen while awaiting a result."""
        from concurrent.futures.process import BrokenProcessPool

        tasks = [make_task(seed=seed, target=target) for seed in range(4) for target in ("trivial", "theorem3")]
        reference = run_tasks(tasks)
        raised = []

        class BreaksOnSecondSubmit(runner_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.submits = 0

            def submit(self, fn, /, *args, **kwargs):
                self.submits += 1
                if self.submits == 2 and not raised:
                    raised.append(True)
                    raise BrokenProcessPool("a worker died between submits")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        rows = run_tasks(tasks, jobs=2)
        assert raised  # the submit-time break really happened
        assert rows == reference
        assert "worker process died" in capfd.readouterr().err

    def test_pool_refusing_every_submit_raises_instead_of_spinning(self, monkeypatch):
        """A pool whose very first ``submit`` raises has no future in
        flight; the refused chunk itself must count as lost, or every
        fresh pool would be refused the same way forever."""
        from concurrent.futures.process import BrokenProcessPool

        tasks = [make_task(seed=seed) for seed in range(4)]
        submits = []

        class RefusesEverySubmit(runner_module.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submits.append(fn)
                # fail fast instead of hanging if the requeue loop spins
                assert len(submits) <= 10, "respawned a refusing pool forever"
                raise BrokenProcessPool("the pool broke before any submit")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", RefusesEverySubmit)
        with pytest.raises(RuntimeError, match="died twice"):
            run_tasks(tasks, jobs=2)
        # one refused submit per pool: the first chunk, then its requeue
        assert len(submits) == 2


# ------------------------------------------------------------------ #
# the chaos test: SIGKILL a real worker mid-sweep
# ------------------------------------------------------------------ #


def spawn_test_worker(
    queue_dir: Path, lease_ttl: float, delay: float, poll_interval: float = 0.1, **popen_kwargs
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env[TEST_DELAY_ENV] = str(delay)
    return subprocess.Popen(
        [
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
            "3",
            "--backoff-base",
            "0.05",
            "--backoff-cap",
            "0.2",
        ],
        env=env,
        stderr=subprocess.DEVNULL,
        **popen_kwargs,
    )


class TestChaos:
    def test_sigkilled_worker_mid_sweep_job_still_byte_identical(self, tmp_path):
        spec = parse_spec_text(CHAOS_SPEC, fmt="toml", source="chaos.toml")
        serial_dir = tmp_path / "serial"
        generate_report(spec, serial_dir)

        queue_dir = tmp_path / "svc"
        lease_ttl = 2.0
        service = SweepService(queue_dir, lease_ttl=lease_ttl, poll_interval=0.1)
        job_id, created = service.submit_text(CHAOS_SPEC, "toml", name="chaos.toml")
        assert created

        workers = [spawn_test_worker(queue_dir, lease_ttl, delay=0.5) for _ in range(2)]
        victim, survivor = workers
        try:
            # wait until the victim provably holds a lease, then SIGKILL it
            victim_owner_suffix = f":{victim.pid}"
            deadline = time.monotonic() + 60.0
            held = False
            while time.monotonic() < deadline:
                owners = [
                    owner
                    for (owner,) in service.queue._conn().execute(
                        "SELECT owner FROM items WHERE state = 'leased'"
                    )
                ]
                if any(owner.endswith(victim_owner_suffix) for owner in owners):
                    held = True
                    break
                time.sleep(0.05)
            assert held, "victim worker never leased an item"
            victim.kill()
            victim.wait()

            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                record = service.queue.job_record(job_id)
                if record["state"] != LeaseQueue.JOB_RUNNING:
                    break
                time.sleep(0.25)
            assert record["state"] == LeaseQueue.JOB_DONE, record["error"]
        finally:
            for proc in workers:
                proc.kill()
                proc.wait()

        # nothing ran more than its attempt budget
        attempts = [
            count
            for (count,) in service.queue._conn().execute("SELECT attempts FROM items")
        ]
        assert attempts and all(1 <= count <= 3 for count in attempts)

        # byte-identity: the chaos-ridden service run == the serial run
        service_dir = service.artifacts_dir(job_id)
        serial_files = sorted(path.name for path in serial_dir.iterdir())
        service_files = sorted(path.name for path in service_dir.iterdir())
        assert service_files == serial_files
        for name in serial_files:
            assert (service_dir / name).read_bytes() == (serial_dir / name).read_bytes(), name

        # the metrics scrape agrees with the final queue state
        text = service_metrics.render_metrics(service.queue)
        stats = service.queue.stats()
        done_items = stats["items"].get(LeaseQueue.ITEM_DONE, 0)
        assert done_items == sum(
            metric_value(text, "repro_queue_items", f'state="done",priority="{lane}"')
            for lane in ("high", "normal")
        )
        assert metric_value(text, "repro_queue_jobs", 'state="done"') == 1
        assert metric_value(text, "repro_queue_completes_total") == done_items
        assert metric_value(text, "repro_queue_leases_total") == sum(attempts)
        # the SIGKILL showed up as at least one expired-lease takeover
        assert metric_value(text, "repro_queue_lease_expired_total") >= 1
        assert metric_value(text, "repro_item_seconds_count") >= done_items

        # the event log replays to the same terminal state (an append may
        # be lost at the SIGKILL instant; replay folds what landed, and
        # every completion is reported by a surviving worker afterwards)
        final = replay(read_events(queue_dir / "events.jsonl"))
        assert final["jobs"][job_id]["state"] == LeaseQueue.JOB_DONE
        states = {
            key: state
            for key, (state, _) in service.queue.item_states(
                list(final["items"])
            ).items()
        }
        assert len(final["items"]) == len(attempts)
        for key, folded in final["items"].items():
            assert folded["state"] == states[key] == LeaseQueue.ITEM_DONE


# ------------------------------------------------------------------ #
# daemon-level behaviour (in process, no HTTP)
# ------------------------------------------------------------------ #


class TestSweepServiceDrainAndResume:
    def test_drain_parks_job_and_restart_resumes_it(self, tmp_path):
        queue_dir = tmp_path / "svc"
        service = SweepService(queue_dir, lease_ttl=5.0, poll_interval=0.05)
        job_id, _ = service.submit_text(CHAOS_SPEC, "toml", name="chaos.toml")
        # drain immediately: no worker ever attached, nothing executed
        service.drain(timeout=30.0)
        assert service.queue.job_record(job_id)["state"] == LeaseQueue.JOB_RUNNING

        # "restart": a fresh service over the same directory resumes the
        # parked job, and a worker process drains the queue.  Not a worker
        # thread: the worker forks its execution child, and forking while
        # this process's job and polling threads sit inside SQLite can
        # hand the child a mutex that is never released
        service2 = SweepService(queue_dir, lease_ttl=5.0, poll_interval=0.05)
        assert service2.resume_running_jobs() == [job_id]
        worker = spawn_test_worker(queue_dir, lease_ttl=5.0, delay=0.0)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                record = service2.queue.job_record(job_id)
                if record["state"] != LeaseQueue.JOB_RUNNING:
                    break
                time.sleep(0.25)
        finally:
            worker.kill()
            worker.wait()
        assert record["state"] == LeaseQueue.JOB_DONE, record["error"]
        assert (service2.artifacts_dir(job_id) / "index.md").is_file()

    def test_identical_submissions_collapse(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        try:
            job_a, created_a = service.submit_text(CHAOS_SPEC, "toml")
            job_b, created_b = service.submit_text(CHAOS_SPEC, "toml")
            assert job_a == job_b
            assert created_a and not created_b
            assert len(service.queue.list_jobs()) == 1
        finally:
            # no worker ever drains this job: stop its polling thread so
            # it does not outlive the test (later tests fork processes)
            service.drain(timeout=30.0)


# ------------------------------------------------------------------ #
# heartbeat cadence and idle liveness
# ------------------------------------------------------------------ #


def event_kinds(queue_dir: Path):
    return [event["kind"] for event in read_events(Path(queue_dir) / "events.jsonl")]


class TestWorkerCadence:
    def test_item_shorter_than_the_heartbeat_interval_writes_no_heartbeat(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(TEST_DELAY_ENV, "1")
        queue = LeaseQueue(tmp_path)
        enqueue_group(queue, "job", [make_task()])
        # lease_ttl=30 -> heartbeat every 10 s; the item takes about 1 s
        assert run_worker(tmp_path, lease_ttl=30.0, max_items=1, poll_interval=0.05) == 1
        kinds = event_kinds(tmp_path)
        assert kinds.count("complete") == 1
        assert kinds.count("heartbeat") == 0

    def test_item_longer_than_the_heartbeat_interval_heartbeats(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TEST_DELAY_ENV, "1")
        queue = LeaseQueue(tmp_path)
        enqueue_group(queue, "job", [make_task()])
        run_worker(
            tmp_path,
            lease_ttl=30.0,
            heartbeat_interval=0.3,
            max_items=1,
            poll_interval=0.05,
        )
        kinds = event_kinds(tmp_path)
        assert kinds.count("complete") == 1
        assert kinds.count("heartbeat") >= 2

    def test_idle_worker_keeps_signing_life(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        run_worker(tmp_path, poll_interval=0.1, heartbeat_interval=0.1, idle_exit=0.5)
        [(first_seen, last_seen)] = list(
            queue._conn().execute("SELECT first_seen, last_seen FROM workers")
        )
        assert last_seen - first_seen >= 0.3


# ------------------------------------------------------------------ #
# warm workers
# ------------------------------------------------------------------ #


def spawn_python(script: str, *args: str, **popen_kwargs) -> subprocess.Popen:
    """A fresh interpreter running ``script`` with the checkout importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-c", script, *args], env=env, **popen_kwargs)


#: a worker whose execution child records, per item, the modules the
#: item imported (the diff of sys.modules around it) as one JSON line
RECORD_CHILD_IMPORTS = """
import json, os, sys
from pathlib import Path
import repro.service.worker as worker

queue_dir, out_file, items = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
execute = worker._execute_payload

def recording_execute(*args):
    before = set(sys.modules)
    ok = False
    try:
        store = execute(*args)
        ok = True
        return store
    finally:
        new = sorted(set(sys.modules) - before)
        with out_file.open("a") as out:
            out.write(json.dumps({"pid": os.getpid(), "ok": ok, "new": new}) + "\\n")

worker._execute_payload = recording_execute
worker.run_worker(queue_dir, max_items=items, poll_interval=0.05)
"""


class TestWarmWorker:
    def test_execution_child_imports_nothing_per_item(self, tmp_path):
        random = GraphSpec("random", 0.1)
        tasks = [
            SweepTask("scheme", "trivial", random, n=16, seed=1),
            SweepTask("scheme", "theorem3", random, n=16, seed=1),
            SweepTask("baseline", "ghs", random, n=16, seed=1),
            SweepTask("baseline", "full-info", random, n=16, seed=1),
            SweepTask("scheme", "flag", random, n=16, seed=2, problem="leader"),
            SweepTask("baseline", "flood", random, n=16, seed=2, problem="wakeup"),
            *(
                SweepTask("scheme", "theorem2", GraphSpec(family), n=16, seed=3)
                for family in ("torus", "hypercube", "powerlaw", "geometric")
            ),
        ]
        queue_dir, out_file = tmp_path / "q", tmp_path / "imports.jsonl"
        queue = LeaseQueue(queue_dir)
        groups = plan_groups(tasks)
        for group in groups:
            enqueue_group(queue, "job", group.tasks)
        worker = spawn_python(
            RECORD_CHILD_IMPORTS, str(queue_dir), str(out_file), str(len(groups))
        )
        assert worker.wait(timeout=120) == 0
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert len(records) == len(groups) == 6
        assert [record["ok"] for record in records] == [True] * len(groups)
        assert [record["new"] for record in records] == [[]] * len(groups)
        # one execution child ran them all, and it is not the worker itself
        assert len({record["pid"] for record in records}) == 1
        assert records[0]["pid"] != worker.pid

    def test_failed_warm_up_raises_before_anything_is_leased(self, tmp_path, monkeypatch):
        import repro.service.worker as worker_module

        def broken() -> None:
            raise ValueError("no scheme registry")

        monkeypatch.setattr(worker_module, "warm_up", broken)
        queue = LeaseQueue(tmp_path)
        key = enqueue_group(queue, "job", [make_task()])
        with pytest.raises(RuntimeError, match="warm-up execution failed: no scheme registry"):
            run_worker(tmp_path, max_items=1, poll_interval=0.05)
        assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_PENDING
        assert "lease" not in event_kinds(tmp_path)


# ------------------------------------------------------------------ #
# the execution child: one per worker, replaced after a failure
# ------------------------------------------------------------------ #


def record_child_items(monkeypatch, log: Path, hang_first: bool = False) -> None:
    """Make the execution child log each item's pid and graph-memo size
    as one JSON line; with ``hang_first`` the first item hangs."""
    import repro.runner.tasks as tasks_module
    import repro.service.worker as worker_module

    execute = worker_module._execute_payload

    def recording_execute(*args):
        first = not log.exists()
        record = {"pid": os.getpid(), "memo": len(tasks_module._GRAPH_MEMO)}
        with log.open("a") as out:
            out.write(json.dumps(record) + "\n")
        if hang_first and first:
            time.sleep(60)
        return execute(*args)

    monkeypatch.setattr(worker_module, "_execute_payload", recording_execute)


def logged_items(log: Path):
    return [json.loads(line) for line in log.read_text().splitlines()]


def child_pids(pid: int):
    return [int(child) for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


def process_gone(pid: int) -> bool:
    """Whether ``pid`` has exited: no ``/proc`` entry, or a zombie not reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def wait_for_worker_bell(queue_dir: Path, worker: subprocess.Popen) -> None:
    """Until ``worker`` has bound its bell: warmed up, child forked, leasing next."""
    deadline = time.monotonic() + 60.0
    while not list((Path(queue_dir) / "bells").glob(f"{WORKER_BELLS}*")):
        assert time.monotonic() < deadline, "the worker never bound its bell"
        assert worker.poll() is None
        time.sleep(0.02)


def wait_for_event(queue_dir: Path, kind: str, key: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not any(
        event["kind"] == kind and event.get("key") == key
        for event in read_events(Path(queue_dir) / "events.jsonl")
    ):
        assert time.monotonic() < deadline, f"no {kind} event for item {key[:12]}"
        time.sleep(0.05)


#: the tests below read a worker's children from /proc
PROC_CHILDREN = pytest.mark.skipif(
    not os.path.exists(f"/proc/self/task/{os.getpid()}/children"),
    reason="lists child processes through /proc",
)


class TestExecutionChild:
    def test_one_child_serves_consecutive_items_and_max_items_joins_it(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "items.jsonl"
        record_child_items(monkeypatch, log)
        queue = LeaseQueue(tmp_path / "q")
        keys = [enqueue_group(queue, "job", [make_task(seed=seed)]) for seed in range(3)]
        assert run_worker(tmp_path / "q", max_items=3, poll_interval=0.05) == 3
        states = queue.item_states(keys)
        assert [states[key][0] for key in keys] == [LeaseQueue.ITEM_DONE] * 3
        [pid] = {item["pid"] for item in logged_items(log)}
        assert pid != os.getpid()
        with pytest.raises(ChildProcessError):  # joined: nothing left to reap
            os.waitpid(pid, os.WNOHANG)

    def test_graph_memo_is_empty_after_each_item(self, tmp_path, monkeypatch):
        log = tmp_path / "items.jsonl"
        record_child_items(monkeypatch, log)
        queue = LeaseQueue(tmp_path / "q")
        for seed in range(3):
            enqueue_group(queue, "job", [make_task(seed=seed)])
        run_worker(tmp_path / "q", max_items=3, poll_interval=0.05)
        # what the first item finds is the warm-up's instance
        assert [item["memo"] for item in logged_items(log)][1:] == [0, 0]

    @pytest.mark.parametrize("failure", ["poison", "timeout"])
    def test_item_after_a_failed_one_runs_in_a_fresh_child(
        self, failure, tmp_path, monkeypatch
    ):
        log = tmp_path / "items.jsonl"
        record_child_items(monkeypatch, log, hang_first=failure == "timeout")
        queue = LeaseQueue(tmp_path / "q")
        bad = enqueue_group(queue, "job", [make_task(seed=0)])
        if failure == "poison":
            with queue._txn() as conn:
                conn.execute(
                    "UPDATE items SET payload = ? WHERE dedup_key = ?",
                    (json.dumps({"version": 1, "hashes": [], "tasks": [{"kind": "junk"}]}), bad),
                )
        good = enqueue_group(queue, "job", [make_task(seed=1)])  # leased second
        policy = RetryPolicy(max_attempts=1, task_timeout=1.0)
        assert run_worker(tmp_path / "q", policy=policy, max_items=2, poll_interval=0.02) == 2
        states = queue.item_states([bad, good])
        assert states[bad][0] == LeaseQueue.ITEM_QUARANTINED
        assert ("timed out" if failure == "timeout" else "exited with code 1") in states[bad][1]
        assert states[good][0] == LeaseQueue.ITEM_DONE
        first, second = [item["pid"] for item in logged_items(log)]
        assert first != second and os.getpid() not in (first, second)

    @PROC_CHILDREN
    @pytest.mark.parametrize("when", ["idle", "mid-item"])
    def test_sigkilled_worker_leaves_no_execution_child(self, when, tmp_path):
        queue = LeaseQueue(tmp_path)
        task = make_task(seed=5)
        worker = spawn_test_worker(tmp_path, lease_ttl=1.5, delay=2.0)
        try:
            if when == "idle":
                wait_for_worker_bell(tmp_path, worker)
            else:
                # a heartbeat means the child holds the item: it is sleeping
                # the 2 s test delay
                wait_for_event(tmp_path, "heartbeat", enqueue_group(queue, "job", [task]))
            [child] = child_pids(worker.pid)
        finally:
            worker.kill()
            worker.wait()
        deadline = time.monotonic() + 10.0
        while not process_gone(child):
            assert time.monotonic() < deadline, "the execution child outlived its worker"
            time.sleep(0.05)
        if when == "mid-item":  # it finished the item in hand first
            assert SQLiteResultStore(tmp_path).get(task.task_hash()) is not None

    @PROC_CHILDREN
    def test_process_group_sigterm_mid_item_drains_and_joins_the_child(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        worker = spawn_test_worker(tmp_path, lease_ttl=1.5, delay=2.0, start_new_session=True)
        try:
            key = enqueue_group(queue, "job", [make_task(seed=6)])
            wait_for_event(tmp_path, "heartbeat", key)
            [child] = child_pids(worker.pid)
            os.killpg(worker.pid, signal.SIGTERM)  # the worker and its child alike
            assert worker.wait(timeout=60) == 0
        finally:
            worker.kill()
            worker.wait()
        # the child ignored the signal and finished its item; the drain
        # reaped it before the worker exited
        assert not os.path.exists(f"/proc/{child}")
        assert queue.item_states([key])[key][0] == LeaseQueue.ITEM_DONE


# ------------------------------------------------------------------ #
# wake-ups instead of poll sleeps
# ------------------------------------------------------------------ #


def run_job_through_a_worker(queue_dir: Path, seed: int, executor_poll: float = 0.05):
    """One single-group job: a worker subprocess executes it, this thread waits."""
    queue = LeaseQueue(queue_dir)
    groups = plan_groups([make_task(seed=seed), make_task(seed=seed, target="theorem3")])
    worker = spawn_test_worker(queue_dir, lease_ttl=30.0, delay=0.0)
    stop = threading.Event()
    give_up = threading.Timer(120.0, stop.set)  # fail instead of hanging
    give_up.start()
    committed = []
    try:
        QueueExecutor(
            queue, f"job-{seed}", poll_interval=executor_poll, stop_event=stop
        ).run_units(groups, committed.extend)
    finally:
        give_up.cancel()
        worker.kill()
        worker.wait()
    assert sorted(index for index, _ in committed) == [0, 1]
    assert all(row["correct"] for _, row in committed)


class TestWakeups:
    def test_bell_buffers_rings_and_never_blocks_a_ringer(self, tmp_path):
        bells_dir = tmp_path / "bells"
        with Bell(bells_dir, WORKER_BELLS) as bell, Bell(bells_dir, JOB_BELLS) as job_bell:
            # far more rings than the kernel queues: none blocks or raises
            for _ in range(100):
                ring(bells_dir, WORKER_BELLS)
            started = time.monotonic()
            assert bell.wait(30.0)  # rung before the wait: returns at once
            assert time.monotonic() - started < 5.0
            assert not bell.wait(0.05)  # one wait consumed every buffered ring
            assert not job_bell.wait(0.05)  # rings reach their own kind only
        assert os.listdir(bells_dir) == []

    def test_idle_worker_and_waiting_job_wake_on_rings(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        worker = spawn_test_worker(tmp_path, lease_ttl=30.0, delay=0.0, poll_interval=30.0)
        try:
            # a bound worker bell means the warm-up is done and the first
            # lease is next; give it a moment to reach its 30 s wait
            wait_for_worker_bell(tmp_path, worker)
            time.sleep(0.3)
            committed = []
            started = time.monotonic()
            QueueExecutor(queue, "job", poll_interval=30.0).run_units(
                plan_groups([make_task(seed=4)]), committed.extend
            )
            elapsed = time.monotonic() - started
        finally:
            worker.kill()
            worker.wait()
        assert elapsed < 5.0
        assert [index for index, _ in committed] == [0]
        events = list(read_events(tmp_path / "events.jsonl"))
        [enqueued] = [event["ts"] for event in events if event["kind"] == "enqueue"]
        [leased] = [event["ts"] for event in events if event["kind"] == "lease"]
        assert leased - enqueued < 5.0

    def test_sigterm_cuts_an_idle_wait_short(self, tmp_path):
        worker = spawn_test_worker(tmp_path, lease_ttl=30.0, delay=0.0, poll_interval=30.0)
        try:
            wait_for_worker_bell(tmp_path, worker)
            worker.terminate()
            assert worker.wait(timeout=10.0) == 0  # not after its 30 s wait
        finally:
            worker.kill()
            worker.wait()
        assert os.listdir(tmp_path / "bells") == []  # the drained worker unbound

    def test_bell_path_over_the_unix_socket_limit_falls_back_to_polling(self, tmp_path):
        queue_dir = tmp_path / ("q" * 120)
        bells_dir = queue_dir / "bells"
        bell = Bell(bells_dir, JOB_BELLS)
        assert bell.path is None  # could not bind: waits by sleeping
        assert not bell.wait(0.01)
        bell.close()
        ring(bells_dir, JOB_BELLS)  # nothing to ring, nothing raised
        run_job_through_a_worker(queue_dir, seed=6)

    def test_stale_bell_of_a_sigkilled_waiter_is_removed_by_a_ring(self, tmp_path):
        waiter = spawn_python(
            "import sys, time\n"
            "from repro.service.bells import JOB_BELLS, Bell\n"
            "print(Bell(sys.argv[1], JOB_BELLS).path, flush=True)\n"
            "time.sleep(600)\n",
            str(tmp_path / "bells"),
            stdout=subprocess.PIPE,
            text=True,
        )
        stale = waiter.stdout.readline().strip()
        waiter.kill()
        waiter.wait()
        waiter.stdout.close()
        assert stale and os.path.exists(stale)
        run_job_through_a_worker(tmp_path, seed=7)
        assert not os.path.exists(stale)


# ------------------------------------------------------------------ #
# fault injection: killed between store commit and lease complete
# ------------------------------------------------------------------ #


#: a worker that dies right after its child committed the rows: the
#: parent SIGKILLs itself instead of marking the item complete
DIE_BEFORE_COMPLETE = """
import os, signal, sys
from pathlib import Path
from repro.service.queue import LeaseQueue
from repro.service.worker import run_worker

def die(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)

LeaseQueue.complete = die
run_worker(Path(sys.argv[1]), lease_ttl=float(sys.argv[2]), max_items=1, poll_interval=0.05)
"""

ONE_GROUP_SPEC = """
title = "one group"

[[experiment]]
name = "curves"
kind = "sweep"
schemes = ["trivial", "theorem3"]
sizes = [16]
seeds = [{seed}]
"""


class TestKilledBetweenCommitAndComplete:
    def test_expired_lease_is_re_executed_and_the_job_finishes(self, tmp_path):
        text = ONE_GROUP_SPEC.format(seed=3)
        spec = parse_spec_text(text, fmt="toml", source="one.toml")
        tasks = [task for _, batch in compile_tasks(spec) for task in batch]
        lease_ttl = 1.0
        service = SweepService(tmp_path, lease_ttl=lease_ttl, poll_interval=0.05)
        try:
            job_id, _ = service.submit_text(text, "toml", name="one.toml")
            killed = spawn_python(DIE_BEFORE_COMPLETE, str(tmp_path), str(lease_ttl))
            assert killed.wait(timeout=120) == -signal.SIGKILL
            [(state,)] = list(service.queue._conn().execute("SELECT state FROM items"))
            assert state == LeaseQueue.ITEM_LEASED  # rows committed, item not done

            survivor = spawn_test_worker(tmp_path, lease_ttl=lease_ttl, delay=0.0)
            try:
                deadline = time.monotonic() + 120.0
                while service.queue.job_record(job_id)["state"] == LeaseQueue.JOB_RUNNING:
                    assert time.monotonic() < deadline, "job never finished"
                    time.sleep(0.05)
            finally:
                survivor.kill()
                survivor.wait()
            record = service.queue.job_record(job_id)
            assert record["state"] == LeaseQueue.JOB_DONE, record["error"]
        finally:
            service.drain(timeout=30.0)

        # the re-executed group wrote byte-identical rows
        reference = run_tasks(tasks)
        store = SQLiteResultStore(tmp_path)
        stored = [store.get(task.task_hash()) for task in tasks]
        assert [json.dumps(row) for row in stored] == [
            json.dumps(json.loads(json.dumps(row))) for row in reference
        ]
        store.close()

        text = service_metrics.render_metrics(service.queue)
        assert metric_value(text, "repro_queue_lease_expired_total") == 1
        [key] = [key for key, in service.queue._conn().execute("SELECT dedup_key FROM items")]
        item_events = [
            event for event in read_events(tmp_path / "events.jsonl") if event.get("key") == key
        ]
        leases = [event for event in item_events if event["kind"] == "lease"]
        assert [event.get("expired") for event in leases] == [None, True]
        assert [event["kind"] for event in item_events].count("complete") == 1


# ------------------------------------------------------------------ #
# upgrade: items finished under the older sharded result store
# ------------------------------------------------------------------ #


def write_sharded_store(directory: Path, tasks, rows) -> None:
    """The older store layout: ``store.layout`` plus ``shard-00.sqlite``."""
    (directory / "store.layout").write_text('{"schema_version": 1, "shards": 4}')
    with contextlib.closing(sqlite3.connect(directory / "shard-00.sqlite")) as conn, conn:
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        conn.execute("INSERT INTO meta VALUES ('schema_version', '1'), ('shards', '4')")
        conn.execute(
            "CREATE TABLE results (key TEXT PRIMARY KEY, task TEXT NOT NULL,"
            " result TEXT NOT NULL)"
        )
        conn.executemany(
            "INSERT INTO results VALUES (?, ?, ?)",
            [
                (task.task_hash(), json.dumps(task.key_dict()), json.dumps(row))
                for task, row in zip(tasks, rows)
            ],
        )


class TestUpgradeFromShardedStore:
    def test_parked_job_whose_done_rows_sit_in_a_shard_file_finishes(self, tmp_path):
        """A job parked under the older sharded store left its finished
        group ``done`` in the queue, with the rows in ``shard-00.sqlite``,
        which is not read.  Resumed, the job re-runs that group instead of
        failing, and its artifacts match a serial run."""
        text = ONE_GROUP_SPEC.format(seed=4)
        spec = parse_spec_text(text, fmt="toml", source="one.toml")
        tasks = [task for _, batch in compile_tasks(spec) for task in batch]
        serial_dir = tmp_path / "serial"
        generate_report(spec, serial_dir)

        queue_dir = tmp_path / "svc"
        service = SweepService(queue_dir, lease_ttl=5.0, poll_interval=0.05)
        job_id, _ = service.submit_text(text, "toml", name="one.toml")
        service.drain(timeout=30.0)  # parked: the job's one item is pending
        item = service.queue.lease("old-worker", ttl=30.0, max_attempts=3)
        assert item is not None and service.queue.complete(item.dedup_key, "old-worker")
        write_sharded_store(queue_dir, tasks, run_tasks(tasks))
        old = {
            name: (queue_dir / name).read_bytes()
            for name in ("shard-00.sqlite", "store.layout")
        }

        service2 = SweepService(queue_dir, lease_ttl=5.0, poll_interval=0.05)
        assert service2.resume_running_jobs() == [job_id]
        worker = spawn_test_worker(queue_dir, lease_ttl=5.0, delay=0.0)
        try:
            deadline = time.monotonic() + 120.0
            while service2.queue.job_record(job_id)["state"] == LeaseQueue.JOB_RUNNING:
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.05)
        finally:
            worker.kill()
            worker.wait()
            service2.drain(timeout=30.0)
        record = service2.queue.job_record(job_id)
        assert record["state"] == LeaseQueue.JOB_DONE, record["error"]

        service_dir = service2.artifacts_dir(job_id)
        names = sorted(path.name for path in serial_dir.iterdir())
        assert sorted(path.name for path in service_dir.iterdir()) == names
        for name in names:
            assert (service_dir / name).read_bytes() == (serial_dir / name).read_bytes(), name
        kinds = [
            event["kind"]
            for event in read_events(queue_dir / "events.jsonl")
            if event.get("key") == item.dedup_key
        ]
        assert kinds.count("rerun") == 1 and kinds.count("complete") == 2
        assert {name: (queue_dir / name).read_bytes() for name in old} == old


# ------------------------------------------------------------------ #
# connection hygiene: jobs leave nothing open behind them
# ------------------------------------------------------------------ #


def live_sqlite_connections() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, sqlite3.Connection))


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def http_json(url: str, body: bytes = None):
    request = urllib.request.Request(url, data=body, method="POST" if body else "GET")
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts fds through /proc")
class TestConnectionHygiene:
    def test_jobs_leave_no_connections_fds_or_threads_behind(self, tmp_path):
        service = SweepService(tmp_path / "svc", poll_interval=0.05)
        server = make_server(service)
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        worker = spawn_test_worker(service.directory, lease_ttl=30.0, delay=0.0)
        quiet_threads = threading.active_count()

        def settle() -> None:
            # the job thread and the request threads have all ended
            deadline = time.monotonic() + 30.0
            while threading.active_count() > quiet_threads:
                assert time.monotonic() < deadline, threading.enumerate()
                time.sleep(0.01)
            # and so has this thread's own connection: while it is open,
            # SQLite keeps the descriptors of closed connections to the
            # same file for reuse, as many as closed at once
            service.queue.close()

        gc.collect()
        gc.disable()
        try:
            after_first = None
            for seed in range(20):
                body = ONE_GROUP_SPEC.format(seed=seed).encode("utf-8")
                job_id = http_json(f"{url}/jobs?name=job.toml", body)["job_id"]
                deadline = time.monotonic() + 60.0
                while (status := http_json(f"{url}/jobs/{job_id}"))["state"] == "running":
                    assert time.monotonic() < deadline, "job never finished"
                    time.sleep(0.02)
                assert status["state"] == "done", status["error"]
                settle()
                if after_first is None:
                    after_first = (live_sqlite_connections(), open_fds())
            assert live_sqlite_connections() <= after_first[0]
            assert open_fds() <= after_first[1]
            assert all(thread.is_alive() for thread in service._threads.values())
        finally:
            gc.enable()
            worker.kill()
            worker.wait()
            server.shutdown()
            server.server_close()
            service.drain(timeout=30.0)


# ------------------------------------------------------------------ #
# HTTP routes: what the daemon serves, and what it refuses
# ------------------------------------------------------------------ #


@contextlib.contextmanager
def serving(directory: Path, timeout: float = None):
    """A daemon on an ephemeral port, with no workers and no job threads.

    ``timeout`` replaces the handler's socket timeout for this server.
    """
    service = SweepService(directory)
    server = make_server(service)
    if timeout is not None:
        server.RequestHandlerClass.timeout = timeout
    # a short poll interval: shutdown() waits for the loop's next poll
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield service, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        service.queue.close()


@pytest.fixture
def served(tmp_path):
    with serving(tmp_path / "svc") as served:
        yield served


def raw_request(port: int, method: str, path: str, headers=()) -> http.client.HTTPResponse:
    """Send ``path`` unnormalised (``http.client`` keeps ``..`` segments)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    conn.putrequest(method, path, skip_accept_encoding=True)
    for name, value in headers:
        conn.putheader(name, value)
    conn.endheaders()
    response = conn.getresponse()
    response.body = response.read()
    conn.close()
    return response


class TestHttpRoutes:
    def test_artifacts_are_served_only_for_job_records(self, served):
        service, port = served
        job_id = "ab" * 16
        service.queue.submit_job(job_id, {"format": "toml", "text": "", "name": None})
        artifacts = service.artifacts_dir(job_id)
        artifacts.mkdir(parents=True)
        (artifacts / "index.md").write_bytes(b"# index\n")
        task = make_task()
        with contextlib.closing(SQLiteResultStore(service.directory)) as store:
            store.put_many([(task.task_hash(), task.key_dict(), {"n": 8})])
        for name in ("queue.sqlite", "results.sqlite", "events.jsonl"):
            assert (service.directory / name).is_file()
            response = raw_request(port, "GET", f"/jobs/../artifacts/{name}")
            assert response.status == 404, name
            assert b"no such artifact" in response.body
        response = raw_request(port, "GET", f"/jobs/{job_id}/artifacts/index.md")
        assert response.status == 200
        assert response.body == b"# index\n"
        assert response.getheader("Content-Type") == "text/markdown"

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_answered_with_400(self, served, length):
        service, port = served
        response = raw_request(port, "POST", "/jobs", [("Content-Length", length)])
        assert response.status == 400
        assert "Content-Length" in json.loads(response.body)["error"]
        assert service.queue.list_jobs() == []


#: the handler socket timeout the slow-client tests give their server,
#: shorter than the 0.5 s between two progress lines
SHORT_TIMEOUT = 0.3


def request_threads():
    return [t for t in threading.enumerate() if "process_request_thread" in t.name]


class TestSlowClients:
    def test_a_stalled_body_is_dropped_after_the_timeout(self, tmp_path, capfd):
        with serving(tmp_path / "svc", timeout=SHORT_TIMEOUT) as (service, port):
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                sock.sendall(
                    b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\n"
                    b"Content-Type: application/json\r\n\r\n" + b"{" * 10
                )
                started = time.monotonic()
                # the server closes the connection without an answer
                assert sock.recv(1024) == b""
                waited = time.monotonic() - started
            assert waited < SHORT_TIMEOUT + 5.0
            deadline = time.monotonic() + 5.0
            while request_threads():
                assert time.monotonic() < deadline, request_threads()
                time.sleep(0.01)
            # the daemon still serves, and accepted nothing from the stall
            assert http_json(f"http://127.0.0.1:{port}/healthz")["ok"]
            assert service.queue.list_jobs() == []
        err = capfd.readouterr().err
        assert "Request timed out" in err
        assert "Traceback" not in err

    def test_progress_streams_outlive_the_timeout(self, tmp_path):
        with serving(tmp_path / "svc", timeout=SHORT_TIMEOUT) as (service, port):
            job_id = "cd" * 16
            service.queue.submit_job(job_id, {"format": "toml", "text": "", "name": None})
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                sock.sendall(
                    f"GET /jobs/{job_id}/progress HTTP/1.1\r\nHost: test\r\n\r\n".encode()
                )
                received = b""
                started = time.monotonic()
                # three progress lines span at least two idle gaps of 0.5 s
                while received.count(b"job ") < 3 or time.monotonic() - started < 3 * SHORT_TIMEOUT:
                    chunk = sock.recv(4096)
                    assert chunk, "the stream closed while the job ran"
                    received += chunk
                service.queue.set_job_state(job_id, LeaseQueue.JOB_FAILED, "stopped")
                while chunk:
                    chunk = sock.recv(4096)
                    received += chunk
        text = received.decode("utf-8")
        assert text.startswith("HTTP/1.0 200")
        assert text.count(f"job {job_id[:8]}") >= 3
        assert text.endswith("state: failed\nerror: stopped\n")

