"""Tests of the sharded SQLite result store and of rerunning a killed run.

The store's contract: ``get`` / ``put`` / ``put_many`` with hit/miss
counters, corruption is a miss (never an error), and — most importantly
— sweeps served from the store are byte-identical to fresh ones.  The
multiprocessing stress test hammers one store from many
concurrent writer processes with overlapping task sets, which is the
shape of several ``--jobs`` sweeps sharing a cache directory.
"""

import json
import multiprocessing
import os
import signal
import sqlite3
from dataclasses import replace

import pytest

from repro.analysis.sweep import run_scheme_sweep
from repro.runner import (
    ExecutionStats,
    GraphSpec,
    InstanceContext,
    ProgressReporter,
    SQLiteResultStore,
    SweepTask,
    plan_groups,
    run_tasks,
)
from repro.runner.store import DEFAULT_SHARDS, STORE_SCHEMA_VERSION
from repro.simulator.adversary import FaultSpec

#: two instance groups of two tasks each; each group runs ``trivial``
#: before the trace-driven ``theorem2``
TASKS = [
    SweepTask("scheme", target, GraphSpec("random", 0.1), 16, seed)
    for seed in (0, 1)
    for target in ("trivial", "theorem2")
]


def _row(tag):
    """A result-row stand-in with a float that must survive round-trips."""
    return {"kind": "scheme", "value": 0.1 + tag, "correct": True}


class TestSQLiteStoreContract:
    def test_unusable_directory_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ValueError):
            SQLiteResultStore(blocker / "sub")

    def test_round_trip_and_counters(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.misses == 1
        store.put("0" * 64, {"task": 1}, _row(0))
        assert store.get("0" * 64) == _row(0)
        assert store.hits == 1

    def test_put_overwrites(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        store.put("ab" * 32, {}, _row(1))
        store.put("ab" * 32, {}, _row(2))
        assert store.get("ab" * 32) == _row(2)
        assert store.stats()["rows"] == 1

    def test_persists_across_instances(self, tmp_path):
        SQLiteResultStore(tmp_path).put("cd" * 32, {}, _row(3))
        assert SQLiteResultStore(tmp_path).get("cd" * 32) == _row(3)

    def test_float_rows_round_trip_exactly(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        row = {"avg": 1.0 / 3.0, "big": 2.0 ** 60, "tiny": 5e-324}
        store.put("ef" * 32, {}, row)
        assert json.dumps(store.get("ef" * 32)) == json.dumps(row)

    def test_shard_layout(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        files = sorted(p.name for p in tmp_path.glob("shard-*.sqlite"))
        assert len(files) == DEFAULT_SHARDS == store.shards
        keys = [f"{i:02x}" * 32 for i in range(64)]
        for i, key in enumerate(keys):
            store.put(key, {}, _row(i))
        stats = store.stats()
        assert stats["rows"] == len(keys)
        assert stats["schema_version"] == STORE_SCHEMA_VERSION
        # the hash-prefix routing actually spreads the key space
        populated = [row for row in stats["per_shard"] if row["rows"]]
        assert len(populated) > 1

    def test_reopen_adopts_existing_layout(self, tmp_path):
        SQLiteResultStore(tmp_path, shards=2).put("ab" * 32, {}, _row(0))
        reopened = SQLiteResultStore(tmp_path, shards=8)
        assert reopened.shards == 2  # on-disk layout wins over the argument
        assert reopened.get("ab" * 32) == _row(0)

    def test_layout_file_pins_the_shard_count(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        layout = json.loads(store.layout_path.read_text())
        assert layout["shards"] == store.shards
        store.close()
        # even with shard files missing (partial creation, manual damage)
        # the layout claim — not a racy glob — decides the routing
        store.path_for_shard(store.shards - 1).unlink()
        assert SQLiteResultStore(tmp_path, shards=16).shards == store.shards

    def test_legacy_directory_without_layout_file(self, tmp_path):
        store = SQLiteResultStore(tmp_path, shards=2)
        store.put("ab" * 32, {}, _row(0))
        store.close()
        store.layout_path.unlink()  # a pre-layout-file store directory
        reopened = SQLiteResultStore(tmp_path, shards=8)
        assert reopened.shards == 2  # counted from disk ...
        assert json.loads(reopened.layout_path.read_text())["shards"] == 2  # ... and pinned
        assert reopened.get("ab" * 32) == _row(0)

    def test_non_hex_keys_still_route(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        store.put("not-a-hash", {}, _row(7))
        assert store.get("not-a-hash") == _row(7)

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        store.put("ab" * 32, {}, _row(0))
        index = store.shard_for("ab" * 32)
        store.close()
        conn = sqlite3.connect(store.path_for_shard(index))
        conn.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
        conn.commit()
        conn.close()
        fresh = SQLiteResultStore(tmp_path)
        assert fresh.get("ab" * 32) is None  # stale generation dropped
        fresh.put("ab" * 32, {}, _row(1))
        assert fresh.get("ab" * 32) == _row(1)


class TestCorruptShardRecovery:
    def test_corrupt_shard_misses_then_recovers(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        key = "ab" * 32
        store.put(key, {}, _row(0))
        index = store.shard_for(key)
        store.close()
        store.path_for_shard(index).write_text("this is not a database")

        # corruption is a miss, never an error ...
        reopened = SQLiteResultStore(tmp_path)
        assert reopened.get(key) is None
        assert reopened.misses == 1
        # ... and the next write rebuilds the shard
        reopened.put(key, {}, _row(1))
        assert reopened.get(key) == _row(1)
        assert reopened.stats()["rows"] == 1

    def test_corrupt_shard_only_loses_its_own_keys(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        keys = [f"{i:02x}" * 32 for i in range(32)]
        for i, key in enumerate(keys):
            store.put(key, {}, _row(i))
        victim = store.shard_for(keys[0])
        store.close()
        store.path_for_shard(victim).write_text("garbage")
        reopened = SQLiteResultStore(tmp_path)
        survivors = [k for k in keys if reopened.shard_for(k) != victim]
        assert survivors
        for key in survivors:
            assert reopened.get(key) is not None
        assert reopened.get(keys[0]) is None

    def test_transient_errors_never_delete_the_shard(self, tmp_path):
        """Lock contention retries behind bounded seeded backoff, then
        surfaces; other transient errors surface at once — and neither
        ever destroys committed rows."""
        store = SQLiteResultStore(tmp_path, lock_retries=2)
        key = "ab" * 32
        store.put(key, {}, _row(0))
        index = store.shard_for(key)
        store._drop_conn(index)
        attempts = []
        delays = []
        store._sleep = delays.append

        def locked(_index):
            attempts.append(_index)
            raise sqlite3.OperationalError("database is locked")

        store._conn = locked
        with pytest.raises(sqlite3.OperationalError):
            store.put(key, {}, _row(1))
        # bounded: the initial try plus lock_retries retries, each behind
        # a deterministic positive backoff — then the error is real
        assert attempts == [index] * 3
        assert len(delays) == 2 and all(delay > 0 for delay in delays)
        # a disk-full style error is not lock contention: no retry at all
        attempts.clear()

        def disk_error(_index):
            attempts.append(_index)
            raise sqlite3.OperationalError("disk I/O error")

        store._conn = disk_error
        with pytest.raises(sqlite3.OperationalError):
            store.put(key, {}, _row(1))
        assert attempts == [index]
        # the shard file survived untouched, with its committed row
        fresh = SQLiteResultStore(tmp_path)
        assert fresh.get(key) == _row(0)

    def test_run_tasks_recomputes_after_corruption(self, tmp_path):
        fresh = run_tasks(TASKS, cache_dir=tmp_path)
        for shard in tmp_path.glob("shard-*.sqlite"):
            shard.write_text("garbage")
        recovered = run_tasks(TASKS, cache_dir=tmp_path)
        assert json.dumps(recovered) == json.dumps(fresh)
        assert SQLiteResultStore(tmp_path).stats()["rows"] == len(TASKS)


def _die_between_layout_write_and_link(directory):
    """Open a brand-new store, killed after the layout claim's temp write."""
    os.link = lambda *args: os._exit(3)  # this forked child only
    SQLiteResultStore(directory)


class TestMaintenance:
    def test_gc_drops_foreign_generations(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        run_tasks(TASKS, cache_dir=store)
        live = store.stats()["rows"]
        current = TASKS[0].key_dict()
        faulty = replace(TASKS[0], fault=FaultSpec(delta=2)).key_dict()
        store.put("ab" * 32, {"format": 2, "lib": "0.0.0"}, _row(0))  # stale lib
        store.put("cd" * 32, {}, _row(1))  # no provenance at all
        # another backend generation, another adversary generation
        stale_backend = dict(current, backend_version=current["backend_version"] + 1)
        store.put("ef" * 32, stale_backend, _row(2))
        stale_fault = dict(faulty, fault=dict(faulty["fault"], adversary_version=0))
        store.put("0a" * 32, stale_fault, _row(3))
        store.put("0b" * 32, faulty, _row(4))  # a current faulty row stays
        assert store.gc() == {"removed": 4, "kept": live + 1}
        assert store.stats()["rows"] == live + 1
        # gc'd store still serves the live rows byte-identically
        warm = SQLiteResultStore(tmp_path)
        run_tasks(TASKS, cache_dir=warm)
        assert warm.hits == len(TASKS)

    def test_gc_removes_temp_files_of_dead_writers_only(self, tmp_path):
        child = multiprocessing.get_context("fork").Process(
            target=_die_between_layout_write_and_link, args=(str(tmp_path),)
        )
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 3
        (stray,) = tmp_path.glob(".layout.*.tmp")
        assert stray.name == f".layout.{child.pid}.tmp"
        store = SQLiteResultStore(tmp_path)  # claims the layout the child never linked
        own = tmp_path / f".layout.{os.getpid()}.tmp"
        own.write_text("{}")
        store.gc()
        assert not stray.exists()
        # a live writer may be mid-write: its temp file stays
        assert own.exists()


def _stress_writer(args):
    """One writer process: upsert an overlapping slice of the key space."""
    directory, start, count, tag = args
    store = SQLiteResultStore(directory)
    items = [
        (f"{index:03x}" + "0" * 61, {"task": index}, {"index": index, "tag": tag})
        for index in range(start, start + count)
    ]
    # alternate batched and single-row writes: both paths must be safe
    if tag % 2:
        store.put_many(items)
    else:
        for key, task, row in items:
            store.put(key, task, row)
    return tag


class TestConcurrentWriters:
    def test_many_processes_no_lost_rows(self, tmp_path):
        """Overlapping upserts from many writers: no lost rows, no corruption."""
        writers = 8
        span = 40  # each writer covers [start, start+span), half-overlapping
        jobs = [(str(tmp_path), w * span // 2, span, w) for w in range(writers)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=writers) as pool:
            done = pool.map(_stress_writer, jobs)
        assert sorted(done) == list(range(writers))

        store = SQLiteResultStore(tmp_path)
        universe = {index for _, start, count, _ in jobs for index in range(start, start + count)}
        assert store.stats()["rows"] == len(universe)
        for index in sorted(universe):
            row = store.get(f"{index:03x}" + "0" * 61)
            assert row is not None and row["index"] == index
            # overlapped keys hold exactly one writer's complete row
            assert row["tag"] in range(writers)
        assert store.misses == 0

    def test_concurrent_sweeps_share_one_store(self, tmp_path):
        """Two parallel run_tasks calls over the same directory agree."""
        a = run_tasks(TASKS, jobs=2, cache_dir=tmp_path)
        b = run_tasks(TASKS, jobs=2, cache_dir=tmp_path)
        assert json.dumps(a) == json.dumps(b)


def _run_killed_in_second_group(directory):
    """Run TASKS into the store; SIGKILL inside the second group's first execute."""
    original = InstanceContext.execute
    contexts = []

    def execute(self, task):
        if not any(context is self for context in contexts):
            contexts.append(self)  # one context per instance group
            if len(contexts) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return original(self, task)

    InstanceContext.execute = execute  # this forked child only
    run_tasks(TASKS, cache_dir=directory)


class TestResume:
    def test_killed_run_resumes_without_recomputation(self, tmp_path, monkeypatch):
        """A run SIGKILLed mid-sweep, rerun on the same store, executes only the rest.

        The first group's rows were committed before the kill; the rerun
        must serve exactly those from the store, execute every other task
        and produce rows byte-identical to a fresh run.
        """
        fresh = run_tasks(TASKS)
        child = multiprocessing.get_context("fork").Process(
            target=_run_killed_in_second_group, args=(str(tmp_path),)
        )
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == -signal.SIGKILL
        first_group = plan_groups(TASKS)[0]
        assert [len(group.tasks) for group in plan_groups(TASKS)] == [2, 2]

        executed = []
        original = InstanceContext.execute

        def spy(self, task):
            executed.append(task)
            return original(self, task)

        monkeypatch.setattr(InstanceContext, "execute", spy)
        stats = ExecutionStats()
        rerun = run_tasks(TASKS, cache_dir=tmp_path, stats=stats)
        assert stats.cache_hits == len(first_group.tasks) == 2
        assert executed == [
            task for index, task in enumerate(TASKS) if index not in first_group.indices
        ]
        assert len(executed) == 2
        assert json.dumps(rerun) == json.dumps(fresh)

        # everything is committed now: a second rerun executes nothing
        stats = ExecutionStats()
        again = run_tasks(TASKS, cache_dir=tmp_path, stats=stats)
        assert stats.cache_misses == 0
        assert json.dumps(again) == json.dumps(fresh)

    def test_resume_is_byte_identical_across_jobs(self, tmp_path):
        fresh = run_scheme_sweep("trivial", sizes=(8, 16), seeds=(0, 1))
        resumed = run_scheme_sweep(
            "trivial", sizes=(8, 16), seeds=(0, 1), cache_dir=tmp_path, jobs=2
        )
        assert json.dumps(resumed.rows) == json.dumps(fresh.rows)

    def test_checkpoints_are_incremental(self, tmp_path):
        """Every completed group is durable before the run ends."""
        seen = []
        store = SQLiteResultStore(tmp_path)
        original = store.put_many

        def spy(items):
            original(items)
            seen.append(SQLiteResultStore(tmp_path).stats()["rows"])

        store.put_many = spy
        run_tasks(TASKS, cache_dir=store)
        # four tasks over two instance groups: one commit per group, and
        # the store already held the first group's rows when the second landed
        assert seen == [2, 4]


class TestProgressReporter:
    def test_counts_rates_and_final_newline(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(4, label="sweep", stream=stream, min_interval=0.0)
        reporter.add_cached(2)
        reporter.add_executed(1)
        reporter.add_executed(1)
        reporter.close()
        output = stream.getvalue()
        assert "sweep: 4/4 done (2 cached)" in output
        assert "tasks/s" in output

    def test_nothing_executed_means_no_rate_or_eta(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(3, label="report", stream=stream, min_interval=0.0)
        reporter.add_cached(3)
        reporter.close()
        assert stream.getvalue().splitlines()[-1] == "report: 3/3 done (3 cached)"

    def test_progress_goes_to_stderr_not_stdout(self, tmp_path, capsys):
        run_tasks(TASKS, cache_dir=tmp_path, progress=True)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{len(TASKS)}/{len(TASKS)} done" in captured.err
