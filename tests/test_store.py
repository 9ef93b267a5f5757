"""Tests of the one-file SQLite result store and of rerunning a killed run.

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
from repro.runner.store import LOCK_RETRIES, STORE_SCHEMA_VERSION
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

    def test_one_store_file(self, tmp_path):
        """Every row lands in the one store file, whatever its key."""
        store = SQLiteResultStore(tmp_path)
        keys = [f"{i:02x}" * 32 for i in range(64)]
        for i, key in enumerate(keys):
            store.put(key, {}, _row(i))
        stats = store.stats()
        assert stats["rows"] == len(keys)
        assert stats["schema_version"] == STORE_SCHEMA_VERSION
        assert store.path == tmp_path / "results.sqlite"
        assert [p.name for p in tmp_path.glob("*.sqlite")] == ["results.sqlite"]

    def test_arbitrary_keys_round_trip(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        store.put("not-a-hash", {}, _row(7))
        assert store.get("not-a-hash") == _row(7)

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        store.put("ab" * 32, {}, _row(0))
        store.close()
        conn = sqlite3.connect(store.path)
        conn.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
        conn.commit()
        conn.close()
        fresh = SQLiteResultStore(tmp_path)
        assert fresh.get("ab" * 32) is None  # stale generation dropped
        fresh.put("ab" * 32, {}, _row(1))
        assert fresh.get("ab" * 32) == _row(1)


class TestShardLayoutDirectory:
    def test_shard_files_are_not_read(self, tmp_path, capsys, monkeypatch):
        """A directory of the former sharded layout holds no store: a run
        recomputes every task into ``results.sqlite`` beside the old files,
        which stay untouched."""
        from contextlib import closing

        from repro.cli import main

        fresh = run_tasks(TASKS)
        (tmp_path / "store.layout").write_text('{"schema_version": 1, "shards": 4}')
        with closing(sqlite3.connect(tmp_path / "shard-00.sqlite")) as conn, conn:
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            conn.execute("INSERT INTO meta VALUES ('schema_version', '1'), ('shards', '4')")
            conn.execute(
                "CREATE TABLE results (key TEXT PRIMARY KEY, task TEXT NOT NULL,"
                " result TEXT NOT NULL)"
            )
            conn.execute(
                "INSERT INTO results VALUES (?, ?, ?)",
                (TASKS[0].task_hash(), json.dumps(TASKS[0].key_dict()), json.dumps(fresh[0])),
            )
        old = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert sorted(old) == ["shard-00.sqlite", "store.layout"]

        assert main(["store", "stats", "--cache-dir", str(tmp_path)]) == 2
        assert "no result store" in capsys.readouterr().err

        executed = []
        original = InstanceContext.execute

        def spy(self, task):
            executed.append(task)
            return original(self, task)

        monkeypatch.setattr(InstanceContext, "execute", spy)
        rows = run_tasks(TASKS, cache_dir=tmp_path)
        assert executed == TASKS
        assert json.dumps(rows) == json.dumps(fresh)
        assert (tmp_path / "results.sqlite").exists()
        assert {name: (tmp_path / name).read_bytes() for name in old} == old


class TestCorruptFileRecovery:
    def test_corrupt_file_misses_then_recovers(self, tmp_path):
        store = SQLiteResultStore(tmp_path)
        key = "ab" * 32
        store.put(key, {}, _row(0))
        store.close()
        store.path.write_text("this is not a database")

        # corruption is a miss, never an error ...
        reopened = SQLiteResultStore(tmp_path)
        assert reopened.get(key) is None
        assert reopened.misses == 1
        assert reopened.stats()["rows"] is None  # reported as unreadable
        # ... and the next write rebuilds the file
        reopened.put(key, {}, _row(1))
        assert reopened.get(key) == _row(1)
        assert reopened.stats()["rows"] == 1

    def test_transient_errors_never_delete_the_file(self, tmp_path):
        """Lock contention retries behind bounded seeded backoff, then
        surfaces; other transient errors surface at once — and neither
        ever destroys committed rows."""
        store = SQLiteResultStore(tmp_path)
        key = "ab" * 32
        store.put(key, {}, _row(0))
        store.close()
        attempts = []
        delays = []
        store._sleep = delays.append

        def locked():
            attempts.append("locked")
            raise sqlite3.OperationalError("database is locked")

        store._conn = locked
        with pytest.raises(sqlite3.OperationalError):
            store.put(key, {}, _row(1))
        # bounded: the initial try plus LOCK_RETRIES retries, each
        # behind a deterministic positive backoff — then the error is real
        assert len(attempts) == 1 + LOCK_RETRIES
        assert len(delays) == LOCK_RETRIES and all(delay > 0 for delay in delays)
        # a disk-full style error is not lock contention: no retry at all
        attempts.clear()

        def disk_error():
            attempts.append("disk")
            raise sqlite3.OperationalError("disk I/O error")

        store._conn = disk_error
        with pytest.raises(sqlite3.OperationalError):
            store.put(key, {}, _row(1))
        assert attempts == ["disk"]
        # the store file survived untouched, with its committed row
        fresh = SQLiteResultStore(tmp_path)
        assert fresh.get(key) == _row(0)

    def test_run_tasks_recomputes_after_corruption(self, tmp_path):
        fresh = run_tasks(TASKS, cache_dir=tmp_path)
        (tmp_path / "results.sqlite").write_text("garbage")
        recovered = run_tasks(TASKS, cache_dir=tmp_path)
        assert json.dumps(recovered) == json.dumps(fresh)
        assert SQLiteResultStore(tmp_path).stats()["rows"] == len(TASKS)


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

    def test_stats_bytes_count_the_wal_sidecars(self, tmp_path):
        """Rows committed through a connection that is still open sit in
        ``results.sqlite-wal``; ``bytes`` counts them, as ``du -sh
        results.sqlite*`` does."""
        run_tasks(TASKS, cache_dir=tmp_path)  # leaves the store it opened open
        stats = SQLiteResultStore(tmp_path).stats()
        on_disk = sum(path.stat().st_size for path in tmp_path.glob("results.sqlite*"))
        assert stats["bytes"] == on_disk
        assert on_disk > (tmp_path / "results.sqlite").stat().st_size
        assert (tmp_path / "results.sqlite-wal").stat().st_size > 0


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
