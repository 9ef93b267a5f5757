"""Tests of the command-line interface."""

import json

import pytest

from repro.cli import SCHEMES, BASELINES, GRAPH_FAMILIES, build_parser, main, _make_graph

#: ``repro lowerbound --h 10 --i 3 --json``, byte for byte
LOWERBOUND_10_3_JSON = """\
{
  "h": 10,
  "i": 3,
  "variants": 7,
  "views_identical": true,
  "distinct_correct_ports": 7,
  "required_bits": 2.807354922057604,
  "average_lower_bound_bits": 0.7649604009193639,
  "pigeonhole": [
    {
      "advice_bits": 0,
      "groups": 1,
      "guaranteed_failures": 6
    },
    {
      "advice_bits": 1,
      "groups": 1,
      "guaranteed_failures": 6
    },
    {
      "advice_bits": 2,
      "groups": 1,
      "guaranteed_failures": 6
    },
    {
      "advice_bits": 3,
      "groups": 2,
      "guaranteed_failures": 5
    },
    {
      "advice_bits": 4,
      "groups": 4,
      "guaranteed_failures": 3
    }
  ]
}
"""


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("info", "run", "tradeoff", "sweep", "lowerbound"):
            args = parser.parse_args([command] if command != "lowerbound" else [command, "--h", "8"])
            assert args.command == command

    def test_scheme_choices(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--scheme", "theorem2"])
        assert args.scheme == "theorem2"
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--scheme", "not-a-scheme"])


class TestGraphFactory:
    @pytest.mark.parametrize("kind", GRAPH_FAMILIES)
    def test_every_kind_builds_a_connected_graph(self, kind):
        graph = _make_graph(kind, 24, seed=1, density=0.1)
        graph.validate()
        assert graph.is_connected()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            _make_graph("moebius", 16, 0, 0.1)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "theorem3" in out and "trivial" in out

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_info_json(self, capsys):
        import repro
        from repro.runner import STORE_SCHEMA_VERSION

        assert main(["info", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == repro.__version__
        assert payload["backends"] == ["engine", "analytic"]
        # the result store and its schema are machine-readable
        assert payload["cache"]["backend"] == "sqlite"
        assert payload["cache"]["store_schema_version"] == STORE_SCHEMA_VERSION
        assert set(payload["graph_families"]) == set(GRAPH_FAMILIES)
        schemes = {row["name"] for row in payload["schemes"]}
        assert schemes == set(SCHEMES)
        baselines = {row["name"] for row in payload["baselines"]}
        assert baselines == set(BASELINES)
        assert payload["theorem2_average_constant_bits"] == pytest.approx(12.0)
        # bounds are numbers, usable by tooling without parsing tables
        for row in payload["schemes"]:
            assert isinstance(row["advice_bound_bits_n1024"], (int, float))

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_run_each_scheme(self, scheme, capsys):
        code = main(["run", "--scheme", scheme, "--n", "32", "--seed", "1", "--graph", "random"])
        assert code == 0
        out = capsys.readouterr().out
        assert scheme.split("-")[0] in out or "theorem3" in out

    def test_run_baseline(self, capsys):
        assert main(["run", "--scheme", "full-info", "--n", "20", "--graph", "cycle"]) == 0
        assert "local-full-info" in capsys.readouterr().out

    def test_run_json_output(self, capsys):
        assert main(["run", "--scheme", "trivial", "--n", "24", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["correct"] is True
        assert payload["rounds"] == 0

    def test_tradeoff_without_baselines(self, capsys):
        code = main(["tradeoff", "--n", "40", "--no-baselines", "--no-level"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trivial-rank" in out and "theorem3-main" in out
        assert "sync-boruvka" not in out

    def test_sweep_json(self, capsys):
        code = main(
            ["sweep", "--scheme", "trivial", "--sizes", "16,32", "--repeats", "1", "--json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == [16, 32]
        assert all(r["correct"] for r in rows)

    def test_sweep_rejects_empty_sizes(self, capsys):
        assert main(["sweep", "--scheme", "trivial", "--sizes", ","]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_sweep_rejects_fewer_than_one_repeat(self, capsys, repeats):
        assert main(["sweep", "--scheme", "trivial", "--sizes", "16", "--repeats", repeats]) == 2
        assert capsys.readouterr().err == "error: --repeats must be >= 1\n"

    def test_sweep_jobs_output_is_byte_identical(self, capsys):
        argv = ["sweep", "--scheme", "trivial", "--sizes", "8,16", "--repeats", "2", "--json"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_sweep_cache_dir_sqlite_default(self, tmp_path, capsys):
        argv = [
            "sweep", "--scheme", "trivial", "--sizes", "8,16", "--repeats", "1",
            "--json", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # the default backend is the sharded SQLite store, not JSON files
        assert list(tmp_path.glob("*.json")) == []
        assert len(list(tmp_path.glob("shard-*.sqlite"))) > 0
        assert main(argv) == 0  # second run is served from the store
        assert capsys.readouterr().out == first

    def test_sweep_parallel_cold_and_serial_warm_store_byte_identical(self, tmp_path, capsys):
        argv = ["sweep", "--scheme", "theorem3", "--sizes", "8,16", "--repeats", "2", "--json"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        cached = argv + ["--cache-dir", str(tmp_path)]
        # cold: worker processes execute the groups, the parent stores rows
        assert main(cached + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == bare
        # warm: every row is served from the store the parallel run filled
        assert main(cached) == 0
        assert capsys.readouterr().out == bare

    def test_sweep_backends_and_resume_byte_identical(self, tmp_path, capsys):
        argv = ["sweep", "--scheme", "trivial", "--sizes", "8,16", "--repeats", "1", "--json"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--cache-dir", str(tmp_path / "s")]) == 0
        assert capsys.readouterr().out == bare
        # fresh vs resumed runs: same bytes on stdout, progress on stderr
        resumed = argv + ["--cache-dir", str(tmp_path / "r"), "--resume"]
        assert main(resumed) == 0
        cold = capsys.readouterr()
        assert cold.out == bare
        assert "done" in cold.err  # --resume implies progress reporting
        assert main(resumed) == 0
        warm = capsys.readouterr()
        assert warm.out == bare
        assert "2 cached, 2 resumed" in warm.err  # zero tasks re-executed
        manifests = list((tmp_path / "r" / "manifests").glob("run-*.json"))
        assert len(manifests) == 1
        assert json.loads(manifests[0].read_text())["finished"] is True

    def test_sweep_resume_requires_cache_dir(self, capsys):
        assert main(["sweep", "--scheme", "trivial", "--sizes", "8", "--resume"]) == 2
        assert "resume requires" in capsys.readouterr().err

    def test_bench(self, capsys):
        code = main(["bench", "--scheme", "trivial", "--n", "16", "--repeats", "3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 3
        assert payload["correct"] is True
        assert payload["runs_per_second"] > 0
        assert payload["cache_hits"] == 0

    def test_bench_reports_cache_hits(self, tmp_path, capsys):
        argv = [
            "bench", "--scheme", "trivial", "--n", "16", "--repeats", "3",
            "--json", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["cache_hits"] == 0
        assert main(argv) == 0
        # warm cache: the timing measured reads, and the summary says so
        assert json.loads(capsys.readouterr().out)["cache_hits"] == 3

    def test_bench_baseline_table(self, capsys):
        code = main(["bench", "--scheme", "full-info", "--n", "12", "--repeats", "2"])
        assert code == 0
        assert "runs_per_second" in capsys.readouterr().out

    def test_lowerbound(self, capsys):
        assert main(["lowerbound", "--h", "10", "--i", "3"]) == 0
        out = capsys.readouterr().out
        assert "fooling variants" in out
        assert "guaranteed_failures" in out

    def test_lowerbound_json(self, capsys):
        assert main(["lowerbound", "--h", "8", "--i", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variants"] == 6
        assert payload["views_identical"] is True

    def test_lowerbound_json_output_is_pinned(self, capsys):
        assert main(["lowerbound", "--h", "10", "--i", "3", "--json"]) == 0
        assert capsys.readouterr().out == LOWERBOUND_10_3_JSON

    def test_lowerbound_invalid_target(self, capsys):
        assert main(["lowerbound", "--h", "8", "--i", "1"]) == 2


class TestBackendFlag:
    def test_run_analytic_backend(self, capsys):
        argv = ["run", "--scheme", "theorem3", "--n", "32", "--json"]
        assert main(argv + ["--backend", "engine"]) == 0
        engine_row = json.loads(capsys.readouterr().out)
        assert main(argv + ["--backend", "analytic"]) == 0
        analytic_row = json.loads(capsys.readouterr().out)
        # identical measured rows: the backends are interchangeable
        assert engine_row == analytic_row

    def test_run_baseline_rejects_analytic(self, capsys):
        assert main(["run", "--scheme", "ghs", "--n", "16", "--backend", "analytic"]) == 2
        assert "analytic" in capsys.readouterr().err

    def test_sweep_backends_byte_identical(self, capsys):
        argv = ["sweep", "--scheme", "theorem3", "--sizes", "16,32", "--repeats", "2", "--json"]
        assert main(argv + ["--backend", "engine"]) == 0
        engine_out = capsys.readouterr().out
        assert main(argv + ["--backend", "analytic"]) == 0
        assert capsys.readouterr().out == engine_out

    def test_bench_both_backends(self, capsys):
        argv = [
            "bench", "--scheme", "theorem3", "--n", "24", "--repeats", "2",
            "--backend", "both", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["backend"] for row in payload["results"]] == ["engine", "analytic"]
        assert payload["speedup_analytic_vs_engine"] is not None
        engine_row, analytic_row = payload["results"]
        # the backends measured the same runs: only the timings may differ
        for key in ("max_rounds", "max_edge_bits", "total_messages", "correct"):
            assert engine_row[key] == analytic_row[key]

    def test_bench_all_schemes_in_worker_processes(self, capsys):
        argv = ["bench", "--scheme", "all", "--n", "16", "--repeats", "4", "--json"]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["jobs"] == 2 and parallel["runs"] == 16
        assert parallel["correct"] is True
        for key in ("runs", "max_rounds", "max_edge_bits", "total_messages"):
            assert parallel[key] == serial[key]

    def test_bench_large_hypercube_on_the_analytic_backend(self, capsys):
        # the nightly large run's command line, at a size a test can afford
        argv = [
            "bench", "--graph", "hypercube", "--n", "16", "--backend", "analytic",
            "--scheme", "theorem3", "--repeats", "2", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"] == "hypercube" and payload["n"] == 16
        assert payload["backend"] == "analytic" and payload["correct"] is True

    def test_bench_help_lists_no_snapshot_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        out = capsys.readouterr().out
        for gone in ("--snapshot", "--baseline", "--profile", "--tier", "history"):
            assert gone not in out


class TestStoreCommand:
    def _populate(self, tmp_path):
        directory = tmp_path / "store"
        argv = [
            "sweep", "--scheme", "trivial", "--sizes", "8,16", "--repeats", "1",
            "--json", "--cache-dir", str(directory),
        ]
        assert main(argv) == 0
        return directory

    def test_stats(self, tmp_path, capsys):
        directory = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "stats", "--cache-dir", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "sqlite"
        assert payload["rows"] == 2
        assert len(payload["per_shard"]) == payload["shards"]
        assert sum(row["rows"] for row in payload["per_shard"]) == 2
        # the human rendering mentions the same totals
        assert main(["store", "stats", "--cache-dir", str(directory)]) == 0
        assert "2 row(s)" in capsys.readouterr().out

    def test_gc_keeps_current_rows(self, tmp_path, capsys):
        directory = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "gc", "--cache-dir", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"removed": 0, "kept": 2}

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    @pytest.mark.parametrize("command", ["stats", "gc"])
    def test_read_commands_refuse_missing_store(self, tmp_path, command, capsys):
        """A typo'd --cache-dir must error, not conjure an empty store."""
        missing = tmp_path / "no-such-store"
        assert main(["store", command, "--cache-dir", str(missing)]) == 2
        assert "no result store" in capsys.readouterr().err
        assert not missing.exists()

    def test_gc_with_queue_dir_prunes_terminal_jobs(self, tmp_path, capsys):
        from repro.service.queue import LeaseQueue

        queue_dir = tmp_path / "svc"
        queue = LeaseQueue(queue_dir)
        queue.submit_job("stale", {"t": 1})
        queue.set_job_state("stale", LeaseQueue.JOB_DONE)
        queue.submit_job("live", {"t": 2})
        capsys.readouterr()
        # no shard store needed when a queue directory is given
        argv = [
            "store", "gc", "--cache-dir", str(tmp_path / "no-store"),
            "--queue-dir", str(queue_dir),
            "--job-ttl", "0", "--keep-last", "0", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queue"]["jobs_removed"] == 1
        assert payload["queue"]["jobs"] == ["stale"]
        assert queue.job_record("stale") is None
        assert queue.job_record("live")["state"] == LeaseQueue.JOB_RUNNING


class TestServeCli:
    def _seed_queue(self, tmp_path):
        from repro.service.queue import LeaseQueue

        queue_dir = tmp_path / "svc"
        queue = LeaseQueue(queue_dir)
        queue.submit_job("job", {"t": 1})
        queue.enqueue("job", [("k1", {"i": 1}), ("k2", {"i": 2})])
        return queue_dir

    def test_serve_without_queue_dir_errors(self, capsys):
        assert main(["serve"]) == 2
        assert "requires --queue-dir" in capsys.readouterr().err

    def test_serve_events_prints_the_log(self, tmp_path, capsys):
        queue_dir = self._seed_queue(tmp_path)
        assert main(["serve", "events", "--queue-dir", str(queue_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [event["kind"] for event in events] == [
            "job-submit", "enqueue", "enqueue",
        ]

    def test_serve_events_kind_filter(self, tmp_path, capsys):
        queue_dir = self._seed_queue(tmp_path)
        argv = ["serve", "events", "--queue-dir", str(queue_dir), "--kind", "enqueue"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["kind"] == "enqueue" for line in lines)

    def test_serve_events_missing_log(self, tmp_path, capsys):
        argv = ["serve", "events", "--queue-dir", str(tmp_path / "empty")]
        assert main(argv) == 1
        assert "no event log" in capsys.readouterr().err

    def test_serve_submit_unreachable_daemon(self, tmp_path, capsys):
        spec = tmp_path / "spec.toml"
        spec.write_text("[report]\ntitle = 'x'\n", encoding="utf-8")
        argv = [
            "serve", "submit", "--url", "http://127.0.0.1:9",
            "--spec", str(spec), "--timeout", "0.5",
        ]
        assert main(argv) == 1
        assert "cannot reach" in capsys.readouterr().err
