"""Command-line interface: ``python -m repro <command> ...``.

The CLI exposes the library's main workflows without writing any Python:

``info``
    Summary of the model, the schemes and their claimed bounds.
``run``
    Run one advising scheme (or no-advice baseline) on one generated
    instance and print the measured report.
``tradeoff``
    The measured advice-size / round-complexity trade-off table on one
    instance (experiment E6).
``sweep``
    Advice and round curves of one scheme over a range of sizes
    (``--jobs N`` fans the runs over worker processes, ``--cache-dir``
    reuses results across invocations).
``bench``
    Repeated runs of one scheme/baseline on one instance family, timed;
    reports runs/second.  ``--backend both`` times the engine and the
    analytic backend side by side.  The repository benchmark, with its
    end-to-end and per-layer metrics and the CI gate that compares a
    change against its base, is ``perfbench/`` (see its README and
    ``BENCHMARK.json``).
``report``
    Regenerate a full result set from a declarative TOML/JSON spec
    (``--spec specs/paper.toml --out reports/``): every experiment is
    compiled into a task grid, executed through the cached parallel
    runner, and rendered as Markdown/CSV artifacts.
``store``
    Maintain the SQLite result store behind ``--cache-dir``:
    ``stats`` (rows/bytes per shard), ``gc`` (drop rows no current task
    hash can reference; with ``--queue-dir`` also prune terminal service
    jobs past ``--job-ttl`` and their orphaned artifacts, keeping the
    ``--keep-last`` newest).
``lowerbound``
    The Theorem-1 fooling-family experiment and pigeonhole table.
``serve``
    The fault-tolerant sweep service: an HTTP daemon that accepts spec
    submissions, deduplicates identical workloads by content hash, and
    executes them through a durable lease queue (``--queue-dir``)
    drained by crash-safe workers.  SIGTERM drains gracefully.  The
    daemon exports Prometheus metrics at ``/metrics``; ``serve events``
    tails the structured event log and ``serve submit`` POSTs a spec
    file (``--priority high`` for the urgent lane).
``worker``
    Attach one extra worker process to a queue directory (``repro
    serve`` spawns its own; this adds capacity from other shells or
    machines sharing the filesystem).

Every command is deterministic given ``--seed``; ``sweep --jobs N``
produces byte-identical output to the serial path, and so do runs
served from ``--cache-dir`` and ``--resume``\\ d runs (``--resume``
checkpoints a run manifest so a killed sweep or report restarts without
recomputing finished work).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.sweep import run_scheme_sweep
from repro.analysis.tables import format_table
from repro.analysis.tradeoff import theoretical_tradeoff_rows, tradeoff_rows
from repro.core.lower_bound import average_advice_lower_bound, run_fooling_experiment
from repro.core.oracle import run_scheme
from repro.core.problem import DEFAULT_PROBLEM, get_problem, problem_names, split_target
from repro.core.scheme_average import paper_average_constant
from repro.distributed.base import run_baseline
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.runner.registry import (
    BACKENDS,
    BASELINES,
    GRAPH_FAMILIES,
    SCHEMES,
    build_graph,
    resolve_baseline,
    resolve_scheme,
)
from repro.runner.runner import run_tasks
from repro.runner.store import DEFAULT_SHARDS, STORE_SCHEMA_VERSION, SQLiteResultStore
from repro.runner.tasks import GraphSpec, SweepTask

__all__ = ["main", "build_parser", "SCHEMES", "BASELINES"]


def _make_graph(kind: str, n: int, seed: int, density: float) -> PortNumberedGraph:
    """Build the instance requested on the command line."""
    return build_graph(kind, n, seed, density)


def _target_choices(kinds: Sequence[str] = ("scheme", "baseline")) -> List[str]:
    """Every registry target a command accepts: bare and qualified names.

    Derived from the problem registry, never hand-maintained: each
    problem contributes its bare scheme/baseline names (resolved against
    ``--problem``) and their ``problem/name`` qualified forms.
    """
    names = set()
    for problem_name in problem_names():
        problem = get_problem(problem_name)
        for kind in kinds:
            table = problem.schemes if kind == "scheme" else problem.baselines
            for bare in table:
                names.add(bare)
                names.add(f"{problem_name}/{bare}")
    return sorted(names)


def _add_problem_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--problem",
        default=DEFAULT_PROBLEM,
        choices=problem_names(),
        help=(
            "problem bare target names resolve against (default: mst); "
            "qualified targets like leader/flag select their problem "
            "directly"
        ),
    )


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--graph",
        default="random",
        choices=list(GRAPH_FAMILIES),
        help="instance family (default: random connected graph)",
    )
    parser.add_argument("--n", type=int, default=128, help="number of nodes (default 128)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument(
        "--density", type=float, default=0.05, help="extra-edge probability for random graphs"
    )
    parser.add_argument("--root", type=int, default=0, help="root node of the MST (default 0)")
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1: run in-process)"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk result store (sharded, WAL-mode SQLite)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "checkpoint a run manifest per completed group (requires "
            "--cache-dir); a killed run restarted with the same command "
            "re-executes zero finished tasks"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live done/total, cache-hit and ETA reporting on stderr",
    )


def _add_backend_argument(parser: argparse.ArgumentParser, allow_both: bool = False) -> None:
    choices = list(BACKENDS) + (["both"] if allow_both else [])
    parser.add_argument(
        "--backend",
        default="engine",
        choices=choices,
        help=(
            "decoder execution backend: 'engine' simulates every round, "
            "'analytic' computes the same metrics from the Borůvka trace"
            + (", 'both' times the two side by side" if allow_both else "")
        ),
    )


# --------------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------------- #


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    if getattr(args, "format", "text") == "json":
        payload = {
            "version": repro.__version__,
            "paper": "Local MST computation with short advice (SPAA 2007)",
            "backends": list(BACKENDS),
            "cache": {
                "backend": "sqlite",
                "store_schema_version": STORE_SCHEMA_VERSION,
                "store_default_shards": DEFAULT_SHARDS,
            },
            "graph_families": list(GRAPH_FAMILIES),
            "schemes": [
                {
                    "name": name,
                    "class": type(scheme).__name__,
                    "advice_bound_bits_n1024": scheme.advice_bound_bits(1024),
                    "round_bound_n1024": scheme.round_bound(1024),
                }
                for name, scheme in ((n, f()) for n, f in SCHEMES.items())
            ],
            "baselines": [
                {"name": name, "class": type(factory()).__name__}
                for name, factory in BASELINES.items()
            ],
            "problems": [
                {
                    "name": problem.name,
                    "title": problem.title,
                    "schemes": sorted(problem.schemes),
                    "baselines": sorted(problem.baselines),
                }
                for problem in (get_problem(name) for name in problem_names())
            ],
            "theorem2_average_constant_bits": paper_average_constant(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for name, factory in SCHEMES.items():
        scheme = factory()
        rows.append(
            {
                "name": name,
                "class": type(scheme).__name__,
                "advice_bound_bits(n=1024)": scheme.advice_bound_bits(1024),
                "round_bound(n=1024)": scheme.round_bound(1024),
            }
        )
    print("Reproduction of 'Local MST computation with short advice' (SPAA 2007).")
    print("Advising schemes:")
    print(format_table(rows))
    print("\nNo-advice baselines: " + ", ".join(sorted(BASELINES)))
    print("\nProblems hosted on the advising framework:")
    for problem_name in problem_names():
        problem = get_problem(problem_name)
        baselines = ", ".join(sorted(problem.baselines)) or "none"
        print(
            f"  {problem_name:<9} {problem.title} "
            f"(schemes: {', '.join(sorted(problem.schemes))}; "
            f"baselines: {baselines})"
        )
    print("Graph families: " + ", ".join(GRAPH_FAMILIES))
    print(f"Theorem 2 average-advice constant: c = {paper_average_constant():.1f} bits")
    print("Paper bounds for Theorem 3: m = 12 bits, t <= 9*ceil(log2 n) rounds.")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    graph = _make_graph(args.graph, args.n, args.seed, args.density)
    root = args.root % graph.n
    qualifier, bare = split_target(args.scheme)
    problem = get_problem(qualifier or args.problem)
    fault = None
    if args.delta or args.crash_rate or args.churn:
        from repro.simulator.adversary import FaultSpec

        fault = FaultSpec(
            delta=args.delta,
            crash_rate=args.crash_rate,
            recovery=args.recovery,
            churn=args.churn,
        )
        if args.backend != "engine":
            raise ValueError("adversarial execution requires --backend engine")
    if bare in problem.schemes:
        scheme = resolve_scheme(args.scheme, problem=problem.name)
        report = run_scheme(
            scheme, graph, root=root, backend=args.backend, fault=fault, fault_seed=args.seed
        )
        row = report.as_row()
    elif bare in problem.baselines:
        if args.backend != "engine":
            raise ValueError("baselines have no analytic model; use --backend engine")
        baseline_report = run_baseline(
            resolve_baseline(args.scheme, problem=problem.name),
            graph,
            fault=fault,
            fault_seed=args.seed,
        )
        row = baseline_report.as_row()
    else:
        raise ValueError(
            f"problem {problem.name!r} has no target {bare!r}; its schemes are "
            f"{', '.join(sorted(problem.schemes))} and its baselines "
            f"{', '.join(sorted(problem.baselines))}"
        )
    if args.json:
        print(json.dumps(row, indent=2, default=str))
    else:
        print(format_table([row], title=f"{args.scheme} on {args.graph}(n={graph.n}, m={graph.m})"))
    return 0 if row["correct"] else 1


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    graph = _make_graph(args.graph, args.n, args.seed, args.density)
    rows = tradeoff_rows(
        graph,
        root=args.root % graph.n,
        include_baselines=not args.no_baselines,
        include_level_variant=not args.no_level,
    )
    if args.json:
        print(json.dumps(rows, indent=2, default=str))
        return 0
    columns = [
        "scheme",
        "max_advice_bits",
        "avg_advice_bits",
        "rounds",
        "max_edge_bits_per_round",
        "correct",
    ]
    print(
        format_table(
            rows, columns=columns, title=f"measured trade-off on {args.graph}(n={graph.n}, m={graph.m})"
        )
    )
    print()
    print(
        format_table(
            theoretical_tradeoff_rows(graph.n),
            columns=["scheme", "max_advice_bits", "rounds"],
            title="paper's claimed trade-off",
        )
    )
    return 0 if all(r["correct"] for r in rows) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    sizes = [int(x) for x in args.sizes.split(",") if x.strip()]
    if not sizes:
        raise ValueError("--sizes must list at least one size")
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    seeds = tuple(range(args.repeats))

    # the scheme is passed by registry name and the graph as a GraphSpec so
    # the workload is picklable (--jobs) and content-hashable (--cache-dir)
    result = run_scheme_sweep(
        args.scheme,
        sizes,
        graph_factory=GraphSpec(args.graph, args.density),
        seeds=seeds,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        backend=args.backend,
        resume=args.resume,
        progress=args.progress or args.resume,
        # a qualified --scheme names its problem directly; --problem only
        # disambiguates bare names (run and bench resolve the same way)
        problem=split_target(args.scheme)[0] or args.problem,
    )
    if args.json:
        print(json.dumps(result.rows, indent=2, default=str))
        return 0
    print(
        result.to_text(
            columns=[
                "n",
                "log2_n",
                "max_advice_bits",
                "avg_advice_bits",
                "rounds",
                "rounds_per_log_n",
                "congest_factor",
                "correct",
            ]
        )
    )
    return 0 if all(result.series("correct")) else 1


def _bench_one_backend(args: argparse.Namespace, backend: str) -> Dict[str, Any]:
    """Time one (scheme, graph, n, backend) workload and summarise it."""
    from repro.runner.tasks import clear_graph_memo

    # cold-start fairness: a previously timed backend must not pre-build
    # this backend's graphs (and their cached traces) outside the window
    clear_graph_memo()
    # --scheme all mirrors the multi-seed trade-off benchmark: every
    # advising scheme of the selected problem over the same instances
    # (graph and Borůvka-trace reuse across schemes is part of the
    # measured workload)
    qualifier, bare = split_target(args.scheme)
    problem = get_problem(qualifier or args.problem)
    targets = sorted(problem.schemes) if bare == "all" else [bare]
    for target in targets:
        if target not in problem.schemes and target not in problem.baselines:
            raise ValueError(
                f"problem {problem.name!r} has no target {target!r}; its "
                f"schemes are {', '.join(sorted(problem.schemes))} and its "
                f"baselines {', '.join(sorted(problem.baselines))}"
            )
    tasks = [
        SweepTask(
            kind="scheme" if target in problem.schemes else "baseline",
            target=target,
            graph=GraphSpec(args.graph, args.density),
            n=args.n,
            seed=args.seed + k,
            root=args.root,
            backend=backend,
            problem=problem.name,
        )
        for k in range(args.repeats)
        for target in targets
    ]
    cache = SQLiteResultStore(args.cache_dir) if args.cache_dir else None
    start = time.perf_counter()
    rows = run_tasks(
        tasks,
        jobs=args.jobs,
        cache_dir=cache,
        resume=args.resume,
        progress=args.progress,
        progress_label="bench",
    )
    elapsed = time.perf_counter() - start

    summary = {
        "scheme": args.scheme,
        "graph": args.graph,
        "n": args.n,
        "backend": backend,
        "runs": len(rows),
        "jobs": args.jobs,
        "wall_seconds": round(elapsed, 4),
        "runs_per_second": round(len(rows) / elapsed, 3) if elapsed > 0 else float("inf"),
        # rows served from --cache-dir were not simulated inside the timed
        # window; a nonzero count means runs_per_second measures the cache
        "cache_hits": cache.hits if cache is not None else 0,
        "max_rounds": max(row["rounds"] for row in rows),
        "max_edge_bits": max(row["max_edge_bits"] for row in rows),
        "total_messages": sum(row["total_messages"] for row in rows),
        "correct": all(row["correct"] for row in rows),
    }
    return summary


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    bench_qualifier, bench_bare = split_target(args.scheme)
    bench_problem = get_problem(bench_qualifier or args.problem)
    if bench_bare in bench_problem.baselines and args.backend != "engine":
        raise ValueError("baselines have no analytic model; use --backend engine")
    backends: List[str] = list(BACKENDS) if args.backend == "both" else [args.backend]
    summaries = [_bench_one_backend(args, backend) for backend in backends]

    all_correct = all(summary["correct"] for summary in summaries)
    if len(summaries) == 1:
        payload: Dict[str, Any] = summaries[0]
    else:
        engine_wall = summaries[0]["wall_seconds"]
        analytic_wall = summaries[1]["wall_seconds"]
        payload = {
            "scheme": args.scheme,
            "graph": args.graph,
            "n": args.n,
            "runs": summaries[0]["runs"],
            "results": summaries,
            "speedup_analytic_vs_engine": (
                round(engine_wall / analytic_wall, 2) if analytic_wall > 0 else None
            ),
        }

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            format_table(
                summaries,
                title=f"bench: {args.repeats} x {args.scheme} on {args.graph}(n={args.n})",
            )
        )
    return 0 if all_correct else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import generate_report, load_spec

    spec = load_spec(args.spec)
    result = generate_report(
        spec,
        args.out,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        backend=args.backend,
        resume=args.resume,
        progress=args.progress or args.resume,
    )
    for name in result.artifacts:
        print(Path(args.out) / name)
    print(
        f"report '{spec.title}': {len(result.artifacts)} artifact(s) from "
        f"{result.tasks_run} run(s); all correct: {result.all_correct}",
        file=sys.stderr,
    )
    return 0 if result.all_correct else 1


def _cmd_store(args: argparse.Namespace) -> int:
    """Maintenance of the sharded SQLite result store (stats/gc)."""
    directory = Path(args.cache_dir)
    queue_dir = getattr(args, "queue_dir", None)
    has_shards = any(directory.glob("shard-*.sqlite"))
    if args.store_command == "stats" and not has_shards:
        # read/maintenance commands must not conjure an empty store out of
        # a typo'd path and then happily report zero rows
        raise ValueError(f"no result store at {directory} (no shard-*.sqlite files)")
    if args.store_command == "gc" and not has_shards and not queue_dir:
        raise ValueError(f"no result store at {directory} (no shard-*.sqlite files)")
    if args.store_command == "stats":
        payload: Dict[str, Any] = SQLiteResultStore(args.cache_dir).stats()
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"store {payload['directory']}: {payload['rows']} row(s) in "
                f"{payload['shards']} shard(s), {payload['bytes']} bytes "
                f"(schema v{payload['schema_version']})"
            )
            print(format_table(payload["per_shard"]))
        return 0
    # gc — queue retention first: pruning terminal jobs can orphan result
    # rows, and the shard gc that follows is what reclaims their bytes
    queue_payload: Optional[Dict[str, Any]] = None
    if queue_dir:
        from repro.service.queue import LeaseQueue

        queue_payload = LeaseQueue(Path(queue_dir)).gc(
            job_ttl=args.job_ttl, keep_last=args.keep_last
        )
    if has_shards:
        payload = SQLiteResultStore(args.cache_dir).gc(vacuum=not args.no_vacuum)
    else:
        payload = {"removed": 0, "kept": 0}
    if queue_payload is not None:
        payload["queue"] = {
            "jobs_removed": len(queue_payload["jobs"]),
            "items_removed": len(queue_payload["items"]),
            "quarantine_removed": queue_payload["quarantine"],
            "jobs": queue_payload["jobs"],
        }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"gc: removed {payload['removed']} stale row(s), "
            f"kept {payload['kept']}"
        )
        if queue_payload is not None:
            print(
                f"queue gc: removed {len(queue_payload['jobs'])} job(s), "
                f"{len(queue_payload['items'])} orphaned item(s), "
                f"{queue_payload['quarantine']} quarantine row(s)"
            )
    return 0


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    h, i = args.h, args.i
    if not 2 <= i <= h - 1:
        raise ValueError("--i must satisfy 2 <= i <= h - 1")
    experiment = run_fooling_experiment(h, i)
    rows = experiment.pigeonhole(math.ceil(math.log2(max(h - i, 2))) + 1)
    payload = {
        "h": h,
        "i": i,
        "variants": experiment.num_variants,
        "views_identical": experiment.views_identical,
        "distinct_correct_ports": experiment.distinct_correct_ports,
        "required_bits": experiment.required_bits,
        "average_lower_bound_bits": average_advice_lower_bound(h),
        "pigeonhole": rows,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"Theorem 1 on G_n with h={h} (n={2*h} nodes), target node u_{i}:")
    print(f"  fooling variants            : {experiment.num_variants}")
    print(f"  identical local views       : {experiment.views_identical}")
    print(f"  pairwise distinct answers   : {experiment.distinct_correct_ports == experiment.num_variants}")
    print(f"  advice bits forced at u_{i}  : >= {experiment.required_bits:.2f}")
    print(f"  average advice lower bound  : {average_advice_lower_bound(h):.2f} bits/node")
    print()
    print(format_table(rows, title="pigeonhole: guaranteed failures of any 0-round decoder"))
    return 0 if experiment.premises_hold else 1


def _retry_policy_from_args(args: argparse.Namespace) -> Any:
    from repro.service.retry import RetryPolicy

    return RetryPolicy(
        max_attempts=args.max_attempts,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        task_timeout=args.task_timeout,
    )


def _cmd_serve_events(args: argparse.Namespace) -> int:
    """Tail the service event log (``repro serve events``)."""
    from repro.service.events import follow_events, read_events

    path = Path(args.queue_dir) / "events.jsonl"
    kinds = args.kind or None
    if args.follow:
        stream = follow_events(path, since=args.since, kinds=kinds)
    else:
        if not path.is_file():
            print(f"no event log at {path}", file=sys.stderr)
            return 1
        stream = read_events(path, since=args.since, kinds=kinds)
    try:
        for event in stream:
            print(json.dumps(event, separators=(",", ":")), flush=True)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve_submit(args: argparse.Namespace) -> int:
    """Submit a spec file to a running daemon (``repro serve submit``)."""
    from urllib.error import HTTPError, URLError
    from urllib.parse import urlencode
    from urllib.request import Request, urlopen

    spec_path = Path(args.spec)
    text = spec_path.read_text(encoding="utf-8")
    fmt = "json" if spec_path.suffix == ".json" else "toml"
    query = {"name": args.name or spec_path.name, "priority": args.priority}
    url = f"{args.url.rstrip('/')}/jobs?{urlencode(query)}"
    request = Request(
        url,
        data=text.encode("utf-8"),
        headers={
            "Content-Type": "application/json" if fmt == "json" else "application/toml"
        },
        method="POST",
    )
    try:
        with urlopen(request, timeout=args.timeout) as response:
            body = json.loads(response.read().decode("utf-8"))
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        print(f"error: HTTP {exc.code} from {url}: {detail}", file=sys.stderr)
        return 1
    except (URLError, OSError) as exc:
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(body, indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if getattr(args, "serve_command", None) == "events":
        return _cmd_serve_events(args)
    if getattr(args, "serve_command", None) == "submit":
        return _cmd_serve_submit(args)
    from repro.service.daemon import serve

    if not args.queue_dir:
        raise ValueError("repro serve requires --queue-dir")
    return serve(
        Path(args.queue_dir),
        host=args.host,
        port=args.port,
        workers=args.workers,
        policy=_retry_policy_from_args(args),
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval,
    )


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import run_worker

    processed = run_worker(
        Path(args.queue_dir),
        policy=_retry_policy_from_args(args),
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval,
        max_items=args.max_items,
        idle_exit=args.idle_exit,
        install_signal_handlers=True,
    )
    print(f"worker: processed {processed} item(s)", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Local MST computation with short advice (SPAA 2007) — reproduction CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info_parser = sub.add_parser("info", help="summary of the model, schemes and bounds")
    info_parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output format: human-readable text or machine-readable JSON",
    )

    run_parser = sub.add_parser("run", help="run one scheme or baseline on one instance")
    run_parser.add_argument(
        "--scheme",
        default="theorem3",
        choices=_target_choices(),
        help=(
            "advising scheme or no-advice baseline (default: theorem3); "
            "bare names resolve against --problem, qualified names like "
            "leader/flag pick their problem directly"
        ),
    )
    _add_problem_argument(run_parser)
    _add_graph_arguments(run_parser)
    _add_backend_argument(run_parser)
    run_parser.add_argument(
        "--delta",
        type=int,
        default=0,
        help="adversarial delay bound: each message delivered within this "
        "many extra rounds (default 0 = synchronous)",
    )
    run_parser.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="fraction of nodes crashed once during the run (max 0.25)",
    )
    run_parser.add_argument(
        "--recovery",
        type=int,
        default=2,
        help="rounds a crashed node stays down before restarting (default 2)",
    )
    run_parser.add_argument(
        "--churn",
        type=int,
        default=0,
        help="post-run edge-weight churn events with charged incremental "
        "repair (MST only, default 0)",
    )

    tradeoff_parser = sub.add_parser("tradeoff", help="measured advice/time trade-off table")
    _add_graph_arguments(tradeoff_parser)
    tradeoff_parser.add_argument("--no-baselines", action="store_true", help="skip the no-advice baselines")
    tradeoff_parser.add_argument("--no-level", action="store_true", help="skip the level-coded variant")

    sweep_parser = sub.add_parser("sweep", help="advice/round curves of one scheme over n")
    sweep_parser.add_argument(
        "--scheme", default="theorem3", choices=_target_choices(kinds=("scheme",))
    )
    _add_problem_argument(sweep_parser)
    sweep_parser.add_argument("--sizes", default="32,64,128,256", help="comma-separated node counts")
    sweep_parser.add_argument("--repeats", type=int, default=2, help="seeds per size (default 2)")
    _add_parallel_arguments(sweep_parser)
    _add_graph_arguments(sweep_parser)
    _add_backend_argument(sweep_parser)

    bench_parser = sub.add_parser("bench", help="timed repeated runs (runs/second)")
    bench_parser.add_argument(
        "--scheme",
        default="theorem3",
        choices=_target_choices() + ["all"],
        help=(
            "advising scheme or no-advice baseline (default: theorem3); "
            "'all' runs every scheme of --problem over the same instances, "
            "the shape of the multi-seed trade-off benchmark"
        ),
    )
    _add_problem_argument(bench_parser)
    bench_parser.add_argument("--repeats", type=int, default=10, help="number of runs (default 10)")
    _add_parallel_arguments(bench_parser)
    _add_graph_arguments(bench_parser)
    _add_backend_argument(bench_parser, allow_both=True)

    report_parser = sub.add_parser(
        "report",
        help="regenerate a full result set from a declarative spec",
        description=(
            "Compile a TOML/JSON experiment spec into SweepTask grids, execute "
            "them through the cached parallel runner, and write the paper's "
            "tables as Markdown/CSV artifacts. Artifacts are deterministic: "
            "--jobs and --backend never change a byte."
        ),
    )
    report_parser.add_argument(
        "--spec", required=True, metavar="FILE", help="spec file (e.g. specs/paper.toml)"
    )
    report_parser.add_argument(
        "--out", required=True, metavar="DIR", help="output directory for the artifacts"
    )
    _add_parallel_arguments(report_parser)
    report_parser.add_argument(
        "--backend",
        default=None,
        choices=list(BACKENDS),
        help="override the spec's default execution backend",
    )

    store_parser = sub.add_parser(
        "store",
        help="inspect and maintain the SQLite result store",
        description=(
            "Maintenance of the sharded SQLite result store: row/size stats per "
            "shard and garbage collection of rows no current task hash can "
            "ever reference."
        ),
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser("stats", help="rows and bytes, per shard and total")
    store_gc = store_sub.add_parser(
        "gc", help="drop rows from other library/backend generations"
    )
    store_gc.add_argument(
        "--no-vacuum",
        action="store_true",
        help="skip the VACUUM after deleting (faster, files keep their size)",
    )
    store_gc.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help=(
            "also prune the service queue in DIR: terminal jobs past "
            "--job-ttl (their artifacts and manifest included) and orphaned "
            "terminal items; pending and leased work is never touched"
        ),
    )
    store_gc.add_argument(
        "--job-ttl",
        type=float,
        default=7 * 24 * 3600.0,
        metavar="SECONDS",
        help="age after which a done/failed job is reclaimable (default 7 days)",
    )
    store_gc.add_argument(
        "--keep-last",
        type=int,
        default=3,
        metavar="N",
        help="always keep the N most recently updated terminal jobs (default 3)",
    )
    for store_cmd in (store_stats, store_gc):
        store_cmd.add_argument(
            "--cache-dir", required=True, help="directory of the SQLite store"
        )
        store_cmd.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )

    lb_parser = sub.add_parser("lowerbound", help="Theorem 1 fooling-family experiment")
    lb_parser.add_argument("--h", type=int, default=12, help="nodes per clique of G_n (default 12)")
    lb_parser.add_argument("--i", type=int, default=4, help="spine position of the target node")
    lb_parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    def _add_service_arguments(
        service_parser: argparse.ArgumentParser, require_queue_dir: bool = True
    ) -> None:
        # the serve parser hosts subcommands (events/submit) that take no
        # queue directory, so its --queue-dir cannot be argparse-required;
        # _cmd_serve validates it when actually serving
        service_parser.add_argument(
            "--queue-dir",
            required=require_queue_dir,
            default=None,
            metavar="DIR",
            help="service state directory: lease queue, result store, manifests, artifacts",
        )
        service_parser.add_argument(
            "--lease-ttl",
            type=float,
            default=30.0,
            help="seconds a lease lives between heartbeats before the item is re-leased",
        )
        service_parser.add_argument(
            "--poll-interval",
            type=float,
            default=0.5,
            help=(
                "longest an idle worker (or waiting job) waits for a queue wake-up "
                "before re-checking (seconds)"
            ),
        )
        service_parser.add_argument(
            "--max-attempts",
            type=int,
            default=3,
            help="executions an item gets before quarantine (crashes count)",
        )
        service_parser.add_argument(
            "--backoff-base",
            type=float,
            default=0.25,
            help="base seconds of the seeded exponential backoff between retries",
        )
        service_parser.add_argument(
            "--backoff-cap",
            type=float,
            default=30.0,
            help="ceiling seconds of the retry backoff",
        )
        service_parser.add_argument(
            "--task-timeout",
            type=float,
            default=120.0,
            help="wall-clock seconds granted per task before its worker kills the execution",
        )

    serve_parser = sub.add_parser(
        "serve",
        help="fault-tolerant sweep service over a durable lease queue",
        description=(
            "Run the HTTP daemon: POST a TOML/JSON spec to /jobs and workers "
            "execute it through a crash-safe lease queue. Identical submissions "
            "collapse onto one content-addressed job; artifacts are "
            "byte-identical to a local run. SIGTERM drains gracefully and "
            "running jobs resume on restart."
        ),
    )
    _add_service_arguments(serve_parser, require_queue_dir=False)
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="bind port (0 picks a free one)"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, help="worker processes to spawn"
    )
    serve_sub = serve_parser.add_subparsers(
        dest="serve_command", required=False, metavar="{events,submit}"
    )
    events_parser = serve_sub.add_parser(
        "events",
        help="print the structured event log (events.jsonl) as JSON lines",
    )
    events_parser.add_argument(
        "--queue-dir",
        required=True,
        metavar="DIR",
        help="service state directory holding events.jsonl",
    )
    events_parser.add_argument(
        "--since",
        type=float,
        default=None,
        metavar="TS",
        help="only events with a unix timestamp >= TS",
    )
    events_parser.add_argument(
        "--follow",
        action="store_true",
        help="keep the log open and stream events as they are appended",
    )
    events_parser.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="KIND",
        help="restrict to this event kind (repeatable, e.g. --kind lease)",
    )
    submit_parser = serve_sub.add_parser(
        "submit",
        help="POST a spec file to a running repro serve daemon",
    )
    submit_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="base URL of the daemon (default http://127.0.0.1:8765)",
    )
    submit_parser.add_argument(
        "--spec", required=True, metavar="FILE", help="spec file to submit"
    )
    submit_parser.add_argument(
        "--name",
        default=None,
        metavar="NAME",
        help="submission name for regeneration hints (default: the file name)",
    )
    submit_parser.add_argument(
        "--priority",
        default="normal",
        choices=["normal", "high"],
        help="scheduling lane: high leases before normal (default normal)",
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="HTTP timeout in seconds (default 30)",
    )

    worker_parser = sub.add_parser(
        "worker",
        help="attach one worker process to a service queue directory",
        description=(
            "Lease task groups from --queue-dir, execute each in a killable "
            "subprocess with heartbeats and a wall-clock timeout, and commit "
            "results to the shared store. SIGTERM finishes the in-flight item "
            "and exits."
        ),
    )
    _add_service_arguments(worker_parser)
    worker_parser.add_argument(
        "--max-items",
        type=int,
        default=None,
        metavar="N",
        help="exit after processing N items (default: run until signalled)",
    )
    worker_parser.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long without leasable work (default: keep waiting)",
    )

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "run": _cmd_run,
    "tradeoff": _cmd_tradeoff,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "store": _cmd_store,
    "lowerbound": _cmd_lowerbound,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
