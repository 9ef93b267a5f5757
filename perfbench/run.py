"""The repository benchmark: one command per workload, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (``perfbench/README.md`` lists both, with units and meaning).
Every run first executes the workload's *reference* request (the
default seed's first unit) and checks its output digest against
``digests.json``; then it repeats requests generated from ``--seed``
for ``--seconds`` seconds.  Output checks that fail are counted in
``failed`` and make the command exit 1; the last line of standard
output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


class Run:
    """State of one benchmark invocation: samples, checks and the tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: str) -> None:
        from spans import Tracer
        from workloads import SCALES

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale_name = scale
        self.scale = SCALES[scale]
        self.tracer = Tracer() if trace else None
        self.digests = json.loads((HERE / "digests.json").read_text())[scale]
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.setup: List[float] = []
        self.imports: List[float] = []
        #: per timed unit: [traced, seconds, runs, latency]; ``latency`` is
        #: ``seconds`` except for ``paper``, where it is the fastest warm re-run
        self.units: List[list] = []
        self.traced_units = 0
        self.attempted = 0
        self.failed = 0
        self.layer: Dict[str, float] = {}
        self.extra_rss_mb = 0.0

    # ------------------------------------------------------------- checking

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def check_rows(self, rows: List[Dict[str, Any]]) -> None:
        self.attempted += len(rows)
        bad = sum(1 for row in rows if not row.get("correct"))
        if bad:
            self.failed += bad
            print(f"check failed: {bad} row(s) not correct", file=sys.stderr)

    def check_digest(self, key: str, digest: str) -> None:
        expected = self.digests.get(key)
        self.check(digest == expected, f"{key} digest {digest} != pinned {expected}")

    # --------------------------------------------------------------- timing

    def probe(self) -> float:
        """Seconds from starting a fresh interpreter to its first layer call."""
        store = self.work / f"probe-store-{len(self.imports)}"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), self.workload, str(self.seed),
             self.scale_name, str(store)],
            stdout=subprocess.PIPE,
            text=True,
        )
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        if proc.wait(timeout=120) != 0 or not line:
            raise RuntimeError("set-up probe failed")
        self.imports.append(json.loads(line)["import_s"])
        shutil.rmtree(store, ignore_errors=True)
        return elapsed

    def traced(self, index: int) -> bool:
        """Traced runs trace every even unit and leave odd ones bare, so the
        tracing overhead is measured on the same run."""
        return self.tracer is not None and index % 2 == 0

    def reference(self, fn: Callable[[], Any]) -> Any:
        """The untimed reference request (traced in a traced run, so its
        pinned digest proves tracing leaves outputs byte-identical)."""
        if self.tracer is None:
            return fn()
        from layers import instrument, messages

        instrument(self.tracer)
        try:
            return fn()
        finally:
            self.tracer.restore()
            # an exact count on fixed inputs: an invariant, not a speed
            self.layer["simulator.messages"] = messages(self.tracer.spans)
            self.tracer.spans.clear()

    def unit(self, index: int, fn: Callable[[], Any]) -> Any:
        """Time one request; traced units record spans under a ``bench.unit``."""
        traced = self.traced(index)
        if traced:
            from layers import instrument

            instrument(self.tracer)
            self.tracer.run = index + 1
            root = self.tracer.begin("bench.unit")
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            self.units.append([traced, elapsed, 0, elapsed])
            if traced:
                self.tracer.end(root)
                self.tracer.restore()
                self.traced_units += 1

    def record(
        self, runs: int, seconds: Optional[float] = None, latency: Optional[float] = None
    ) -> None:
        """Runs of the last unit, and optionally its own split of the time."""
        entry = self.units[-1]
        entry[2] += runs
        if seconds is not None:
            entry[1] = seconds
        if latency is not None:
            entry[3] = latency

    def timed(self, one_unit: Callable[[int], None]) -> None:
        """Issue requests ``0, 1, ...`` for ``seconds`` seconds (at least one).

        A request is not started when one as long as the previous would
        end past the deadline, so a run does not overrun by a request.
        """
        deadline = time.perf_counter() + self.seconds
        index, last = 0, 0.0
        while index == 0 or time.perf_counter() + last < deadline:
            start = time.perf_counter()
            one_unit(index)
            last = time.perf_counter() - start
            index += 1

    # -------------------------------------------------------------- results

    def latencies(self, traced: bool) -> List[float]:
        return [unit[1] for unit in self.units if unit[0] == traced]

    def end_to_end(self) -> Dict[str, float]:
        """One number per metric from the timed requests.

        On a shared machine the CPU runs the same code up to twice as
        slowly for tens of seconds to minutes at a time.  That noise only
        ever adds time, so the in-process workloads report their fastest
        request, which moves only when a spell covers the whole run.  ``service`` latency
        also varies by itself (polling, two worker processes), so it
        reports the mean of the middle 60% of its requests.
        """
        bare = [unit for unit in self.units if not unit[0]]
        runs_per_unit = statistics.mean(unit[2] for unit in bare)
        reduce = trimmed_mean if self.workload == "service" else min
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": statistics.median(self.setup),
            "runs_per_s": runs_per_unit / reduce([unit[1] for unit in bare]),
            "latency_s": reduce([unit[3] for unit in bare]),
            "peak_rss_mb": peak_mb + self.extra_rss_mb,
        }

    def per_layer(self) -> Dict[str, float]:
        from layers import layer_metrics

        metrics = {name: 0.0 for name in SERVICE_ONLY}
        metrics.update(layer_metrics(self.tracer.spans, self.traced_units))
        metrics.update(self.layer)
        traced, bare = self.latencies(True), self.latencies(False)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(bare) - 1.0 if bare else 0.0
        )
        metrics["cli.import_s"] = statistics.median(self.imports)
        metrics["bench.failed_frac"] = self.failed / max(1, self.attempted)
        return metrics


def trimmed_mean(values: List[float]) -> float:
    """Mean of the middle 60%: a fifth of the values dropped at each end."""
    ordered = sorted(values)
    cut = len(ordered) // 5
    return statistics.mean(ordered[cut : len(ordered) - cut])


#: per-layer metrics only the service workload measures (0 elsewhere)
SERVICE_ONLY = (
    "service.lease_wait_s",
    "service.item_s",
    "service.item_p90_s",
    "service.finish_lag_s",
    "service.leases",
    "service.retries",
    "service.lease_efficiency",
    "service.items_per_s",
    "service.job_latency_tail_s",
    "service.job_latency_tail_pct",
    "service.dedup_s",
)


# ---------------------------------------------------------------- workloads


def _setup_compute(run: Run) -> None:
    run.setup = [run.probe() for _ in range(run.scale.setup_repeats)]


def run_batches(run: Run) -> None:
    """``sweep``: one in-process ``run_tasks`` batch per unit."""
    import repro.runner.runner as runner
    from repro.runner.tasks import clear_graph_memo
    from workloads import DEFAULT_SEED, compute_tasks, rows_digest

    _setup_compute(run)

    def batch(seed: int, index: int) -> Callable[[], List[Dict[str, Any]]]:
        tasks = compute_tasks(run.scale, run.workload, seed, index)
        clear_graph_memo()
        return lambda: runner.run_tasks(tasks)

    rows = run.reference(batch(DEFAULT_SEED, 0))
    run.check_rows(rows)
    run.check_digest(run.workload, rows_digest(rows))

    def one_unit(index: int) -> None:
        rows = run.unit(index, batch(run.seed, index))
        run.record(len(rows))
        run.check_rows(rows)

    run.timed(one_unit)
    clear_graph_memo()


def _paper_spec(run: Run, seed: int, unit: int) -> str:
    """The shifted paper spec as the JSON document a user would submit."""
    from workloads import paper_spec_data

    return json.dumps(paper_spec_data(run.scale, seed, unit))


def _report(run: Run, text: str, tag: str, store: Path) -> Callable[[], Any]:
    """Parse ``text`` and ``generate_report`` it into ``store``, memos cleared."""
    import repro.report.pipeline as pipeline
    import repro.report.spec as spec
    from repro.runner.tasks import clear_graph_memo

    out = run.work / f"out-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    clear_graph_memo()  # the check memo and Kruskal caches live on the graphs
    source = Path(run.scale.paper_spec).name

    def report():
        parsed = spec.parse_spec_text(text, fmt="json", source=source)
        return pipeline.generate_report(parsed, out, cache_dir=str(store))

    return report


def _report_ok(run: Run, result) -> None:
    run.attempted += result.tasks_run
    if not result.all_correct:
        run.failed += result.tasks_run
        print("check failed: report has incorrect outputs", file=sys.stderr)


#: warm re-runs per cold report: a warm pass is ~25x shorter, so one
#: per request would leave the warm time with too few samples to be steady
WARM_PASSES = 3


def run_paper(run: Run) -> None:
    """``paper``: a cold ``generate_report`` into an empty store, then the
    same spec again served by the warm store."""
    from workloads import DEFAULT_SEED, artifact_digest, read_artifacts

    _setup_compute(run)
    reference = _paper_spec(run, DEFAULT_SEED, 0)
    for tag in ("ref-cold", "ref-warm"):
        result = run.reference(_report(run, reference, tag, run.work / "ref"))
        _report_ok(run, result)
        run.check_digest("paper", artifact_digest(read_artifacts(result.out_dir)))

    def one_unit(index: int) -> None:
        spec, store = _paper_spec(run, run.seed, index), run.work / f"store-{index}"

        def cold_then_warm() -> tuple:
            cold_report = _report(run, spec, "cold", store)
            start = time.perf_counter()
            cold = cold_report()
            cold_s = time.perf_counter() - start
            warm, warm_s = [], []
            for _ in range(WARM_PASSES):
                warm_report = _report(run, spec, "warm", store)
                start = time.perf_counter()
                warm.append(warm_report())
                warm_s.append(time.perf_counter() - start)
            return cold, warm, cold_s, min(warm_s)

        cold, warm, cold_s, warm_s = run.unit(index, cold_then_warm)
        run.record(cold.tasks_run, seconds=cold_s, latency=warm_s)
        _report_ok(run, cold)
        expected = read_artifacts(cold.out_dir)
        for result in warm:
            _report_ok(run, result)
        run.check(read_artifacts(warm[-1].out_dir) == expected, "warm artifacts differ from cold")
        shutil.rmtree(store)

    run.timed(one_unit)


def run_service(run: Run) -> None:
    """``service``: one closed-loop HTTP client against the daemon and workers."""
    import repro.report.pipeline as pipeline
    from layers import percentile
    from repro.report.spec import spec_from_dict
    from service_stack import ServiceStack, queue_layer_numbers
    from workloads import (
        DEFAULT_SEED,
        SERVICE_WORKERS,
        artifact_digest,
        read_artifacts,
        service_spec_data,
    )

    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    scale = run.scale
    stack = None
    try:
        for attempt in range(scale.service_setup_repeats):
            if stack is not None:
                stack.stop()
            seconds = run.probe()
            start = time.perf_counter()
            stack = ServiceStack(run.work / f"queue-{attempt}", SERVICE_WORKERS)
            stack.wait_workers()
            run.setup.append(seconds + time.perf_counter() - start)

        paper_name = Path(scale.paper_spec).name

        def reference_job() -> Dict[str, Any]:
            from workloads import paper_spec_data

            job, _ = stack.submit(paper_spec_data(scale, DEFAULT_SEED, 0), paper_name)
            return stack.wait_job(job) | {"job_id": job}

        status = run.reference(reference_job)
        run.check(status["state"] == "done", f"reference job {status['state']}")
        artifacts = stack.artifacts(status["job_id"], status.get("artifacts", []))
        run.check_digest("paper", artifact_digest(artifacts))

        jobs: List[str] = []
        specs: List[Dict[str, Any]] = []
        groups = len(scale.service_sizes) * scale.service_seeds

        def one_unit(index: int) -> None:
            data = service_spec_data(scale, run.seed, index)

            def job() -> tuple:
                span = run.tracer.begin("service.http_submit") if run.traced(index) else None
                job_id, created = stack.submit(data, "service.json")
                if span is not None:
                    run.tracer.end(span)
                return job_id, created, stack.wait_job(job_id)

            job_id, created, status = run.unit(index, job)
            run.record(groups * 4)
            jobs.append(job_id)
            specs.append(data)
            run.check(created, "a fresh spec was deduplicated")
            done = run.check(status["state"] == "done", f"job {job_id} {status['state']}")
            index_md = stack.artifacts(job_id, ["index.md"])["index.md"] if done else b""
            run.attempted += groups * 4
            if b"**True**" not in index_md:
                run.failed += groups * 4
                print(f"check failed: job {job_id} has incorrect outputs", file=sys.stderr)

        start = time.time()
        run.timed(one_unit)
        timed_wall = time.time() - start

        started = time.perf_counter()
        job_id, created = stack.submit(specs[0], "service.json")
        status = stack.wait_job(job_id)
        dedup_s = time.perf_counter() - started
        run.check(not created and job_id == jobs[0], "identical resubmission was not deduplicated")
        run.check(status["state"] == "done", "deduplicated job not done")

        status = stack.wait_job(jobs[0])
        served = stack.artifacts(jobs[0], status.get("artifacts", []))
        local = pipeline.generate_report(
            spec_from_dict(specs[0], source="service.json"), run.work / "local"
        )
        run.check(served == read_artifacts(local.out_dir), "service artifacts != generate_report")

        numbers, checks = queue_layer_numbers(stack.queue_dir, jobs, stack.metrics())
        for ok, what in checks:
            run.check(ok, what)
        latencies = [unit[3] for unit in run.units]
        tail_q = max(0.5, 1.0 - 10.0 / len(latencies)) if len(latencies) >= 20 else 0.5
        run.layer.update(numbers)
        run.layer.update(
            {
                "service.items_per_s": len(jobs) * groups / timed_wall,
                "service.job_latency_tail_s": percentile(latencies, tail_q),
                "service.job_latency_tail_pct": 100.0 * tail_q,
                "service.dedup_s": dedup_s,
            }
        )
    finally:
        if stack is not None:
            stack.stop()
            run.extra_rss_mb = stack.worker_peak_mb


WORKLOAD_RUNNERS = {
    "paper": run_paper,
    "sweep": run_batches,
    "service": run_service,
}


# --------------------------------------------------------------------- main


def _meta() -> Dict[str, Any]:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not ((SRC / "repro").is_dir() and (ROOT / "BENCHMARK.json").is_file()):
        print("error: run from the root of a full checkout (src/repro, BENCHMARK.json)", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path[:0] = [str(SRC), str(HERE)]

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        WORKLOAD_RUNNERS[args.workload](run)
        values = run.per_layer() if args.trace else run.end_to_end()
        section = declared["per_layer" if args.trace else "end_to_end"]
        for entry in section:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        if run.tracer is not None:
            from spans import chrome_trace

            trace_path = WORK / f"trace-{args.workload}.json"
            trace_path.write_text(json.dumps(chrome_trace(run.tracer.spans)))
            print(f"# trace: {trace_path.relative_to(ROOT)}", file=sys.stderr)
    except Exception:  # noqa: BLE001 - a broken run is reported, not crashed
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
        metrics = {}
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# meta {json.dumps(_meta())}")
    correct = run.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
