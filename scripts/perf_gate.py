#!/usr/bin/env python3
"""Base-vs-head performance gate over the repository benchmark.

Usage::

    python3 scripts/perf_gate.py BASE_DIR HEAD_DIR

BASE_DIR and HEAD_DIR are two checkouts: the merge base and the change
under review.  The head's ``perfbench/`` and ``BENCHMARK.json`` are first
copied over the base checkout (BASE_DIR is modified), so both sides run
the same benchmark and differ only in the program under ``src/``.  Both
sides' bytecode under ``src/`` and ``perfbench/`` is then rebuilt from
scratch, because ``setup_s`` includes importing the program and a side
holding ``__pycache__`` imports faster than one without.  Then
:data:`SEEDS` gives one pair per seed: in each pair both sides run the
``sweep`` and then the ``paper`` workload with ``--trace 0`` for
:data:`SECONDS` seconds, the base first in even pairs and the head first
in odd ones.

The gate exits 1 when any run fails its output checks, or when, on some
end-to-end metric of ``BENCHMARK.json``, the head's median is worse than
the base's by more than that metric's ``bound`` *and* the head lost at
least ``len(SEEDS) - 1`` of the pairs.  The bound is the benchmark's own
definition of a regression, so the gate never rejects a change the
benchmark accepts; the pair count keeps one slow spell of a shared
machine from failing a change that costs nothing.  On a 2-vCPU machine
one gate run takes about six minutes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

#: one pair of runs per seed; both sides of a pair use the same seed
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
#: ``--seconds`` of every run: the timed phase, after set-up and reference
SECONDS = 6
WORKLOADS = ("sweep", "paper")
SIDES = ("base", "head")

#: ``{workload: {side: [perfbench result per pair, in pair order]}}``
Results = Dict[str, Dict[str, List[Dict[str, Any]]]]


def load_end_to_end(root: Path) -> List[Dict[str, Any]]:
    """The end-to-end metrics (name, better, bound) that ``root`` declares."""
    return json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]


#: the directories whose bytecode ``prepare`` rebuilds on both sides
BYTECODE_DIRS = ("src", "perfbench")


def prepare(base: Path, head: Path) -> None:
    """Replace the base checkout's benchmark with the head's, and give
    both checkouts the same bytecode state: every ``__pycache__`` under
    :data:`BYTECODE_DIRS` removed, then all of it compiled afresh
    (``compileall`` writes bytecode even under ``PYTHONDONTWRITEBYTECODE``)."""
    shutil.rmtree(base / "perfbench", ignore_errors=True)
    shutil.copytree(head / "perfbench", base / "perfbench")
    shutil.copy2(head / "BENCHMARK.json", base / "BENCHMARK.json")
    for checkout in (base, head):
        dirs = [name for name in BYTECODE_DIRS if (checkout / name).is_dir()]
        for name in dirs:
            for cache in list((checkout / name).rglob("__pycache__")):
                shutil.rmtree(cache)
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", *dirs], cwd=checkout, check=True
        )


def schedule() -> List[Tuple[int, str, Tuple[str, str]]]:
    """``(seed, workload, side order)`` of every pair, in run order."""
    return [
        (seed, workload, SIDES if pair % 2 == 0 else SIDES[::-1])
        for pair, seed in enumerate(SEEDS)
        for workload in WORKLOADS
    ]


def run_benchmark(checkout: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run; its JSON result, or a failed stand-in."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        result["correct"] = False
    return result


def worse_by(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of ``base``."""
    change = (head - base) / base
    return change if better == "lower" else -change


def decide(results: Results, end_to_end: Sequence[Dict[str, Any]]) -> Tuple[List[str], List[str]]:
    """``(failures, report lines)`` of the gate over finished pairs."""
    failures: List[str] = []
    lines: List[str] = []
    for workload, sides in results.items():
        broken = {side: sum(not result.get("correct") for result in sides[side]) for side in SIDES}
        if any(broken.values()):
            failures.extend(
                f"{workload}: {bad} {side} run(s) failed their checks"
                for side, bad in broken.items()
                if bad
            )
            continue
        pairs = len(sides["base"])
        for metric in end_to_end:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            base = [result["metrics"][name]["value"] for result in sides["base"]]
            head = [result["metrics"][name]["value"] for result in sides["head"]]
            lost = sum(1 for b, h in zip(base, head) if worse_by(b, h, better) > 0)
            base_median, head_median = statistics.median(base), statistics.median(head)
            change = worse_by(base_median, head_median, better)
            regressed = change > bound and lost >= pairs - 1
            lines.append(
                f"{workload:6} {name:12} base {base_median:10.4g}  "
                f"head {head_median:10.4g}  worse by {change:+7.1%} "
                f"(bound {bound:.0%})  lost {lost}/{pairs}"
                + ("  REGRESSION" if regressed else "")
            )
            if regressed:
                failures.append(
                    f"{workload}: {name} is {change:.1%} worse (bound {bound:.0%}) "
                    f"and the head lost {lost} of {pairs} pairs"
                )
    return failures, lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 scripts/perf_gate.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    base, head = (Path(arg).resolve() for arg in argv)
    for checkout in (base, head):
        if not (checkout / "src" / "repro").is_dir():
            print(f"error: {checkout} is not a checkout (no src/repro)", file=sys.stderr)
            return 2
    prepare(base, head)
    end_to_end = load_end_to_end(head)
    checkouts = {"base": base, "head": head}
    results: Results = {workload: {side: [] for side in SIDES} for workload in WORKLOADS}
    for seed, workload, order in schedule():
        for side in order:
            result = run_benchmark(checkouts[side], workload, seed)
            results[workload][side].append(result)
            values = " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result.get("metrics", {}).items()
            )
            print(f"seed {seed} {workload:6} {side}: correct={result.get('correct')} {values}", flush=True)
    failures, lines = decide(results, end_to_end)
    print("\n".join(lines))
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    print("perf gate: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
