"""Workload inputs, generated from the workload seed only.

Every input is a pure function of ``(scale, seed, unit)``: ``unit`` numbers
the requests of one run (0, 1, 2, ...).  The default seed's unit 0 is the
*reference* request whose output digest is pinned in ``digests.json``;
for ``paper`` it is exactly ``specs/paper.toml``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping

ROOT = Path(__file__).resolve().parent.parent

__all__ = [
    "DEFAULT_SEED",
    "ROOT",
    "SCALES",
    "Scale",
    "WORKLOADS",
    "artifact_digest",
    "compute_tasks",
    "paper_spec_data",
    "read_artifacts",
    "rows_digest",
    "service_spec_data",
]

DEFAULT_SEED = 0
WORKLOADS = ("paper", "sweep", "service")
SCHEMES = ("trivial", "theorem2", "theorem3", "theorem3-level")
#: units one workload seed may span before its inputs overlap the next seed's
UNITS_PER_SEED = 1000
#: worker processes the service workload runs (the machine's 2 vCPUs)
SERVICE_WORKERS = 2


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; ``tiny`` exists for the benchmark's own tests."""

    paper_spec: str
    sweep_n: int
    sweep_seeds: int
    service_sizes: tuple
    service_seeds: int
    setup_repeats: int
    service_setup_repeats: int


SCALES = {
    "full": Scale(
        paper_spec="specs/paper.toml",
        sweep_n=1024,
        sweep_seeds=4,
        service_sizes=(8, 16),
        service_seeds=6,
        setup_repeats=5,
        service_setup_repeats=3,
    ),
    "tiny": Scale(
        paper_spec="specs/smoke.toml",
        sweep_n=64,
        sweep_seeds=2,
        service_sizes=(8,),
        service_seeds=2,
        setup_repeats=1,
        service_setup_repeats=1,
    ),
}


def _base(seed: int, unit: int, width: int) -> int:
    if seed < 0 or not 0 <= unit < UNITS_PER_SEED:
        raise ValueError(f"seed must be >= 0 and unit in [0, {UNITS_PER_SEED}), got {seed}, {unit}")
    return (seed * UNITS_PER_SEED + unit) * width


def paper_spec_data(scale: Scale, seed: int, unit: int) -> Dict[str, Any]:
    """The paper spec as a dict, every instance seed shifted for ``(seed, unit)``.

    A shift of 10 per unit keeps the (at most 3-seed) windows disjoint;
    the default seed's unit 0 shifts nothing.
    """
    import tomllib

    data = tomllib.loads((ROOT / scale.paper_spec).read_text(encoding="utf-8"))
    shift = _base(seed, unit, 10)
    for experiment in data["experiment"]:
        kind = experiment.get("kind", "sweep")
        if kind in ("sweep", "robustness"):
            seeds = experiment.get("seeds", 3)
            if isinstance(seeds, int):
                seeds = list(range(seeds))
            experiment["seeds"] = [s + shift for s in seeds]
        elif kind == "tradeoff":
            experiment["seed"] = experiment.get("seed", 0) + shift
    return data


def service_spec_data(scale: Scale, seed: int, unit: int) -> Dict[str, Any]:
    """One small service job: many instance groups, distinct seeds per unit."""
    base = _base(seed, unit, scale.service_seeds)
    return {
        "title": "service job",
        "defaults": {"backend": "analytic"},
        "experiment": [
            {
                "name": "curves",
                "kind": "sweep",
                "schemes": list(SCHEMES),
                "graph": {"family": "random", "density": 0.1},
                "sizes": list(scale.service_sizes),
                "seeds": list(range(base, base + scale.service_seeds)),
            }
        ],
    }


def compute_tasks(scale: Scale, workload: str, seed: int, unit: int) -> List[Any]:
    """The ``sweep`` task batch of one unit (instance-major order)."""
    from repro.runner.tasks import GraphSpec, SweepTask

    if workload != "sweep":
        raise ValueError(f"{workload!r} has no task batch")
    graph, n, count = GraphSpec("random", 0.04), scale.sweep_n, scale.sweep_seeds
    base = _base(seed, unit, count)
    return [
        SweepTask("scheme", scheme, graph, n=n, seed=task_seed, backend="analytic")
        for task_seed in range(base, base + count)
        for scheme in SCHEMES
    ]


def rows_digest(rows: List[Mapping[str, Any]]) -> str:
    blob = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def artifact_digest(artifacts: Mapping[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in sorted(artifacts):
        digest.update(name.encode("utf-8") + b"\0" + artifacts[name] + b"\0")
    return digest.hexdigest()


def read_artifacts(out_dir: Path) -> Dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(Path(out_dir).iterdir())}
