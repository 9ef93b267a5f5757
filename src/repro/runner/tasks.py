"""Work units of the experiment runner.

A :class:`SweepTask` is one simulated run: an advising scheme or
baseline named in the registry, a :class:`GraphSpec` describing the
graph family, a size and a seed.  Tasks are plain frozen dataclasses of
primitives so they can be

* pickled to a ``multiprocessing`` worker and shipped as JSON to the
  sweep service (:func:`task_to_wire`),
* hashed into a stable cache key (:meth:`SweepTask.task_hash`), and
* compared for equality in tests.

Only names and specs are accepted: every task has a content hash, so
every task can be cached, grouped by instance and queued.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.problem import DEFAULT_PROBLEM, split_target
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.runner.registry import build_graph
from repro.simulator.adversary import FaultSpec, effective_fault
from repro.simulator.backends import BACKENDS

__all__ = [
    "GraphSpec",
    "SweepTask",
    "TASK_FORMAT_VERSION",
    "backend_version",
    "task_from_wire",
    "task_to_wire",
]

#: bump when the result-row or hashing format changes; stored inside the
#: hash input so stale cache entries can never be mistaken for fresh ones
#: (4: the key grew the fault axis (adversarial execution);
#:  3: the key and the result rows grew the problem axis;
#:  2: the key grew the execution backend and its semantic version)
TASK_FORMAT_VERSION = 4


def backend_version(backend: str) -> int:
    """Semantic version of an execution backend, mixed into cache keys.

    A cached row must identify *how* it was computed, not just on what:
    an engine row and an analytic row for the same workload are only
    interchangeable because the equivalence suite says so today, and a
    future change to either implementation must invalidate only its own
    rows.  Imported lazily to keep ``repro.runner`` importable without
    the simulator.
    """
    if backend == "engine":
        from repro.simulator.engine import ENGINE_VERSION

        return ENGINE_VERSION
    if backend == "analytic":
        from repro.simulator.analytic import ANALYTIC_VERSION

        return ANALYTIC_VERSION
    raise ValueError(f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")


def _library_version() -> str:
    """The installed ``repro`` version, mixed into every cache key.

    A cached row is only as fresh as the code that produced it: a new
    release may change simulation semantics (engine accounting, scheme
    decoders, graph generators), so keys from older versions must never
    be served.  Imported lazily to avoid a cycle with ``repro.__init__``.
    """
    import repro

    return getattr(repro, "__version__", "0")


#: small per-process memo of built instances: a sweep runs several
#: schemes (and both backends) over the *same* ``(family, n, seed)``
#: instances back to back, and rebuilding the graph — plus its cached
#: derivations (reference MST, Borůvka trace, adjacency tables) — per
#: scheme was the single largest shared cost per point.  Instances are
#: immutable, so sharing the object across tasks is observable only as
#: speed.  Bounded FIFO to keep worker memory flat.
_GRAPH_MEMO: Dict[Any, PortNumberedGraph] = {}
_GRAPH_MEMO_LIMIT = 16


def clear_graph_memo() -> None:
    """Drop all memoised instances (benchmarks call this between timed
    passes so every backend pays the cold construction cost)."""
    _GRAPH_MEMO.clear()


@dataclass(frozen=True)
class GraphSpec:
    """A picklable, hashable description of one graph family workload.

    Families come from :data:`repro.runner.registry.GRAPH_FAMILIES`:

    >>> spec = GraphSpec("hypercube")
    >>> spec.build(16, seed=0).n  # builds the instance (memoised per process)
    16
    >>> GraphSpec("cycle").key_dict()  # density only shapes "random"
    {'family': 'cycle', 'density': None}
    """

    #: family name understood by :func:`repro.runner.registry.build_graph`
    family: str = "random"
    #: extra-edge probability (only meaningful for ``random``)
    density: float = 0.05

    def build(self, n: int, seed: int) -> PortNumberedGraph:
        """Materialise the instance of size ``n`` for ``seed`` (memoised)."""
        key = (self.family, self.density if self.family == "random" else None, n, seed)
        graph = _GRAPH_MEMO.get(key)
        if graph is None:
            graph = build_graph(self.family, n, seed, self.density)
            if len(_GRAPH_MEMO) >= _GRAPH_MEMO_LIMIT:
                _GRAPH_MEMO.pop(next(iter(_GRAPH_MEMO)))
            _GRAPH_MEMO[key] = graph
        return graph

    def key_dict(self) -> Dict[str, Any]:
        """Canonical content for hashing.

        ``density`` only shapes the ``random`` family (see
        :func:`~repro.runner.registry.build_graph`), so it is normalised
        away for every other family — otherwise identical workloads
        would hash to different cache keys.
        """
        return {
            "family": self.family,
            # mirror build_graph's clamp so equivalent workloads share a key
            "density": min(1.0, self.density) if self.family == "random" else None,
        }


@dataclass(frozen=True)
class SweepTask:
    """One simulated run inside a sweep.

    The target is a registry name and the graph a :class:`GraphSpec`,
    so the content hashes to a stable sha256 key that includes the
    library version and the execution backend's semantic version:
    stale or cross-backend rows are never served.

    Targets live on a *problem* axis: bare names resolve against the
    ``problem`` field (default ``mst``, so every historical task keeps
    its meaning) and qualified names (``"leader/flag"``) normalise into
    ``(problem, bare_name)`` at construction.

    >>> task = SweepTask("scheme", "theorem3", GraphSpec("random", 0.05), n=64, seed=0)
    >>> task.task_hash() == task.task_hash()  # content-addressed, stable
    True
    >>> engine_key = task.task_hash()
    >>> from dataclasses import replace
    >>> replace(task, backend="analytic").task_hash() == engine_key
    False
    >>> from repro.simulator.adversary import FaultSpec
    >>> replace(task, fault=FaultSpec(delta=2)).task_hash() == engine_key
    False
    >>> replace(task, fault=FaultSpec()).fault is None  # null fault normalised
    True
    >>> replace(task, fault=FaultSpec()).task_hash() == engine_key
    True
    >>> qualified = SweepTask("scheme", "leader/flag", GraphSpec(), 16, 0)
    >>> qualified.problem, qualified.target  # qualifier normalised away
    ('leader', 'flag')
    >>> qualified == SweepTask("scheme", "flag", GraphSpec(), 16, 0, problem="leader")
    True
    >>> SweepTask("scheme", "leader/flag", GraphSpec(), 16, 0, problem="wakeup")
    Traceback (most recent call last):
        ...
    ValueError: target 'leader/flag' contradicts problem 'wakeup'
    >>> SweepTask("baseline", "ghs", GraphSpec(), 16, 0, backend="analytic").backend
    'analytic'
    >>> SweepTask("baseline", "ghs", GraphSpec(), 16, 0, backend="analytic",
    ...           fault=FaultSpec(delta=2))
    Traceback (most recent call last):
        ...
    ValueError: adversarial execution requires the engine backend
    """

    #: ``"scheme"`` or ``"baseline"``
    kind: str
    #: registry name, bare (``"theorem3"``) or qualified (``"leader/flag"``)
    target: str
    graph: GraphSpec
    n: int
    seed: int
    root: int = 0
    #: execution backend: ``"engine"`` simulates the program round by
    #: round, ``"analytic"`` computes the same metrics from the Borůvka
    #: phases (targets without an analytic model fall back to the engine)
    backend: str = "engine"
    #: the problem the target solves; bare targets resolve against it
    problem: str = DEFAULT_PROBLEM
    #: adversarial execution model (``None`` = the synchronous engine);
    #: a *null* spec is normalised to ``None`` so the zero point of a
    #: robustness grid hashes — and caches — like a fault-free task
    fault: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in ("scheme", "baseline"):
            raise ValueError(f"kind must be 'scheme' or 'baseline', got {self.kind!r}")
        if not isinstance(self.target, str):
            raise ValueError(
                f"target must be a registry name, got {type(self.target).__name__}"
            )
        if not isinstance(self.graph, GraphSpec):
            raise ValueError(f"graph must be a GraphSpec, got {type(self.graph).__name__}")
        qualifier, bare = split_target(self.target)
        if qualifier is not None:
            if self.problem not in (DEFAULT_PROBLEM, qualifier):
                raise ValueError(
                    f"target {self.target!r} contradicts problem {self.problem!r}"
                )
            object.__setattr__(self, "problem", qualifier)
            object.__setattr__(self, "target", bare)
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {', '.join(BACKENDS)}, got {self.backend!r}"
            )
        object.__setattr__(
            self, "fault", effective_fault(self.fault, self.backend, self.problem)
        )

    def key_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able content of the task."""
        return {
            "format": TASK_FORMAT_VERSION,
            "lib": _library_version(),
            "kind": self.kind,
            "problem": self.problem,
            "target": self.target,
            "graph": self.graph.key_dict(),
            "n": self.n,
            "seed": self.seed,
            "root": self.root,
            # backend + its semantic version: analytic and engine rows can
            # never be served for each other, and bumping either backend's
            # version invalidates exactly its own cached rows
            "backend": self.backend,
            "backend_version": backend_version(self.backend),
            # the fault axis; ``None`` for every fault-free task (including
            # normalised null specs), so historical workloads keep one key
            # per backend and ADVERSARY_VERSION bumps touch only faulty rows
            "fault": self.fault.key_dict() if self.fault is not None else None,
        }

    def task_hash(self) -> str:
        """Stable sha256 cache key."""
        blob = json.dumps(self.key_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def build_graph(self) -> PortNumberedGraph:
        """Materialise this task's graph instance."""
        return self.graph.build(self.n, self.seed)


def task_to_wire(task: SweepTask) -> Dict[str, Any]:
    """A JSON-able description of one task.

    The sweep service ships task groups through its lease queue as plain
    JSON: the registry name, the spec's fields and the task's scalars.

    >>> task = SweepTask("scheme", "theorem3", GraphSpec("random", 0.1), 16, 0)
    >>> task_from_wire(task_to_wire(task)) == task
    True
    """
    return {
        "kind": task.kind,
        "problem": task.problem,
        "target": task.target,
        "family": task.graph.family,
        "density": task.graph.density,
        "n": task.n,
        "seed": task.seed,
        "root": task.root,
        "backend": task.backend,
        "fault": (
            {
                "delta": task.fault.delta,
                "crash_rate": task.fault.crash_rate,
                "recovery": task.fault.recovery,
                "churn": task.fault.churn,
            }
            if task.fault is not None
            else None
        ),
    }


def task_from_wire(payload: Dict[str, Any]) -> SweepTask:
    """Rebuild a :class:`SweepTask` from its :func:`task_to_wire` form.

    Validation is the constructors' own — a malformed payload raises the
    same :class:`ValueError`/:class:`TypeError` a direct construction
    would, which is what lets the sweep service treat undecodable queue
    items as failed (and eventually quarantined) work instead of crashing
    the worker.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"wire task must be a dict, got {type(payload).__name__}")
    fault = payload.get("fault")
    return SweepTask(
        kind=payload["kind"],
        target=payload["target"],
        graph=GraphSpec(payload["family"], payload["density"]),
        n=payload["n"],
        seed=payload["seed"],
        root=payload.get("root", 0),
        backend=payload.get("backend", "engine"),
        problem=payload.get("problem", DEFAULT_PROBLEM),
        fault=FaultSpec(**fault) if fault is not None else None,
    )
