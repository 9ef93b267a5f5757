"""The fault-injection test matrix of the adversarial execution layer.

Three guarantees are pinned here:

* **byte-identity at the null fault** — ``AdversaryEngine`` with
  ``delta = 0`` and an empty fault schedule reduces to ``SyncEngine``
  call for call, on every (problem, scheme/baseline) pair the registry
  knows (the whole robustness methodology hangs on this: the fault-free
  corner of every degradation grid *is* the synchronous result);
* **masked-fault correctness** — under random bounded delays and up to
  ``⌊n/4⌋`` crashes, every registry pair still terminates with a
  verifier-accepted output (the global-barrier synchronizer masks the
  faults; their price is physical rounds and retransmitted messages);
* **cache discipline** — faulty runs are deterministic across workers
  and across cache generations, the null fault shares its cache key
  with fault-free tasks, and the v3→v4 format bump invalidates every
  pre-fault-axis row.
"""

import copy
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import get_problem, problem_names
from repro.core.oracle import run_scheme
from repro.distributed.base import run_baseline
from repro.graphs.generators import random_connected_graph
from repro.runner.registry import resolve_baseline, resolve_scheme
from repro.runner.runner import run_tasks
from repro.runner.tasks import TASK_FORMAT_VERSION, GraphSpec, SweepTask
from repro.simulator.adversary import (
    ADVERSARY_VERSION,
    AdversaryEngine,
    FaultSpec,
    apply_churn,
    derive_fault_seed,
)
from repro.simulator.engine import SyncEngine


def _registry_pairs():
    """Every (problem, kind, target) the registries know, as test ids."""
    pairs = []
    for problem in problem_names():
        registry = get_problem(problem)
        pairs += [(problem, "scheme", s) for s in sorted(registry.schemes)]
        pairs += [(problem, "baseline", b) for b in sorted(registry.baselines)]
    return pairs


PAIRS = _registry_pairs()


@pytest.fixture(scope="module")
def graph24():
    return random_connected_graph(24, 0.15, seed=3)


def _run_pair(graph, problem, kind, target, engine_cls, fault=None, seed=0):
    """One end-to-end engine run of a registry pair, advice included."""
    kwargs = {} if engine_cls is SyncEngine else {"fault": fault, "seed": seed}
    if kind == "scheme":
        scheme = resolve_scheme(target, problem=problem)
        advice = scheme.compute_advice(graph, root=0).as_payloads()
        return engine_cls(graph, scheme.program_factory(), advice=advice, **kwargs).run()
    baseline = resolve_baseline(target, problem=problem)
    bound = baseline.round_bound(graph)
    max_rounds = int(bound) + 50 if bound is not None else None
    return engine_cls(
        graph, baseline.program_factory(graph), max_rounds=max_rounds, **kwargs
    ).run()


# ------------------------------------------------------------------ #
# byte-identity at the null fault, over the whole registry
# ------------------------------------------------------------------ #


class TestNullFaultByteIdentity:
    @pytest.mark.parametrize("problem,kind,target", PAIRS)
    def test_every_registry_pair_is_byte_identical(self, graph24, problem, kind, target):
        """delta=0 + no faults: same outputs, same metrics, same stop reason."""
        sync = _run_pair(graph24, problem, kind, target, SyncEngine)
        null = _run_pair(graph24, problem, kind, target, AdversaryEngine)
        assert null == sync  # RunResult dataclass: full structural equality

    def test_null_spec_object_is_equivalent_to_none(self, graph24):
        scheme = resolve_scheme("trivial", problem="mst")
        advice = scheme.compute_advice(graph24, root=0).as_payloads()
        explicit = AdversaryEngine(
            graph24, scheme.program_factory(), advice=advice, fault=FaultSpec()
        ).run()
        sync = SyncEngine(graph24, scheme.program_factory(), advice=advice).run()
        assert explicit == sync

    def test_null_fault_draws_nothing_from_the_rng(self, graph24):
        """The byte-identity is structural, not lucky: no RNG is consumed."""
        scheme = resolve_scheme("theorem3", problem="mst")
        advice = scheme.compute_advice(graph24, root=0).as_payloads()
        engine = AdversaryEngine(graph24, scheme.program_factory(), advice=advice)
        state = engine._rng.getstate()
        engine.run()
        assert engine._rng.getstate() == state


# ------------------------------------------------------------------ #
# masked faults: every pair survives delays + <= n/4 crashes
# ------------------------------------------------------------------ #


class TestFaultInjectionMatrix:
    @settings(max_examples=30, deadline=None)
    @given(
        pair=st.sampled_from(PAIRS),
        delta=st.integers(min_value=0, max_value=4),
        crash_rate=st.sampled_from([0.0, 0.125, 0.25]),
        recovery=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_verifier_accepts_under_random_faults(
        self, graph24, pair, delta, crash_rate, recovery, seed
    ):
        problem, kind, target = pair
        fault = FaultSpec(delta=delta, crash_rate=crash_rate, recovery=recovery)
        result = _run_pair(
            graph24, problem, kind, target, AdversaryEngine, fault=fault, seed=seed
        )
        assert result.completed and result.stop_reason == "completed"
        root = 0 if kind == "scheme" else None
        check = get_problem(problem).check_outputs(
            graph24, result.outputs, expected_root=root
        )
        assert check.ok, (pair, fault, seed, check.reason)

    @pytest.mark.parametrize("problem,kind,target", PAIRS)
    def test_faulty_run_costs_at_least_the_synchronous_run(
        self, graph24, problem, kind, target
    ):
        """Physical rounds and per-attempt messages only ever inflate."""
        fault = FaultSpec(delta=2, crash_rate=0.25)
        sync = _run_pair(graph24, problem, kind, target, SyncEngine)
        faulty = _run_pair(
            graph24, problem, kind, target, AdversaryEngine, fault=fault, seed=11
        )
        assert faulty.outputs == sync.outputs  # the synchronizer masks faults
        assert faulty.metrics.rounds >= sync.metrics.rounds
        assert faulty.metrics.total_messages >= sync.metrics.total_messages
        assert faulty.metrics.rounds == len(faulty.metrics.messages_per_round)

    def test_crash_schedule_respects_the_quarter_bound(self, graph24):
        engine = AdversaryEngine(
            graph24,
            resolve_scheme("trivial", problem="mst").program_factory(),
            fault=FaultSpec(crash_rate=0.25),
            seed=5,
        )
        assert 0 < len(engine._crash_at) <= graph24.n // 4

    def test_same_seed_same_run_different_seed_different_schedule(self, graph24):
        scheme = resolve_scheme("theorem3", problem="mst")
        advice = scheme.compute_advice(graph24, root=0).as_payloads()
        fault = FaultSpec(delta=3, crash_rate=0.25)

        def run(seed):
            return AdversaryEngine(
                graph24, scheme.program_factory(), advice=advice, fault=fault, seed=seed
            ).run()

        assert run(7) == run(7)
        a, b = AdversaryEngine(
            graph24, scheme.program_factory(), advice=advice, fault=fault, seed=1
        ), AdversaryEngine(
            graph24, scheme.program_factory(), advice=advice, fault=fault, seed=2
        )
        assert a._crash_at != b._crash_at or a._rng.getstate() != b._rng.getstate()


# ------------------------------------------------------------------ #
# the FaultSpec contract
# ------------------------------------------------------------------ #


class TestFaultSpec:
    def test_null_detection(self):
        assert FaultSpec().is_null
        assert FaultSpec(recovery=7).is_null  # recovery alone faults nothing
        for spec in (FaultSpec(delta=1), FaultSpec(crash_rate=0.125), FaultSpec(churn=1)):
            assert not spec.is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": -1},
            {"delta": 1.5},
            {"crash_rate": -0.1},
            {"crash_rate": 0.3},
            {"crash_rate": True},
            {"recovery": 0},
            {"churn": -2},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_key_dict_carries_the_adversary_version(self):
        key = FaultSpec(delta=2).key_dict()
        assert key["adversary_version"] == ADVERSARY_VERSION
        assert key["delta"] == 2

    def test_fault_seed_depends_on_content_and_tag(self):
        spec = FaultSpec(delta=1)
        assert derive_fault_seed(0, spec) == derive_fault_seed(0, spec)
        assert derive_fault_seed(0, spec) != derive_fault_seed(1, spec)
        assert derive_fault_seed(0, spec) != derive_fault_seed(0, FaultSpec(delta=2))
        assert derive_fault_seed(0, spec) != derive_fault_seed(0, spec, tag="churn")


# ------------------------------------------------------------------ #
# cache discipline: keys, normalisation, determinism across workers
# ------------------------------------------------------------------ #


class TestFaultCaching:
    def _task(self, **kwargs):
        defaults = dict(
            kind="scheme",
            target="theorem3",
            graph=GraphSpec("random", 0.1),
            n=16,
            seed=0,
        )
        defaults.update(kwargs)
        return SweepTask(**defaults)

    def test_null_fault_normalises_to_the_fault_free_key(self):
        plain = self._task()
        null = self._task(fault=FaultSpec())
        assert null.fault is None
        assert null.task_hash() == plain.task_hash()

    def test_faulty_key_differs_per_fault_content(self):
        plain = self._task()
        a = self._task(fault=FaultSpec(delta=1))
        b = self._task(fault=FaultSpec(delta=2))
        assert len({plain.task_hash(), a.task_hash(), b.task_hash()}) == 3

    def test_fault_requires_the_engine_backend(self):
        with pytest.raises(ValueError, match="engine"):
            self._task(backend="analytic", fault=FaultSpec(delta=1))

    def test_churn_requires_the_mst_problem(self):
        with pytest.raises(ValueError, match="MST"):
            self._task(target="leader/flag", fault=FaultSpec(churn=1))

    def test_v4_hash_differs_from_a_v3_style_key(self):
        """The format bump invalidates every pre-fault-axis cache row."""
        task = self._task()
        v4_key = task.key_dict()
        v3_key = {k: v for k, v in v4_key.items() if k != "fault"}
        v3_key["format"] = 3
        v3_hash = hashlib.sha256(
            json.dumps(v3_key, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        assert task.task_hash() != v3_hash

    FAULTY_TASKS = [
        SweepTask(
            kind=kind,
            target=target,
            graph=GraphSpec("random", 0.15),
            n=24,
            seed=seed,
            fault=fault,
        )
        for kind, target in (("scheme", "theorem3"), ("baseline", "ghs"))
        for fault in (None, FaultSpec(delta=2), FaultSpec(delta=1, crash_rate=0.25))
        for seed in (0, 1)
    ]

    def test_serial_and_parallel_rows_identical(self):
        serial = run_tasks(self.FAULTY_TASKS, jobs=1)
        parallel = run_tasks(self.FAULTY_TASKS, jobs=2)
        assert serial == parallel

    def test_fresh_vs_resumed_rows_identical(self, tmp_path):
        fresh = run_tasks(self.FAULTY_TASKS, cache_dir=tmp_path)
        resumed = run_tasks(self.FAULTY_TASKS, cache_dir=tmp_path)
        assert fresh == resumed

    def test_faulty_rows_actually_degrade(self):
        rows = run_tasks(self.FAULTY_TASKS)
        null = [r for r in rows if r["scheme"] == "sync-boruvka"][0]
        delayed = [r for r in rows if r["scheme"] == "sync-boruvka"][2]
        assert delayed["rounds"] > null["rounds"]
        assert all(r["correct"] for r in rows)


# ------------------------------------------------------------------ #
# edge-weight churn: incremental repair stays an exact MST
# ------------------------------------------------------------------ #


class TestChurn:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_repaired_tree_reverifies_on_the_churned_instance(self, seed):
        graph = random_connected_graph(32, 0.2, seed=seed)
        report = run_scheme(
            resolve_scheme("trivial", problem="mst"),
            graph,
            root=0,
            fault=FaultSpec(churn=6),
            fault_seed=seed,
        )
        # the check ran against the churned weights, not the originals
        assert report.correct

    def test_churn_charges_rounds_and_messages(self):
        graph = random_connected_graph(32, 0.2, seed=1)
        plain = run_scheme(resolve_scheme("theorem3", problem="mst"), graph, root=0)
        churned = run_scheme(
            resolve_scheme("theorem3", problem="mst"),
            graph,
            root=0,
            fault=FaultSpec(churn=8),
            fault_seed=1,
        )
        assert churned.correct
        assert churned.rounds >= plain.rounds
        assert churned.metrics.total_messages >= plain.metrics.total_messages
        assert churned.metrics.rounds == len(churned.metrics.messages_per_round)

    def test_apply_churn_handles_every_event_class(self):
        """Over many seeds the event mix hits tree/non-tree, up/down."""
        graph = random_connected_graph(24, 0.3, seed=9)
        problem = get_problem("mst")
        base = run_scheme(resolve_scheme("trivial", problem="mst"), graph, root=0)
        for seed in range(10):
            metrics = copy.deepcopy(base.metrics)
            fault = FaultSpec(churn=4)
            check = apply_churn(graph, 0, base.check, fault, seed, metrics)
            assert check.ok, (seed, check.reason)

    def test_baseline_churn_uses_its_own_root(self):
        graph = random_connected_graph(24, 0.2, seed=2)
        report = run_baseline(
            resolve_baseline("ghs", problem="mst"),
            graph,
            fault=FaultSpec(churn=5),
            fault_seed=3,
        )
        assert report.correct

    def test_run_scheme_rejects_faults_off_the_engine(self):
        graph = random_connected_graph(16, 0.2, seed=0)
        with pytest.raises(ValueError, match="engine"):
            run_scheme(
                resolve_scheme("theorem3", problem="mst"),
                graph,
                backend="analytic",
                fault=FaultSpec(delta=1),
            )


# ------------------------------------------------------------------ #
# repo hygiene: byte-compiled artifacts stay out of the tree
# ------------------------------------------------------------------ #


class TestBytecodeHygiene:
    def test_gitignore_covers_bytecode(self):
        from pathlib import Path

        lines = (
            (Path(__file__).resolve().parents[1] / ".gitignore")
            .read_text()
            .splitlines()
        )
        assert "__pycache__/" in lines
        assert "*.pyc" in lines

    def test_no_bytecode_is_tracked(self):
        import subprocess
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        try:
            tracked = subprocess.run(
                ["git", "ls-files", "*.pyc", "**/__pycache__/**"],
                cwd=repo,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout
        except (OSError, subprocess.SubprocessError):
            pytest.skip("git unavailable")
        assert tracked.strip() == ""


def test_format_version_is_4():
    assert TASK_FORMAT_VERSION == 4
