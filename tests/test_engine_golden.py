"""Engine regression: every registry pair under five execution modes.

``SyncEngine`` and ``AdversaryEngine`` share one round loop; they differ
only in how a round's messages reach the inboxes.  The ``GOLDEN``
fingerprints below pin the complete outcome of every (problem,
scheme/baseline) pair on two random instances under five modes:

* ``sync`` — the synchronous engine;
* ``traced`` — the synchronous engine with a :class:`Tracer` attached
  (no idle fast-forward; every round is recorded);
* ``delta1`` — the adversary with delays of up to one round;
* ``delta3-crash`` — delays of up to three rounds and ``n/4`` crashes;
* ``crash-recovery3`` — ``n/8`` crashes that stay down three rounds.

A fingerprint covers the outputs, the full :class:`RunMetrics`
(``messages_per_round`` and ``undelivered_messages`` included), the
stop state and, for the traced mode, the tracer's per-round messages,
bits and halts.  Any change to the order in which the adversary draws
delays, or to what a round charges, changes a fingerprint.

Regenerate with ``PYTHONPATH=src python tests/test_engine_golden.py``
only if the *specified* execution semantics change, never for a
refactor.
"""

import hashlib

from repro.core.problem import get_problem, problem_names
from repro.graphs.generators import random_connected_graph
from repro.runner.registry import resolve_baseline, resolve_scheme
from repro.simulator.adversary import AdversaryEngine, FaultSpec
from repro.simulator.engine import SyncEngine
from repro.simulator.trace import Tracer

#: instance name -> (n, edge probability, generator seed, round budget);
#: a ``None`` budget keeps the engine default (baselines: their bound
#: plus 50), the budget of 8 truncates the longer schedules
INSTANCES = {
    "random24": (24, 0.15, 3, None),
    "random64": (64, 0.06, 5, None),
    "random24-budget8": (24, 0.15, 3, 8),
}

#: mode name -> fault spec (``None``: the synchronous engine)
MODES = {
    "sync": None,
    "traced": None,
    "delta1": FaultSpec(delta=1),
    "delta3-crash": FaultSpec(delta=3, crash_rate=0.25),
    "crash-recovery3": FaultSpec(crash_rate=0.125, recovery=3),
}

#: adversary seed shared by every faulty mode
FAULT_SEED = 7


def _pairs():
    pairs = []
    for problem in problem_names():
        registry = get_problem(problem)
        pairs += [(problem, "scheme", s) for s in sorted(registry.schemes)]
        pairs += [(problem, "baseline", b) for b in sorted(registry.baselines)]
    return pairs


def _run(graph, problem, kind, target, mode, budget):
    """One engine run of a registry pair; returns ``(result, tracer)``.

    ``budget`` overrides the round limit when it is not ``None``.
    """
    if kind == "scheme":
        scheme = resolve_scheme(target, problem=problem)
        factory = scheme.program_factory()
        advice = scheme.compute_advice(graph, root=0).as_payloads()
        max_rounds = None
    else:
        baseline = resolve_baseline(target, problem=problem)
        factory = baseline.program_factory(graph)
        advice = None
        bound = baseline.round_bound(graph)
        max_rounds = int(bound) + 50 if bound is not None else None
    if budget is not None:
        max_rounds = budget
    tracer = Tracer() if mode == "traced" else None
    fault = MODES[mode]
    if fault is None:
        engine = SyncEngine(graph, factory, advice=advice, max_rounds=max_rounds, tracer=tracer)
    else:
        engine = AdversaryEngine(
            graph, factory, advice=advice, max_rounds=max_rounds, fault=fault, seed=FAULT_SEED
        )
    return engine.run(), tracer


def fingerprint(result, tracer):
    """``(rounds, total_messages, digest)`` of one run's complete outcome."""
    m = result.metrics
    parts = [
        sorted(result.outputs.items()),
        (
            m.n,
            m.rounds,
            m.total_messages,
            m.total_message_bits,
            m.max_message_bits,
            m.max_edge_bits_per_round,
            m.undelivered_messages,
            m.messages_per_round,
        ),
        (result.completed, result.missing_outputs, result.stop_reason),
    ]
    if tracer is not None:
        parts.append(
            (
                [r.round for r in tracer.rounds],
                tracer.messages_per_round(),
                tracer.bits_per_round(),
                [(r.halted, list(r.outputs.items())) for r in tracer.rounds],
            )
        )
    digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:20]
    return (m.rounds, m.total_messages, digest)


def compute_all():
    """Every fingerprint, keyed like :data:`GOLDEN`."""
    out = {}
    for instance, (n, p, seed, budget) in INSTANCES.items():
        graph = random_connected_graph(n, p, seed=seed)
        for problem, kind, target in _pairs():
            for mode in MODES:
                run = _run(graph, problem, kind, target, mode, budget)
                out[f"{instance}/{problem}/{kind}/{target}/{mode}"] = fingerprint(*run)
    return out


# captured before the adversary shared the synchronous round loop
GOLDEN = {
    'random24/leader/scheme/flag/sync': (0, 0, 'd2684e7bf98c3290f950'),
    'random24/leader/scheme/flag/traced': (0, 0, '4c0e12b6b40b90eed9a6'),
    'random24/leader/scheme/flag/delta1': (0, 0, 'd2684e7bf98c3290f950'),
    'random24/leader/scheme/flag/delta3-crash': (0, 0, 'd2684e7bf98c3290f950'),
    'random24/leader/scheme/flag/crash-recovery3': (0, 0, 'd2684e7bf98c3290f950'),
    'random24/leader/scheme/rank/sync': (0, 0, 'd2684e7bf98c3290f950'),
    'random24/leader/scheme/rank/traced': (0, 0, '4c0e12b6b40b90eed9a6'),
    'random24/leader/scheme/rank/delta1': (0, 0, 'd2684e7bf98c3290f950'),
    'random24/leader/scheme/rank/delta3-crash': (0, 0, 'd2684e7bf98c3290f950'),
    'random24/leader/scheme/rank/crash-recovery3': (0, 0, 'd2684e7bf98c3290f950'),
    'random24/leader/baseline/maxid-flood/sync': (24, 259, 'f6519c6954b90fefc601'),
    'random24/leader/baseline/maxid-flood/traced': (24, 259, 'fcfa6281debcd30d8457'),
    'random24/leader/baseline/maxid-flood/delta1': (28, 259, '730af27f15c5126aa340'),
    'random24/leader/baseline/maxid-flood/delta3-crash': (44, 282, 'bba30d9c839b38ae0fe6'),
    'random24/leader/baseline/maxid-flood/crash-recovery3': (29, 259, 'd6f1af56148eba454086'),
    'random24/mst/scheme/theorem2/sync': (1, 11, '5a2d922a21db6c42bbb3'),
    'random24/mst/scheme/theorem2/traced': (1, 11, 'eda2ec5a3b23ff9fc9c5'),
    'random24/mst/scheme/theorem2/delta1': (2, 11, '582fa2d686f89f728e6c'),
    'random24/mst/scheme/theorem2/delta3-crash': (8, 15, 'd918b95f29460573c18a'),
    'random24/mst/scheme/theorem2/crash-recovery3': (1, 11, '5a2d922a21db6c42bbb3'),
    'random24/mst/scheme/theorem3/sync': (33, 98, '4ffa111f9e80dbbe7c67'),
    'random24/mst/scheme/theorem3/traced': (33, 98, '27a1fd9d48f76e0d2f47'),
    'random24/mst/scheme/theorem3/delta1': (45, 98, '642aaeb91e855965babf'),
    'random24/mst/scheme/theorem3/delta3-crash': (77, 98, '3ce76c0985924c337390'),
    'random24/mst/scheme/theorem3/crash-recovery3': (35, 98, 'd01f537b480f075d24a1'),
    'random24/mst/scheme/theorem3-level/sync': (39, 416, 'ec283e7948d3e5f5cf56'),
    'random24/mst/scheme/theorem3-level/traced': (39, 416, '15bd67571306c9feb605'),
    'random24/mst/scheme/theorem3-level/delta1': (54, 416, '44ee699ca28b118ca59b'),
    'random24/mst/scheme/theorem3-level/delta3-crash': (93, 418, '05aecb11ea8767f9a41d'),
    'random24/mst/scheme/theorem3-level/crash-recovery3': (42, 417, '3ccca9e43817fee3ee81'),
    'random24/mst/scheme/trivial/sync': (0, 0, 'c0ee7df0a172ee3dc086'),
    'random24/mst/scheme/trivial/traced': (0, 0, 'd1a762d65dd727ab3bf2'),
    'random24/mst/scheme/trivial/delta1': (0, 0, 'c0ee7df0a172ee3dc086'),
    'random24/mst/scheme/trivial/delta3-crash': (0, 0, 'c0ee7df0a172ee3dc086'),
    'random24/mst/scheme/trivial/crash-recovery3': (0, 0, 'c0ee7df0a172ee3dc086'),
    'random24/mst/baseline/full-info/sync': (6, 566, '910094efd705bbe64fa6'),
    'random24/mst/baseline/full-info/traced': (6, 566, '0cfbf86ebcc55034208e'),
    'random24/mst/baseline/full-info/delta1': (12, 566, '29a7ced0341bb8762366'),
    'random24/mst/baseline/full-info/delta3-crash': (32, 597, 'a9a0ed91629e4ae75c50'),
    'random24/mst/baseline/full-info/crash-recovery3': (6, 566, '910094efd705bbe64fa6'),
    'random24/mst/baseline/ghs/sync': (560, 804, '4edc6d52b1cd23a9d380'),
    'random24/mst/baseline/ghs/traced': (560, 804, '4f998bce5f91e0401ed6'),
    'random24/mst/baseline/ghs/delta1': (616, 804, 'e01c5b56313b49a04256'),
    'random24/mst/baseline/ghs/delta3-crash': (720, 804, '2c4dcbad4cd5e9da5b84'),
    'random24/mst/baseline/ghs/crash-recovery3': (560, 804, '4edc6d52b1cd23a9d380'),
    'random24/stverify/scheme/distance/sync': (1, 23, '9fd590c53e40e0d69f09'),
    'random24/stverify/scheme/distance/traced': (1, 23, 'a72e523c21afc8fc54e4'),
    'random24/stverify/scheme/distance/delta1': (2, 23, 'd2b5faabde2066383187'),
    'random24/stverify/scheme/distance/delta3-crash': (8, 25, '3eeac09ac986ee942bbe'),
    'random24/stverify/scheme/distance/crash-recovery3': (1, 23, '9fd590c53e40e0d69f09'),
    'random24/stverify/scheme/flag/sync': (7, 46, '16c6d1550c90d2d39722'),
    'random24/stverify/scheme/flag/traced': (7, 46, '13e0e56edb8272432d29'),
    'random24/stverify/scheme/flag/delta1': (14, 46, 'd1c32a2bead202c41e96'),
    'random24/stverify/scheme/flag/delta3-crash': (30, 48, 'b0b2d101161e35b5fe55'),
    'random24/stverify/scheme/flag/crash-recovery3': (7, 46, '16c6d1550c90d2d39722'),
    'random24/wakeup/scheme/spanning-tree/sync': (6, 23, 'c685a51c610d7d689042'),
    'random24/wakeup/scheme/spanning-tree/traced': (6, 23, '4886e82686b58de73fe8'),
    'random24/wakeup/scheme/spanning-tree/delta1': (10, 23, 'b2a192d07a53f4c52e83'),
    'random24/wakeup/scheme/spanning-tree/delta3-crash': (28, 24, '48164897b2f83eb9a1b5'),
    'random24/wakeup/scheme/spanning-tree/crash-recovery3': (6, 23, 'c685a51c610d7d689042'),
    'random24/wakeup/baseline/flood/sync': (4, 83, 'a8313c1492ef3efd2ad5'),
    'random24/wakeup/baseline/flood/traced': (4, 83, 'ee39d09c48b167291a68'),
    'random24/wakeup/baseline/flood/delta1': (7, 83, 'dc9b1e9fadb505c3efc8'),
    'random24/wakeup/baseline/flood/delta3-crash': (18, 84, 'cc6e40d8aa4a83deb136'),
    'random24/wakeup/baseline/flood/crash-recovery3': (4, 83, 'a8313c1492ef3efd2ad5'),
    'random64/leader/scheme/flag/sync': (0, 0, '7eb1b2659938c662acf9'),
    'random64/leader/scheme/flag/traced': (0, 0, 'd7d68c724cbd82af4e29'),
    'random64/leader/scheme/flag/delta1': (0, 0, '7eb1b2659938c662acf9'),
    'random64/leader/scheme/flag/delta3-crash': (0, 0, '7eb1b2659938c662acf9'),
    'random64/leader/scheme/flag/crash-recovery3': (0, 0, '7eb1b2659938c662acf9'),
    'random64/leader/scheme/rank/sync': (0, 0, '7eb1b2659938c662acf9'),
    'random64/leader/scheme/rank/traced': (0, 0, 'd7d68c724cbd82af4e29'),
    'random64/leader/scheme/rank/delta1': (0, 0, '7eb1b2659938c662acf9'),
    'random64/leader/scheme/rank/delta3-crash': (0, 0, '7eb1b2659938c662acf9'),
    'random64/leader/scheme/rank/crash-recovery3': (0, 0, '7eb1b2659938c662acf9'),
    'random64/leader/baseline/maxid-flood/sync': (64, 1245, '724c9908a1ea661bef10'),
    'random64/leader/baseline/maxid-flood/traced': (64, 1245, 'b39483c6ed6d7322bc47'),
    'random64/leader/baseline/maxid-flood/delta1': (69, 1245, 'b0e33ee740d3a61d6c38'),
    'random64/leader/baseline/maxid-flood/delta3-crash': (91, 1268, '981aaf447ca0a09f123c'),
    'random64/leader/baseline/maxid-flood/crash-recovery3': (77, 1272, 'f1345f3ae4ce67b86a95'),
    'random64/mst/scheme/theorem2/sync': (1, 23, '1f253e6b4a5d69f51960'),
    'random64/mst/scheme/theorem2/traced': (1, 23, '04944060c02be50694ff'),
    'random64/mst/scheme/theorem2/delta1': (2, 23, '3964378753410e0c9e24'),
    'random64/mst/scheme/theorem2/delta3-crash': (16, 25, '0a6ac3cde588be1f369f'),
    'random64/mst/scheme/theorem2/crash-recovery3': (10, 23, '0ab2ebe0c07d2bd1e345'),
    'random64/mst/scheme/theorem3/sync': (35, 268, '42581a6954bfb316c8ff'),
    'random64/mst/scheme/theorem3/traced': (35, 268, '196a8313f64475da6682'),
    'random64/mst/scheme/theorem3/delta1': (52, 268, 'b03378e3317db242203c'),
    'random64/mst/scheme/theorem3/delta3-crash': (95, 275, '68a3c7ba4c07e6c2cf5b'),
    'random64/mst/scheme/theorem3/crash-recovery3': (47, 268, '7011ee99c08398fc4833'),
    'random64/mst/scheme/theorem3-level/sync': (41, 1456, '141cf2087ed44a4a739d'),
    'random64/mst/scheme/theorem3-level/traced': (41, 1456, 'f56104e789901530dca2'),
    'random64/mst/scheme/theorem3-level/delta1': (61, 1456, '0ad3e906bca3d3745b30'),
    'random64/mst/scheme/theorem3-level/delta3-crash': (111, 1484, '6d73c9812ba480464b33'),
    'random64/mst/scheme/theorem3-level/crash-recovery3': (51, 1456, 'd6c406ba4cc5454cda80'),
    'random64/mst/scheme/trivial/sync': (0, 0, 'a4b4ff3c855fc9ab1bc7'),
    'random64/mst/scheme/trivial/traced': (0, 0, 'b7862529dde55aa772a7'),
    'random64/mst/scheme/trivial/delta1': (0, 0, 'a4b4ff3c855fc9ab1bc7'),
    'random64/mst/scheme/trivial/delta3-crash': (0, 0, 'a4b4ff3c855fc9ab1bc7'),
    'random64/mst/scheme/trivial/crash-recovery3': (0, 0, 'a4b4ff3c855fc9ab1bc7'),
    'random64/mst/baseline/full-info/sync': (7, 2279, 'd1409e5b7197168e924b'),
    'random64/mst/baseline/full-info/traced': (7, 2279, 'eba97b836ca5c490a179'),
    'random64/mst/baseline/full-info/delta1': (14, 2279, 'cf0a5aaa1891fa927de0'),
    'random64/mst/baseline/full-info/delta3-crash': (40, 2302, 'abac5f150ad20f7f8384'),
    'random64/mst/baseline/full-info/crash-recovery3': (20, 2309, '4898659ba5a86459afe4'),
    'random64/mst/baseline/ghs/sync': (1632, 3244, '01a09927eb3a9a33a2e5'),
    'random64/mst/baseline/ghs/traced': (1632, 3244, 'ef02f086133026c86147'),
    'random64/mst/baseline/ghs/delta1': (1732, 3244, 'a8257d49a77a49f2ea19'),
    'random64/mst/baseline/ghs/delta3-crash': (1918, 3244, 'c80251a0a4a41383de8e'),
    'random64/mst/baseline/ghs/crash-recovery3': (1641, 3244, '0fa5c7984e323725f38f'),
    'random64/stverify/scheme/distance/sync': (1, 63, 'd12e50a8f2ea68330054'),
    'random64/stverify/scheme/distance/traced': (1, 63, '57599397b560604fcd9a'),
    'random64/stverify/scheme/distance/delta1': (2, 63, '0b03a79812a0719a1636'),
    'random64/stverify/scheme/distance/delta3-crash': (16, 67, 'a197358cbc40cedcc0d0'),
    'random64/stverify/scheme/distance/crash-recovery3': (10, 66, '035f381f9b435d064021'),
    'random64/stverify/scheme/flag/sync': (16, 126, 'bc99ea23a4f33bea57a0'),
    'random64/stverify/scheme/flag/traced': (16, 126, '6be7e7a2330373109f91'),
    'random64/stverify/scheme/flag/delta1': (30, 126, '0d9284c76ccf99af54bb'),
    'random64/stverify/scheme/flag/delta3-crash': (68, 130, 'fdeba7425bcc9c95a4a1'),
    'random64/stverify/scheme/flag/crash-recovery3': (29, 129, '231b6d055fda19da5b74'),
    'random64/wakeup/scheme/spanning-tree/sync': (15, 63, 'e923c75f52a22b8dd2a7'),
    'random64/wakeup/scheme/spanning-tree/traced': (15, 63, '17fbf9a8bd5eb591439b'),
    'random64/wakeup/scheme/spanning-tree/delta1': (25, 63, '35739595ea2265674651'),
    'random64/wakeup/scheme/spanning-tree/delta3-crash': (65, 63, '7f3b0a9a340792497226'),
    'random64/wakeup/scheme/spanning-tree/crash-recovery3': (28, 63, '5bd44f0bea26fa857a48'),
    'random64/wakeup/baseline/flood/sync': (5, 333, '9f780a1e6bad28977bca'),
    'random64/wakeup/baseline/flood/traced': (5, 333, 'a9ee5271649efd3b3d2e'),
    'random64/wakeup/baseline/flood/delta1': (9, 333, 'dd639a149131ad68efb3'),
    'random64/wakeup/baseline/flood/delta3-crash': (29, 333, 'db8148f72613b32ae72a'),
    'random64/wakeup/baseline/flood/crash-recovery3': (14, 333, '6e35abdf0fce60f26114'),
    'random24-budget8/leader/scheme/flag/sync': (0, 0, 'd2684e7bf98c3290f950'),
    'random24-budget8/leader/scheme/flag/traced': (0, 0, '4c0e12b6b40b90eed9a6'),
    'random24-budget8/leader/scheme/flag/delta1': (0, 0, 'd2684e7bf98c3290f950'),
    'random24-budget8/leader/scheme/flag/delta3-crash': (0, 0, 'd2684e7bf98c3290f950'),
    'random24-budget8/leader/scheme/flag/crash-recovery3': (0, 0, 'd2684e7bf98c3290f950'),
    'random24-budget8/leader/scheme/rank/sync': (0, 0, 'd2684e7bf98c3290f950'),
    'random24-budget8/leader/scheme/rank/traced': (0, 0, '4c0e12b6b40b90eed9a6'),
    'random24-budget8/leader/scheme/rank/delta1': (0, 0, 'd2684e7bf98c3290f950'),
    'random24-budget8/leader/scheme/rank/delta3-crash': (0, 0, 'd2684e7bf98c3290f950'),
    'random24-budget8/leader/scheme/rank/crash-recovery3': (0, 0, 'd2684e7bf98c3290f950'),
    'random24-budget8/leader/baseline/maxid-flood/sync': (8, 259, 'cf908e8b57834e80f222'),
    'random24-budget8/leader/baseline/maxid-flood/traced': (8, 259, '6e439c3929df417d575a'),
    'random24-budget8/leader/baseline/maxid-flood/delta1': (12, 259, 'ad251bb641478a63eade'),
    'random24-budget8/leader/baseline/maxid-flood/delta3-crash': (28, 282, '64637541ac5521be8a8c'),
    'random24-budget8/leader/baseline/maxid-flood/crash-recovery3': (8, 259, 'cf908e8b57834e80f222'),
    'random24-budget8/mst/scheme/theorem2/sync': (1, 11, '5a2d922a21db6c42bbb3'),
    'random24-budget8/mst/scheme/theorem2/traced': (1, 11, 'eda2ec5a3b23ff9fc9c5'),
    'random24-budget8/mst/scheme/theorem2/delta1': (2, 11, '582fa2d686f89f728e6c'),
    'random24-budget8/mst/scheme/theorem2/delta3-crash': (8, 15, 'd918b95f29460573c18a'),
    'random24-budget8/mst/scheme/theorem2/crash-recovery3': (1, 11, '5a2d922a21db6c42bbb3'),
    'random24-budget8/mst/scheme/theorem3/sync': (8, 50, '75488e716410d7132400'),
    'random24-budget8/mst/scheme/theorem3/traced': (8, 50, '176d088552e4c8f16460'),
    'random24-budget8/mst/scheme/theorem3/delta1': (12, 50, 'dc0bc109aff7a0e19d9f'),
    'random24-budget8/mst/scheme/theorem3/delta3-crash': (28, 50, '04b968bbed85a366124e'),
    'random24-budget8/mst/scheme/theorem3/crash-recovery3': (8, 50, '75488e716410d7132400'),
    'random24-budget8/mst/scheme/theorem3-level/sync': (8, 236, '18f4dc08fe54f8a4b4d6'),
    'random24-budget8/mst/scheme/theorem3-level/traced': (8, 236, '81ac800d108b29fbf1e7'),
    'random24-budget8/mst/scheme/theorem3-level/delta1': (11, 236, '0096879b06a295608f1d'),
    'random24-budget8/mst/scheme/theorem3-level/delta3-crash': (26, 238, '6163ec62c7dfbcd6e5ce'),
    'random24-budget8/mst/scheme/theorem3-level/crash-recovery3': (8, 236, '18f4dc08fe54f8a4b4d6'),
    'random24-budget8/mst/scheme/trivial/sync': (0, 0, 'c0ee7df0a172ee3dc086'),
    'random24-budget8/mst/scheme/trivial/traced': (0, 0, 'd1a762d65dd727ab3bf2'),
    'random24-budget8/mst/scheme/trivial/delta1': (0, 0, 'c0ee7df0a172ee3dc086'),
    'random24-budget8/mst/scheme/trivial/delta3-crash': (0, 0, 'c0ee7df0a172ee3dc086'),
    'random24-budget8/mst/scheme/trivial/crash-recovery3': (0, 0, 'c0ee7df0a172ee3dc086'),
    'random24-budget8/mst/baseline/full-info/sync': (6, 566, '910094efd705bbe64fa6'),
    'random24-budget8/mst/baseline/full-info/traced': (6, 566, '0cfbf86ebcc55034208e'),
    'random24-budget8/mst/baseline/full-info/delta1': (12, 566, '29a7ced0341bb8762366'),
    'random24-budget8/mst/baseline/full-info/delta3-crash': (32, 597, 'a9a0ed91629e4ae75c50'),
    'random24-budget8/mst/baseline/full-info/crash-recovery3': (6, 566, '910094efd705bbe64fa6'),
    'random24-budget8/mst/baseline/ghs/sync': (8, 0, 'a0468ed52a567075bd5b'),
    'random24-budget8/mst/baseline/ghs/traced': (8, 0, 'c68e0ba0a3a73ecbcf92'),
    'random24-budget8/mst/baseline/ghs/delta1': (8, 0, 'a0468ed52a567075bd5b'),
    'random24-budget8/mst/baseline/ghs/delta3-crash': (12, 0, '977ca3aca9d98a23e388'),
    'random24-budget8/mst/baseline/ghs/crash-recovery3': (8, 0, 'a0468ed52a567075bd5b'),
    'random24-budget8/stverify/scheme/distance/sync': (1, 23, '9fd590c53e40e0d69f09'),
    'random24-budget8/stverify/scheme/distance/traced': (1, 23, 'a72e523c21afc8fc54e4'),
    'random24-budget8/stverify/scheme/distance/delta1': (2, 23, 'd2b5faabde2066383187'),
    'random24-budget8/stverify/scheme/distance/delta3-crash': (8, 25, '3eeac09ac986ee942bbe'),
    'random24-budget8/stverify/scheme/distance/crash-recovery3': (1, 23, '9fd590c53e40e0d69f09'),
    'random24-budget8/stverify/scheme/flag/sync': (7, 46, '16c6d1550c90d2d39722'),
    'random24-budget8/stverify/scheme/flag/traced': (7, 46, '13e0e56edb8272432d29'),
    'random24-budget8/stverify/scheme/flag/delta1': (14, 46, 'd1c32a2bead202c41e96'),
    'random24-budget8/stverify/scheme/flag/delta3-crash': (30, 48, 'b0b2d101161e35b5fe55'),
    'random24-budget8/stverify/scheme/flag/crash-recovery3': (7, 46, '16c6d1550c90d2d39722'),
    'random24-budget8/wakeup/scheme/spanning-tree/sync': (6, 23, 'c685a51c610d7d689042'),
    'random24-budget8/wakeup/scheme/spanning-tree/traced': (6, 23, '4886e82686b58de73fe8'),
    'random24-budget8/wakeup/scheme/spanning-tree/delta1': (10, 23, 'b2a192d07a53f4c52e83'),
    'random24-budget8/wakeup/scheme/spanning-tree/delta3-crash': (28, 24, '48164897b2f83eb9a1b5'),
    'random24-budget8/wakeup/scheme/spanning-tree/crash-recovery3': (6, 23, 'c685a51c610d7d689042'),
    'random24-budget8/wakeup/baseline/flood/sync': (4, 83, 'a8313c1492ef3efd2ad5'),
    'random24-budget8/wakeup/baseline/flood/traced': (4, 83, 'ee39d09c48b167291a68'),
    'random24-budget8/wakeup/baseline/flood/delta1': (7, 83, 'dc9b1e9fadb505c3efc8'),
    'random24-budget8/wakeup/baseline/flood/delta3-crash': (18, 84, 'cc6e40d8aa4a83deb136'),
    'random24-budget8/wakeup/baseline/flood/crash-recovery3': (4, 83, 'a8313c1492ef3efd2ad5'),
}


def test_every_engine_run_matches_its_golden_fingerprint():
    got = compute_all()
    assert got.keys() == GOLDEN.keys()
    changed = {key: (GOLDEN[key], got[key]) for key in GOLDEN if got[key] != GOLDEN[key]}
    assert not changed, changed


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, value in compute_all().items():
        print(f"    {key!r}: {value!r},")
    print("}")
