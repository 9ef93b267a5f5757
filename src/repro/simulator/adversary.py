"""Adversarial execution: bounded delays, crash/recovery, weight churn.

The synchronous engine of :mod:`repro.simulator.engine` executes the
paper's idealised model: every message travels exactly one round and no
node ever fails.  :class:`AdversaryEngine` re-runs the *same* node
programs under a seeded adversary that

* delays every message by up to ``delta`` rounds (bounded asynchrony —
  each delay is drawn from the task-seeded RNG, so runs cache and
  resume like everything else),
* crashes ``floor(crash_rate * n)`` nodes at scheduled rounds; a
  crashed node is down for ``recovery`` rounds, drops every message in
  flight to or from it, and then restarts from its persisted local
  state (node-program state survives the crash, exactly like a process
  restarting from a write-ahead log), and
* for the MST problem, perturbs edge weights after the run and charges
  an incremental repair + re-verification of the output
  (:func:`apply_churn`).

Execution style: a *global-barrier synchronizer*.  Logical rounds —
the rounds the node programs observe through ``ctx.round`` — proceed in
lockstep: round ``L + 1`` is not invoked until every message of round
``L`` has been delivered and every node due to act is back up.  Dropped
messages are retransmitted by the transport layer after the downtime
(and re-charged: CONGEST charges the wire per attempt).  The logical
execution is therefore *identical* to the synchronous run — same
decisions, same outputs — and the faults surface exactly where the
paper's accounting looks: :class:`~repro.simulator.metrics.RunMetrics`
counts **physical** rounds and per-attempt messages, so delay bounds
inflate the round count and crashes inflate the message count.  That is
what makes degradation curves comparable across schemes: every scheme
still terminates and verifies, and the curve shows the price of the
fault model, not a mixture of price and failure.

``max_rounds`` keeps its synchronous meaning (it bounds *logical*
rounds), so a faulty run never spuriously reports ``max_rounds`` just
because delays stretched physical time.

The invariant everything hangs on: with ``delta = 0`` and an empty
fault schedule the engine executes the synchronous loop step for step —
same metrics calls in the same order, same outputs, same stop reason.
``tests/test_adversary.py`` pins this byte-identity over every
(problem, scheme/baseline) registry pair.

>>> from repro.graphs.generators import random_connected_graph
>>> from repro.core.scheme_trivial import TrivialRankScheme
>>> from repro.simulator.engine import SyncEngine
>>> scheme = TrivialRankScheme()
>>> graph = random_connected_graph(16, 0.1, seed=3)
>>> payloads = scheme.compute_advice(graph, root=0).as_payloads()
>>> sync = SyncEngine(graph, scheme.program_factory(), advice=payloads).run()
>>> null = AdversaryEngine(graph, scheme.program_factory(), advice=payloads).run()
>>> null == sync  # delta=0, no faults: byte-identical to the synchronous engine
True
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.graphs.weighted_graph import PortNumberedGraph
from repro.simulator.algorithm import ProgramFactory
from repro.simulator.engine import AlgorithmError, RunResult, SyncEngine
from repro.simulator.message import estimate_bits
from repro.simulator.metrics import RunMetrics

__all__ = [
    "ADVERSARY_VERSION",
    "AdversaryEngine",
    "FaultSpec",
    "apply_churn",
    "derive_fault_seed",
    "run_adversary",
]

#: bumped whenever the adversary's scheduling or accounting semantics
#: change; mixed into the cache key of every faulty task (fault-free
#: tasks never include it, so bumping this cannot invalidate them)
ADVERSARY_VERSION = 1

#: hard ceiling of the crash fraction — the fault-injection test matrix
#: promises correctness for up to ``floor(n / 4)`` crashed nodes
MAX_CRASH_RATE = 0.25


@dataclass(frozen=True)
class FaultSpec:
    """A declarative, hashable description of one adversarial execution.

    The default instance is the *null* fault (``delta=0``, no crashes,
    no churn): tasks carrying it are normalised to fault-free tasks, so
    the null point of a robustness grid shares cache rows — and bytes —
    with the synchronous sweeps.

    >>> FaultSpec().is_null
    True
    >>> FaultSpec(delta=2).is_null
    False
    >>> FaultSpec(crash_rate=0.5)
    Traceback (most recent call last):
        ...
    ValueError: crash_rate must be a fraction in [0, 0.25], got 0.5
    """

    #: every message is delivered within ``delta`` extra rounds (0 = none)
    delta: int = 0
    #: fraction of nodes crashed once during the run (``<= 0.25``, i.e.
    #: at most ``floor(n / 4)`` nodes)
    crash_rate: float = 0.0
    #: rounds a crashed node stays down before restarting
    recovery: int = 2
    #: number of post-run edge-weight perturbation events (MST only)
    churn: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.delta, int) or isinstance(self.delta, bool) or self.delta < 0:
            raise ValueError(f"delta must be a non-negative int, got {self.delta!r}")
        rate = self.crash_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not (
            0.0 <= float(rate) <= MAX_CRASH_RATE
        ):
            raise ValueError(
                f"crash_rate must be a fraction in [0, {MAX_CRASH_RATE}], got {rate!r}"
            )
        object.__setattr__(self, "crash_rate", float(rate))
        if not isinstance(self.recovery, int) or isinstance(self.recovery, bool) or self.recovery < 1:
            raise ValueError(f"recovery must be a positive int, got {self.recovery!r}")
        if not isinstance(self.churn, int) or isinstance(self.churn, bool) or self.churn < 0:
            raise ValueError(f"churn must be a non-negative int, got {self.churn!r}")

    @property
    def is_null(self) -> bool:
        """Whether this spec describes the fault-free synchronous model."""
        return self.delta == 0 and self.crash_rate == 0.0 and self.churn == 0

    def key_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able content for cache hashing.

        Includes :data:`ADVERSARY_VERSION` so a semantic change to the
        adversary invalidates exactly the faulty cached rows.
        """
        return {
            "delta": self.delta,
            "crash_rate": self.crash_rate,
            "recovery": self.recovery,
            "churn": self.churn,
            "adversary_version": ADVERSARY_VERSION,
        }


def derive_fault_seed(seed: int, fault: FaultSpec, tag: str = "engine") -> int:
    """A deterministic RNG seed from the task seed and the fault content.

    Hashing (rather than using ``seed`` directly) keeps the adversary's
    stream independent of the graph generator's — the same task seed
    must not correlate the topology with the fault schedule — and ties
    the stream to the fault content, so two specs differing only in
    ``delta`` draw unrelated schedules.
    """
    blob = (
        f"{tag}:{seed}:{fault.delta}:{fault.crash_rate!r}:"
        f"{fault.recovery}:{fault.churn}"
    )
    return int.from_bytes(hashlib.sha256(blob.encode("utf-8")).digest()[:8], "big")


class AdversaryEngine(SyncEngine):
    """Drives node programs under seeded delays and crash/recovery.

    A drop-in sibling of :class:`~repro.simulator.engine.SyncEngine`
    (same constructor contract minus the tracer, same
    :class:`~repro.simulator.engine.RunResult`): the node programs, the
    advice, and the verifier are all unaware they ran under an
    adversary.  See the module docstring for the execution model.
    """

    def __init__(
        self,
        graph: PortNumberedGraph,
        program_factory: ProgramFactory,
        advice: Optional[Dict[int, Any]] = None,
        max_rounds: Optional[int] = None,
        fault: Optional[FaultSpec] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(graph, program_factory, advice=advice, max_rounds=max_rounds)
        self.fault = fault if fault is not None else FaultSpec()
        self._rng = random.Random(derive_fault_seed(seed, self.fault))
        # the crash schedule is drawn up front (fixed draw order: victims,
        # then one crash round per victim) so the delay stream consumed
        # during the run cannot shift it
        n = graph.n
        crashes = int(self.fault.crash_rate * n)
        self._crash_at: Dict[int, int] = {}
        if crashes:
            window = 2 * max(1, math.ceil(math.log2(max(n, 2)))) + 2
            for u in sorted(self._rng.sample(range(n), crashes)):
                self._crash_at[u] = self._rng.randint(1, window)

    # ------------------------------------------------------------------ #

    def _down_end(self, node: int, physical: int) -> int:
        """Last down round of ``node`` if it is down at ``physical``, else 0."""
        start = self._crash_at.get(node)
        if start is not None and start <= physical < start + self.fault.recovery:
            return start + self.fault.recovery - 1
        return 0

    def run(self) -> RunResult:
        """Execute to completion under the fault schedule.

        The loop mirrors :meth:`SyncEngine.run` exactly — round 0 init,
        per-round charging, final flush, ``max_rounds`` truncation, idle
        fast-forward — with one generalisation: a logical round's
        delivery phase may span several charged physical rounds.  With
        ``delta = 0`` and no crashes the span is always exactly one
        round and the two engines are byte-identical.
        """
        contexts = self.contexts
        programs = self.programs
        metrics = self.metrics
        n = self.graph.n
        delta = self.fault.delta
        rng = self._rng
        crash_at = self._crash_at

        # round 0: initialisation, no communication (identical to sync)
        for u in range(n):
            ctx = contexts[u]
            ctx._advance_round(0)
            self._invoke(u, 0, programs[u].init, ctx)

        active = [u for u in range(n) if not contexts[u].halted]
        on_round = [program.on_round for program in programs]
        wake = [ctx._wake_round for ctx in contexts]
        wiring = self.network.wiring
        pending = self._collect_outboxes(range(n))
        logical = 0  # the synchronous round being emulated (ctx.round)
        physical = 0  # charged rounds; invariant: physical == metrics.rounds
        stop_reason = "completed"
        while active or pending:
            # the round budget bounds *logical* computation rounds, so a
            # faulty run can never hit it merely because delays stretched
            # physical time; the final flush still runs at the boundary
            if active and logical >= self.max_rounds:
                stop_reason = "max_rounds"
                break
            logical += 1

            # ---- flatten this logical round's traffic, drawing one
            #      delivery delay per message in sender/port order ----
            in_flight: List[List[Any]] = []
            size_cache: Dict[int, int] = {}
            for sender, ports in pending.items():
                wiring_row = wiring[sender]
                for port, payload in ports.items():
                    receiver, receiver_port = wiring_row[port]
                    payload_id = id(payload)
                    bits = size_cache.get(payload_id)
                    if bits is None:
                        bits = estimate_bits(payload)
                        size_cache[payload_id] = bits
                    d = rng.randint(0, delta) if delta else 0
                    in_flight.append(
                        [physical + 1 + d, sender, receiver, receiver_port, payload, bits]
                    )

            if not active:
                # final flush: every node already halted; the in-flight
                # bits are charged to the wire in one accounting round
                # (delays cannot reorder anything nobody will read)
                physical += 1
                metrics.record_round()
                if in_flight:
                    metrics.record_round_batch(
                        len(in_flight),
                        sum(msg[5] for msg in in_flight),
                        max(msg[5] for msg in in_flight),
                    )
                metrics.record_undelivered(len(in_flight))
                pending = {}
                continue

            # ---- physical delivery: tick charged rounds until every
            #      message of this logical round has landed ----
            inboxes: Dict[int, Dict[int, Any]] = {}
            first_tick = True
            while in_flight or first_tick:
                first_tick = False
                physical += 1
                metrics.record_round()
                count = 0
                bits_sum = 0
                bits_max = 0
                survivors: List[List[Any]] = []
                for msg in in_flight:
                    if msg[0] != physical:
                        survivors.append(msg)
                        continue
                    # the attempt travels — and is charged — whether or
                    # not a crash drops it: CONGEST charges the wire
                    bits = msg[5]
                    count += 1
                    bits_sum += bits
                    if bits > bits_max:
                        bits_max = bits
                    blocked = 0
                    if crash_at:
                        blocked = max(
                            self._down_end(msg[2], physical),
                            self._down_end(msg[1], physical),
                        )
                    if blocked:
                        # dropped by the crash; the transport layer
                        # retransmits after the downtime with a fresh delay
                        msg[0] = blocked + 1 + (rng.randint(0, delta) if delta else 0)
                        survivors.append(msg)
                    else:
                        inboxes.setdefault(msg[2], {})[msg[3]] = msg[4]
                in_flight = survivors
                if count:
                    metrics.record_round_batch(count, bits_sum, bits_max)

            # ---- barrier: wait (in charged empty rounds) until every
            #      node due to act this logical round is back up ----
            if crash_at:
                while any(
                    (wake[u] <= logical or u in inboxes)
                    and self._down_end(u, physical)
                    for u in active
                ):
                    physical += 1
                    metrics.record_round()

            # ---- invoke the logical round; crashed nodes restarted from
            #      their persisted state (program objects live on) ----
            any_halted = False
            for u in active:
                if wake[u] > logical and u not in inboxes:
                    continue
                ctx = contexts[u]
                ctx._advance_round(logical)
                ctx._wake_round = 0
                try:
                    on_round[u](ctx, inboxes.get(u, {}))
                except AlgorithmError:
                    raise
                except Exception as exc:
                    raise AlgorithmError(u, logical, exc) from exc
                wake[u] = ctx._wake_round
                if ctx.halted:
                    any_halted = True

            # drain before filtering: a node may send and then halt
            pending = self._collect_outboxes(active)
            if any_halted:
                active = [u for u in active if not contexts[u].halted]

            # idle fast-forward: message-free logical rounds cost exactly
            # one physical round each, so the skip advances both clocks
            # (crash windows inside the skip touch neither messages nor
            # invocations; a node still down at its wake round is caught
            # by the pre-invocation barrier above)
            if active and not pending:
                next_wake = min(wake[u] for u in active)
                target = min(next_wake - 1, self.max_rounds)
                if target > logical:
                    metrics.record_idle_rounds(target - logical)
                    physical += target - logical
                    logical = target

        outputs = {u: contexts[u].output for u in range(n)}
        missing = sum(1 for ctx in contexts if not ctx.has_output)
        completed = all(ctx.halted for ctx in contexts)
        return RunResult(
            outputs=outputs,
            metrics=self.metrics,
            completed=completed,
            missing_outputs=missing,
            stop_reason=stop_reason,
        )


def run_adversary(
    graph: PortNumberedGraph,
    program_factory: ProgramFactory,
    advice: Optional[Dict[int, Any]] = None,
    max_rounds: Optional[int] = None,
    fault: Optional[FaultSpec] = None,
    seed: int = 0,
) -> RunResult:
    """Convenience wrapper: build an :class:`AdversaryEngine` and run it."""
    return AdversaryEngine(
        graph, program_factory, advice=advice, max_rounds=max_rounds, fault=fault, seed=seed
    ).run()


# --------------------------------------------------------------------------- #
# edge-weight churn: perturb, incrementally repair, re-verify
# --------------------------------------------------------------------------- #


def _churned_instance(graph: PortNumberedGraph, weights: np.ndarray) -> PortNumberedGraph:
    """Rebuild ``graph`` with new edge weights and *identical* ports.

    The port assignment is reconstructed into the constructor's flat
    per-slot table, so per-node port numbers — and therefore the
    decoder's parent-port outputs — keep their meaning on the churned
    instance.
    """
    m = graph.m
    offsets = graph._offsets
    endpoints = np.empty(2 * m, dtype=np.int64)
    endpoints[0::2] = graph.edge_u
    endpoints[1::2] = graph.edge_v
    order = np.argsort(endpoints, kind="stable")
    ranks = np.empty(2 * m, dtype=np.int64)
    ranks[order] = np.arange(2 * m) - offsets[endpoints[order]]
    table = np.empty(2 * m, dtype=np.int64)
    table[offsets[graph.edge_u] + ranks[0::2]] = graph.edge_port_u
    table[offsets[graph.edge_v] + ranks[1::2]] = graph.edge_port_v
    return PortNumberedGraph(
        graph.n,
        (graph.edge_u, graph.edge_v, weights),
        node_ids=graph.node_ids,
        port_permutations=table,
    )


def apply_churn(
    graph: PortNumberedGraph,
    root: int,
    check: Any,
    fault: FaultSpec,
    seed: int,
    metrics: RunMetrics,
) -> Any:
    """Perturb ``fault.churn`` edge weights and repair the verified tree.

    ``check`` must be the passing MST verdict of the fault-free output
    (it carries the tree edge ids).  Each churn event multiplies one
    seeded edge's weight by a seeded factor in ``[0.5, 2)`` and repairs
    the tree incrementally, exactly as a distributed protocol would:

    * a *heavier tree edge* triggers a cut search — the detached subtree
      probes its incident edges and convergecasts the cheapest
      replacement (charged: one message per probed edge plus one per
      subtree node; subtree height + 1 rounds);
    * a *lighter non-tree edge* triggers a cycle walk — a token walks
      the tree path between the endpoints looking for a heavier edge to
      evict (charged: one message and one round per path hop);
    * a lighter tree edge or heavier non-tree edge is benign (the MST
      is unchanged) and costs nothing.

    Single-swap repair after a single weight change is exact, so the
    repaired tree is re-verified — not assumed — against a fresh
    Kruskal MST of the churned instance.  Returns the new
    :class:`~repro.core.problem.OutputCheck` and charges the repair
    traffic into ``metrics``.
    """
    from repro.core.problem import get_problem
    from repro.mst.rooted_tree import build_rooted_tree

    rng = random.Random(derive_fault_seed(seed, fault, tag="churn"))
    m = graph.m
    weights = graph.edge_w.astype(np.float64).copy()
    tree_edges = set(int(e) for e in check.tree_edge_ids)
    tree = build_rooted_tree(graph, sorted(tree_edges), root=root)
    neighbors, edge_ids = graph.adjacency_tables()
    per_message_bits = estimate_bits((max(0, m - 1), 1.0))
    rounds_charged = 0
    messages_charged = 0

    for _ in range(fault.churn):
        e = rng.randrange(m)
        factor = rng.uniform(0.5, 2.0)
        old_w = float(weights[e])
        new_w = old_w * factor
        weights[e] = new_w
        u = int(graph.edge_u[e])
        v = int(graph.edge_v[e])
        if e in tree_edges and new_w > old_w:
            # cut repair: the child-side subtree looks for the cheapest
            # edge leaving the cut (possibly still e itself)
            child = u if tree.parent_edge[u] == e else v
            sub = tree.subtree_nodes(child)
            sub_set = set(sub)
            best = None
            examined = 0
            for x in sub:
                for eid in edge_ids[x]:
                    examined += 1
                    eu = int(graph.edge_u[eid])
                    other = int(graph.edge_v[eid]) if eu == x else eu
                    if other in sub_set:
                        continue
                    key = (float(weights[eid]), eid)
                    if best is None or key < best:
                        best = key
            height = max(tree.depth[x] for x in sub) - tree.depth[child] + 1
            rounds_charged += height + 1
            messages_charged += examined + len(sub)
            if best is not None and best < (new_w, e):
                tree_edges.discard(e)
                tree_edges.add(best[1])
                tree = build_rooted_tree(graph, sorted(tree_edges), root=root)
        elif e not in tree_edges and new_w < old_w:
            # cycle repair: walk the tree path between the endpoints and
            # evict the heaviest edge if the churned edge now beats it
            path_u = tree.path_to_root(u)
            on_u = {x: i for i, x in enumerate(path_u)}
            path_v = tree.path_to_root(v)
            lca_v = next(i for i, x in enumerate(path_v) if x in on_u)
            cycle_nodes = path_u[: on_u[path_v[lca_v]]] + path_v[:lca_v]
            worst = None
            for x in cycle_nodes:
                eid = int(tree.parent_edge[x])
                key = (float(weights[eid]), eid)
                if worst is None or key > worst:
                    worst = key
            rounds_charged += len(cycle_nodes) + 1
            messages_charged += len(cycle_nodes) + 1
            if worst is not None and (new_w, e) < worst:
                tree_edges.discard(worst[1])
                tree_edges.add(e)
                tree = build_rooted_tree(graph, sorted(tree_edges), root=root)
        # else: benign event — the MST is provably unchanged

    churned = _churned_instance(graph, weights)
    final_tree = build_rooted_tree(churned, sorted(tree_edges), root=root)
    outputs = final_tree.expected_outputs()
    new_check = get_problem("mst").check_outputs(churned, outputs, expected_root=root)

    # charge the repair traffic: rounds append to the run, messages are
    # CONGEST-sized (an edge id and a weight), all landed in the final
    # repair round of the histogram
    metrics.rounds += rounds_charged
    metrics.total_messages += messages_charged
    metrics.total_message_bits += messages_charged * per_message_bits
    if messages_charged:
        if per_message_bits > metrics.max_message_bits:
            metrics.max_message_bits = per_message_bits
        if per_message_bits > metrics.max_edge_bits_per_round:
            metrics.max_edge_bits_per_round = per_message_bits
    if rounds_charged:
        metrics.messages_per_round.extend([0] * (rounds_charged - 1))
        metrics.messages_per_round.append(messages_charged)
    return new_check
