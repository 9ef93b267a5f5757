"""The synchronous round engine.

Execution proceeds exactly as in the paper's model:

1. every node program runs :meth:`~repro.simulator.algorithm.NodeProgram.init`
   (round 0, before any communication); a 0-round algorithm terminates
   here;
2. while at least one node is still running *or at least one message is
   in flight*, a new round starts: all messages sent in the previous
   round are delivered simultaneously, and every non-halted node's
   ``on_round`` is invoked with its inbox;
3. the run ends when every node has halted and no message is in flight
   (or ``max_rounds`` is hit, which is reported as a failure via
   ``completed=False`` and ``stop_reason="max_rounds"``).

The number of *rounds* reported is the number of iterations of step 2 —
so an algorithm that never sends anything uses 0 rounds, matching the
``(⌈log n⌉, 0)`` accounting of the trivial scheme.

Message accounting: every message is charged to :class:`RunMetrics` in
the round it travels, *including* messages that were sent by nodes that
then halted before anyone could receive them.  If every node halts while
messages are still in flight, the engine runs one final "flush" round
that counts those bits (CONGEST charges the wire, not the reader) and
records them as ``undelivered_messages`` — they are never handed to a
node program.  Without this flush, bits sent in the last round would
silently vanish from the CONGEST totals.

Determinism: nodes are processed in index order and delivery is a pure
function of the outboxes, so a run is a deterministic function of
(graph, programs, advice).

Performance: the run loop only schedules non-halted nodes (the active
list shrinks as nodes halt instead of being re-filtered over all ``n``
every round), tracer checks are hoisted out of the per-message delivery
loop, and :func:`~repro.simulator.message.estimate_bits` memoizes the
common payload shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.graphs.weighted_graph import PortNumberedGraph
from repro.simulator.algorithm import NodeProgram, ProgramFactory
from repro.simulator.message import estimate_bits
from repro.simulator.metrics import RunMetrics
from repro.simulator.network import Network
from repro.simulator.node import NodeContext
from repro.simulator.trace import Tracer

__all__ = ["ENGINE_VERSION", "AlgorithmError", "RunResult", "SyncEngine", "run_sync"]

#: bumped whenever the engine's execution or accounting semantics change
#: (PR 1 changed message accounting); mixed into runner cache keys so rows
#: simulated by an older engine are never served as fresh
ENGINE_VERSION = 2


class AlgorithmError(RuntimeError):
    """An exception raised inside a node program, annotated with its context.

    The engine wraps any exception escaping ``init`` or ``on_round`` so
    that the failing node and round are visible in the report — without
    this, a bug deep inside a decoder state machine surfaces as an
    anonymous stack trace with no way to tell which of the ``n``
    simulated nodes misbehaved.
    """

    def __init__(self, node: int, round_number: int, original: BaseException) -> None:
        super().__init__(
            f"node {node} failed in round {round_number}: "
            f"{type(original).__name__}: {original}"
        )
        self.node = node
        self.round_number = round_number
        self.original = original


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    #: per-node outputs (node index -> output value)
    outputs: Dict[int, Any]
    #: communication metrics
    metrics: RunMetrics
    #: whether every node halted before ``max_rounds``
    completed: bool
    #: number of nodes that never produced an output
    missing_outputs: int = 0
    #: why the run stopped: ``"completed"`` (every node halted and no
    #: message was left in flight) or ``"max_rounds"`` (the round limit
    #: was hit — including non-halting programs that never send anything,
    #: which previously spun to the limit with no distinguishable signal)
    stop_reason: str = "completed"


class SyncEngine:
    """Drives a set of node programs over a :class:`Network` synchronously.

    The accounting semantics (round 0 = init, per-round charging, the
    final flush, ``max_rounds`` truncation) are specified in
    ``docs/accounting.md`` and mirrored exactly by the analytic backend.

    >>> from repro.graphs.generators import path_graph
    >>> from repro.core.scheme_trivial import TrivialRankScheme
    >>> scheme = TrivialRankScheme()
    >>> graph = path_graph(5, seed=0)
    >>> advice = scheme.compute_advice(graph, root=0)
    >>> result = SyncEngine(graph, scheme.program_factory(), advice=advice.as_payloads()).run()
    >>> result.completed, result.stop_reason, result.metrics.rounds
    (True, 'completed', 0)
    >>> sorted(result.outputs) == list(range(5))  # one output per node
    True
    """

    def __init__(
        self,
        graph: PortNumberedGraph,
        program_factory: ProgramFactory,
        advice: Optional[Dict[int, Any]] = None,
        max_rounds: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.network = Network(graph)
        self.graph = graph
        self.advice = advice or {}
        self.max_rounds = max_rounds if max_rounds is not None else 20 * graph.n + 100
        self.tracer = tracer

        self.contexts: List[NodeContext] = []
        self.programs: List[NodeProgram] = []
        views = graph.local_views()  # one bulk conversion, not n numpy round-trips
        for u in range(graph.n):
            ctx = NodeContext(views[u], self.advice.get(u))
            self.contexts.append(ctx)
            self.programs.append(program_factory(ctx))

        self.metrics = RunMetrics(n=graph.n)

    # ------------------------------------------------------------------ #

    def run(self) -> RunResult:
        """Execute the algorithm to completion and return the results.

        The loop keeps going while a node is still running *or* a message
        is still in flight.  Messages left in flight after the last node
        halts are flushed through one final accounting round (see the
        module docstring); before this fix those bits silently vanished
        from the CONGEST totals.

        Note on stuck programs: a non-halted node is re-scheduled every
        round even with an empty inbox — fixed round schedules rely on
        this — so the engine cannot distinguish "waiting for round k"
        from "stuck forever" and runs to ``max_rounds``, reporting
        ``stop_reason="max_rounds"`` and ``completed=False``.
        """
        contexts = self.contexts
        programs = self.programs
        network = self.network
        metrics = self.metrics
        tracer = self.tracer
        n = self.graph.n

        # round 0: initialisation, no communication
        round0_traced = False
        for u in range(n):
            ctx = contexts[u]
            ctx._advance_round(0)
            self._invoke(u, 0, programs[u].init, ctx)
            if ctx.halted and tracer is not None:
                if not round0_traced:
                    # one round-0 record for the whole run, not one per
                    # halting node
                    tracer.begin_round(0)
                    round0_traced = True
                tracer.record_halt(0, u, ctx.output)

        # nodes still running, in index order (determinism) — shrinks as
        # nodes halt instead of re-scanning all n contexts every round
        active = [u for u in range(n) if not contexts[u].halted]
        on_round = [program.on_round for program in programs]
        # per-node wake-up round of the idle-scheduling hint (0 = every
        # round), seeded from hints set during init
        wake = [ctx._wake_round for ctx in contexts]
        wiring = network.wiring
        pending = self._collect_outboxes(range(n))
        round_number = 0
        stop_reason = "completed"
        while active or pending:
            # the round budget only limits *computation* rounds: when every
            # node has already halted, the remaining work is the final
            # accounting flush, which must run even at the budget boundary
            # (otherwise the last round's bits vanish and the run would
            # report completed=True with stop_reason="max_rounds")
            if active and round_number >= self.max_rounds:
                stop_reason = "max_rounds"
                break

            round_number += 1
            metrics.record_round()
            if tracer is not None:
                tracer.begin_round(round_number)

            inboxes: Dict[int, Dict[int, Any]] = {}
            if tracer is None:
                # hot path: endpoint table indexed directly, per-round
                # metric counters kept in locals and flushed once; a
                # payload broadcast to many ports is sized once per round
                # (keyed by object identity — the senders' outboxes keep
                # every payload alive for the duration of the loop)
                count = 0
                bits_sum = 0
                bits_max = 0
                size_cache: Dict[int, int] = {}
                for sender, ports in pending.items():
                    wiring_row = wiring[sender]
                    for port, payload in ports.items():
                        receiver, receiver_port = wiring_row[port]
                        inboxes.setdefault(receiver, {})[receiver_port] = payload
                        payload_id = id(payload)
                        bits = size_cache.get(payload_id)
                        if bits is None:
                            bits = estimate_bits(payload)
                            size_cache[payload_id] = bits
                        count += 1
                        bits_sum += bits
                        if bits > bits_max:
                            bits_max = bits
                if count:
                    metrics.record_round_batch(count, bits_sum, bits_max)
            else:
                for sender, ports in pending.items():
                    for port, payload in ports.items():
                        receiver, receiver_port = network.endpoint(sender, port)
                        inboxes.setdefault(receiver, {})[receiver_port] = payload
                        bits = estimate_bits(payload)
                        metrics.record_message(bits)
                        tracer.record_message(
                            round_number, sender, port, receiver, receiver_port, bits, payload
                        )

            if not active:
                # final flush: every node already halted, the in-flight
                # messages above were charged to the wire but there is no
                # one left to receive them
                metrics.record_undelivered(sum(len(ports) for ports in pending.values()))
                pending = {}
                continue

            any_halted = False
            for u in active:
                # honour the idle-scheduling hint: a node that declared
                # itself idle is only invoked early by an incoming message
                if wake[u] > round_number and u not in inboxes:
                    continue
                ctx = contexts[u]
                ctx._advance_round(round_number)
                ctx._wake_round = 0
                # direct dispatch — the program and context of *this* node
                # are bound at the call site (no late-binding closures);
                # exception wrapping is inlined to keep the per-node cost
                # at one bound-method call
                try:
                    on_round[u](ctx, inboxes.get(u, {}))
                except AlgorithmError:
                    raise
                except Exception as exc:
                    raise AlgorithmError(u, round_number, exc) from exc
                wake[u] = ctx._wake_round
                if ctx.halted:
                    any_halted = True
                    if tracer is not None:
                        tracer.record_halt(round_number, u, ctx.output)

            # drain before filtering: a node may send and then halt in the
            # same round, and those messages are still in flight
            pending = self._collect_outboxes(active)
            if any_halted:
                active = [u for u in active if not contexts[u].halted]

            # idle fast-forward: with nothing in flight and every running
            # node idling, the skipped rounds are provably message-free —
            # charge them in one batch and jump to the earliest wake-up
            # (the round budget still truncates exactly as before)
            if active and not pending and tracer is None:
                next_wake = min(wake[u] for u in active)
                target = min(next_wake - 1, self.max_rounds)
                if target > round_number:
                    metrics.record_idle_rounds(target - round_number)
                    round_number = target

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

    # ------------------------------------------------------------------ #

    def _invoke(self, node: int, round_number: int, fn: Callable[..., Any], *args: Any) -> None:
        """Run one node-program callback, wrapping failures with their context.

        The callback and its arguments are passed explicitly (not closed
        over) so that every call site binds the program and context of
        *this* node — a late-binding ``lambda`` over the loop variable
        would dispatch the wrong node the moment invocation is deferred.
        """
        try:
            fn(*args)
        except AlgorithmError:
            raise
        except Exception as exc:
            raise AlgorithmError(node, round_number, exc) from exc

    def _collect_outboxes(self, nodes) -> Dict[int, Dict[int, Any]]:
        """Drain the outboxes of ``nodes`` (only they can have sent)."""
        out: Dict[int, Dict[int, Any]] = {}
        for u in nodes:
            box = self.contexts[u]._drain_outbox()
            if box:
                out[u] = box
        return out


def run_sync(
    graph: PortNumberedGraph,
    program_factory: ProgramFactory,
    advice: Optional[Dict[int, Any]] = None,
    max_rounds: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """Convenience wrapper: build a :class:`SyncEngine` and run it."""
    return SyncEngine(
        graph, program_factory, advice=advice, max_rounds=max_rounds, tracer=tracer
    ).run()
