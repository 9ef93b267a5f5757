"""Tests of the synchronous message-passing engine."""

import pytest

from repro.core.bits import BitString
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.simulator.algorithm import FunctionalProgram, NodeProgram
from repro.simulator.engine import SyncEngine, run_sync
from repro.simulator.message import estimate_bits
from repro.simulator.network import Network
from repro.simulator.node import NodeContext


class _Silent(NodeProgram):
    """Sets its output immediately and never communicates (a 0-round algorithm)."""

    def init(self, ctx):
        ctx.halt(ctx.degree)

    def on_round(self, ctx, inbox):  # pragma: no cover - never reached
        ctx.halt()


class _PingPong(NodeProgram):
    """Each node sends its id on every port, echoes what it receives once, then stops."""

    def init(self, ctx):
        for p in ctx.ports():
            ctx.send(p, ctx.node_id)

    def on_round(self, ctx, inbox):
        if ctx.round == 1:
            ctx.set_output(sorted(inbox.values()))
            for p in inbox:
                ctx.send(p, ("ack", ctx.node_id))
        else:
            ctx.halt()


class _Forever(NodeProgram):
    """Never halts (used to test the round limit)."""

    def init(self, ctx):
        ctx.send(0, 1)

    def on_round(self, ctx, inbox):
        ctx.send(0, 1)


class _SendAndHalt(NodeProgram):
    """Every node sends on all its ports and immediately halts.

    Regression case for the final-flush accounting: all messages are in
    flight at the moment the last node halts, so without the flush round
    their bits would vanish from the CONGEST totals.
    """

    def init(self, ctx):
        for p in ctx.ports():
            ctx.send(p, 5)
        ctx.halt(ctx.node_id)

    def on_round(self, ctx, inbox):  # pragma: no cover - never reached
        ctx.halt()


class _SilentSpinner(NodeProgram):
    """Neither halts nor sends: the engine cannot prove it is stuck."""

    def init(self, ctx):
        pass

    def on_round(self, ctx, inbox):
        pass


class TestEstimateBits:
    def test_primitives(self):
        assert estimate_bits(None) == 0
        assert estimate_bits(True) == 1
        assert estimate_bits(0) == 2
        assert estimate_bits(7) == 4  # 3 magnitude bits + sign
        assert estimate_bits(1.5) == 32
        assert estimate_bits("ab") == 16
        assert estimate_bits(b"ab") == 16
        assert estimate_bits(BitString([1, 0, 1])) == 3

    def test_containers(self):
        assert estimate_bits((1, 2)) == (2 + 2) + (2 + 3)
        assert estimate_bits([True]) == 3
        assert estimate_bits({1: True}) == 2 + 2 + 1

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            estimate_bits(object())


class TestNetwork:
    def test_wiring_and_delivery(self):
        g = path_graph(3, seed=0)
        net = Network(g)
        # node 1 is in the middle: its two ports reach nodes 0 and 2
        endpoints = {net.endpoint(1, p)[0] for p in range(net.degree(1))}
        assert endpoints == {0, 2}
        inboxes = net.deliver({0: {0: "x"}})
        ((receiver, ports),) = inboxes.items()
        assert receiver == 1 and list(ports.values()) == ["x"]


class TestNodeContext:
    def test_send_validation(self):
        ctx = NodeContext(path_graph(2, seed=0).local_view(0))
        ctx.send(0, "hello")
        with pytest.raises(RuntimeError):
            ctx.send(0, "again")  # one message per port per round
        with pytest.raises(ValueError):
            ctx.send(5, "nope")
        ctx.halt("done")
        with pytest.raises(RuntimeError):
            ctx.send(0, "after halt")

    def test_halt_preserves_existing_output(self):
        ctx = NodeContext(path_graph(2, seed=0).local_view(0))
        ctx.set_output(42)
        ctx.halt()
        assert ctx.output == 42
        ctx2 = NodeContext(path_graph(2, seed=0).local_view(0))
        ctx2.halt(7)
        assert ctx2.output == 7


class TestEngine:
    def test_zero_round_algorithm(self):
        g = star_graph(6, seed=0)
        result = run_sync(g, lambda ctx: _Silent())
        assert result.completed
        assert result.metrics.rounds == 0
        assert result.metrics.total_messages == 0
        assert result.outputs[0] == 5  # the hub's degree

    def test_message_exchange_and_round_count(self):
        g = cycle_graph(5, seed=0)
        result = run_sync(g, lambda ctx: _PingPong())
        assert result.completed
        assert result.metrics.rounds == 2
        # every node heard both neighbours' ids in round 1
        for u in range(5):
            assert len(result.outputs[u]) == 2
        assert result.metrics.total_messages == 2 * 2 * 5  # two rounds of full exchange

    def test_metrics_accounting(self):
        g = path_graph(2, seed=0)
        result = run_sync(g, lambda ctx: _PingPong())
        m = result.metrics
        assert m.total_message_bits > 0
        assert m.max_message_bits <= m.total_message_bits
        assert m.max_edge_bits_per_round >= m.max_message_bits
        assert len(m.messages_per_round) == m.rounds
        assert m.congest_factor() > 0
        d = m.as_dict()
        assert d["rounds"] == m.rounds and d["n"] == 2

    def test_round_limit(self):
        g = path_graph(2, seed=0)
        result = run_sync(g, lambda ctx: _Forever(), max_rounds=10)
        assert not result.completed
        assert result.metrics.rounds == 10
        assert result.missing_outputs == 2

    def test_advice_reaches_nodes(self):
        g = path_graph(3, seed=0)
        advice = {u: BitString.from_uint(u, 4) for u in range(3)}

        def factory(ctx):
            return FunctionalProgram(init_fn=lambda c, s: c.halt(c.advice.to_uint()))

        result = run_sync(g, factory, advice=advice)
        assert result.outputs == {0: 0, 1: 1, 2: 2}

    def test_functional_program_round_fn(self):
        g = path_graph(2, seed=0)

        def init(ctx, state):
            ctx.send(0, ctx.node_id)

        def round_fn(ctx, inbox, state):
            ctx.halt(list(inbox.values())[0])

        result = run_sync(g, lambda ctx: FunctionalProgram(init, round_fn))
        assert result.outputs == {0: 1, 1: 0}

    def test_determinism(self):
        g = cycle_graph(7, seed=1)
        r1 = run_sync(g, lambda ctx: _PingPong())
        r2 = run_sync(g, lambda ctx: _PingPong())
        assert r1.outputs == r2.outputs
        assert r1.metrics.as_dict() == r2.metrics.as_dict()

    def test_zero_round_stop_reason(self):
        result = run_sync(star_graph(4, seed=0), lambda ctx: _Silent())
        assert result.stop_reason == "completed"
        assert result.metrics.undelivered_messages == 0

    def test_final_round_messages_are_accounted(self):
        # all nodes halt in init while sending: 2 directed messages per
        # edge are in flight with nobody left to receive them
        g = path_graph(3, seed=0)
        result = run_sync(g, lambda ctx: _SendAndHalt())
        assert result.completed
        assert result.stop_reason == "completed"
        m = result.metrics
        # path on 3 nodes: 2 edges -> 4 directed messages, each 5 -> 4 bits
        assert m.total_messages == 4
        assert m.total_message_bits == 4 * 4
        assert m.max_edge_bits_per_round == 4
        assert m.undelivered_messages == 4
        # the flush occupies one wire round
        assert m.rounds == 1
        assert m.messages_per_round == [4]
        # but the outputs are the ones set before halting
        assert result.outputs == {u: g.node_id(u) for u in range(3)}

    def test_send_and_halt_with_tracer_matches_metrics(self):
        from repro.simulator.trace import Tracer

        tracer = Tracer()
        result = run_sync(path_graph(3, seed=0), lambda ctx: _SendAndHalt(), tracer=tracer)
        assert result.metrics.total_messages == 4
        assert tracer.summary()["total_messages"] == 4
        assert tracer.summary()["total_bits"] == result.metrics.total_message_bits
        # all round-0 halts share one round record (not one record per node)
        assert tracer.num_rounds() == 2
        assert tracer.rounds[0].halted == [0, 1, 2]

    def test_non_halting_non_sending_program_reports_max_rounds(self):
        result = run_sync(path_graph(2, seed=0), lambda ctx: _SilentSpinner(), max_rounds=7)
        assert not result.completed
        assert result.stop_reason == "max_rounds"
        assert result.metrics.rounds == 7
        assert result.missing_outputs == 2
        assert result.metrics.total_messages == 0

    def test_round_limit_stop_reason(self):
        result = run_sync(path_graph(2, seed=0), lambda ctx: _Forever(), max_rounds=5)
        assert result.stop_reason == "max_rounds"
        assert not result.completed

    def test_flush_runs_even_at_the_round_budget_boundary(self):
        # all nodes halt (sending) exactly when the budget is exhausted:
        # the accounting flush is not a computation round, so it must
        # still run — otherwise the final bits vanish and the result
        # would claim completed=True with stop_reason="max_rounds"
        class SendThreeRounds(NodeProgram):
            def init(self, ctx):
                ctx.send(0, 1)

            def on_round(self, ctx, inbox):
                ctx.send(0, 1)
                if ctx.round == 3:
                    ctx.halt(ctx.node_id)

        tight = run_sync(path_graph(2, seed=0), lambda ctx: SendThreeRounds(), max_rounds=3)
        loose = run_sync(path_graph(2, seed=0), lambda ctx: SendThreeRounds(), max_rounds=10)
        assert tight.completed and tight.stop_reason == "completed"
        assert tight.metrics.total_messages == loose.metrics.total_messages == 8
        assert tight.metrics.undelivered_messages == 2

    def test_tracer_halt_records(self):
        from repro.simulator.trace import Tracer

        tracer = Tracer()
        result = run_sync(cycle_graph(5, seed=0), lambda ctx: _PingPong(), tracer=tracer)
        assert result.completed
        # every node halted in round 2, and the tracer saw each of them
        for u in range(5):
            assert tracer.halt_round_of(u) == 2

    def test_per_node_dispatch_binding(self):
        # regression for the late-binding lambda bug: every node's program
        # must be invoked with *its own* context, so outputs are per-node
        g = star_graph(6, seed=0)

        class Who(NodeProgram):
            def init(self, ctx):
                ctx.halt((ctx.node_id, ctx.degree))

            def on_round(self, ctx, inbox):  # pragma: no cover
                ctx.halt()

        result = run_sync(g, lambda ctx: Who())
        assert len({out for out in result.outputs.values()}) >= 2
        assert result.outputs[0][1] == 5  # the hub's degree, not a neighbour's

    def test_halted_nodes_do_not_act(self):
        g = path_graph(2, seed=0)

        class HaltEarly(NodeProgram):
            def init(self, ctx):
                if ctx.node_id == 0:
                    ctx.halt("early")
                else:
                    ctx.send(0, "to the halted node")

            def on_round(self, ctx, inbox):
                ctx.halt(("late", tuple(inbox.values())))

        result = run_sync(g, lambda ctx: HaltEarly())
        assert result.outputs[0] == "early"
        assert result.outputs[1] == ("late", ())


class TestIdleSchedulingEdgeCases:
    """The idle fast-forward's corner cases, pinned directly.

    These paths were previously exercised only through golden reports
    (the GHS baseline is the heaviest idle_until user); here each edge
    is hit with a purpose-built two-node program.
    """

    def test_idle_until_a_past_round_is_a_no_op(self):
        # a hint for a round that already passed must not skip anything:
        # the node keeps being invoked every round
        invocations = []

        class StaleHint(NodeProgram):
            def init(self, ctx):
                pass

            def on_round(self, ctx, inbox):
                invocations.append((ctx.node_id, ctx.round))
                ctx.idle_until(max(ctx.round - 3, 0))  # always in the past
                if ctx.round == 4:
                    ctx.halt(ctx.round)

        result = run_sync(path_graph(2, seed=0), lambda ctx: StaleHint())
        assert result.completed
        assert [r for node, r in invocations if node == 0] == [1, 2, 3, 4]
        assert result.metrics.rounds == 4

    def test_idle_hint_in_init_is_honoured(self):
        # a hint set during init seeds the engine's wake-up round: with
        # nothing in flight, neither node is invoked before round 10
        from repro.simulator.adversary import AdversaryEngine

        rounds_seen = []

        class HintInInit(NodeProgram):
            def init(self, ctx):
                ctx.idle_until(10)

            def on_round(self, ctx, inbox):
                rounds_seen.append(ctx.round)
                ctx.halt(ctx.round)

        g = path_graph(2, seed=0)
        result = run_sync(g, lambda ctx: HintInInit())
        assert result.completed
        assert rounds_seen == [10, 10]  # both nodes first invoked in round 10
        assert result.outputs == {0: 10, 1: 10}
        assert result.metrics.rounds == 10
        assert result.metrics.messages_per_round == [0] * 10

        rounds_seen.clear()
        null = AdversaryEngine(g, lambda ctx: HintInInit()).run()
        assert rounds_seen == [10, 10]
        assert null == result

    def test_idle_skip_charges_exactly_the_skipped_rounds(self):
        class SleepThenHalt(NodeProgram):
            def init(self, ctx):
                pass

            def on_round(self, ctx, inbox):
                if ctx.round == 1:
                    ctx.idle_until(10)
                else:
                    assert ctx.round == 10  # never invoked during the skip
                    ctx.halt(ctx.round)

        result = run_sync(path_graph(2, seed=0), lambda ctx: SleepThenHalt())
        assert result.completed
        assert result.outputs == {0: 10, 1: 10}
        m = result.metrics
        assert m.rounds == 10
        assert m.total_messages == 0
        # the skipped rounds appear as explicit zero-message entries
        assert m.messages_per_round == [0] * 10

    def test_idle_across_the_final_flush(self):
        # one node sends and halts immediately; the other sleeps past the
        # flush round.  The flush must charge the undelivered bits in wire
        # round 1 and the sleeper must still wake at its hinted round.
        class SendOrSleep(NodeProgram):
            def init(self, ctx):
                if ctx.node_id == 0:
                    for p in ctx.ports():
                        ctx.send(p, 7)
                    ctx.halt("sender")
                else:
                    ctx.idle_until(5)

            def on_round(self, ctx, inbox):
                if inbox:
                    # the in-flight message wakes the sleeper in round 1,
                    # before its hinted round
                    ctx.halt(("woken", ctx.round))
                else:  # pragma: no cover - the wake-on-message path wins
                    ctx.halt(("timer", ctx.round))

        result = run_sync(path_graph(2, seed=0), lambda ctx: SendOrSleep())
        assert result.completed
        assert result.outputs[1] == ("woken", 1)
        assert result.metrics.undelivered_messages == 0

    def test_idle_rounds_and_undelivered_messages_compose(self):
        # idle skip first, then a flush with undelivered bits: both
        # record_idle_rounds and record_undelivered must land in the
        # metrics of the same run
        class LateSender(NodeProgram):
            def init(self, ctx):
                pass

            def on_round(self, ctx, inbox):
                if ctx.round == 1:
                    ctx.idle_until(4)
                    return
                # both nodes wake in round 4, send, and halt: the messages
                # are in flight with nobody left to read them
                for p in ctx.ports():
                    ctx.send(p, 9)
                ctx.halt(ctx.round)

        result = run_sync(path_graph(2, seed=0), lambda ctx: LateSender())
        assert result.completed
        m = result.metrics
        # round 1 computes the hint, rounds 2-3 idle, round 4 computes,
        # round 5 is the flush
        assert m.rounds == 5
        assert m.messages_per_round == [0, 0, 0, 0, 2]
        assert m.total_messages == 2
        assert m.undelivered_messages == 2

    def test_adversary_engine_idle_fast_forward_matches_sync(self):
        # the adversary advances its logical and physical clocks together
        # through an idle skip; at the null fault the skip is identical
        from repro.simulator.adversary import AdversaryEngine

        class SleepPingHalt(NodeProgram):
            def init(self, ctx):
                pass

            def on_round(self, ctx, inbox):
                if ctx.round == 1:
                    ctx.idle_until(6)
                elif ctx.round == 6:
                    for p in ctx.ports():
                        ctx.send(p, ctx.node_id)
                    ctx.idle_until(8)
                else:
                    ctx.halt(sorted(inbox.values()))

        g = cycle_graph(4, seed=1)
        sync = SyncEngine(g, lambda ctx: SleepPingHalt()).run()
        null = AdversaryEngine(g, lambda ctx: SleepPingHalt()).run()
        assert null == sync
        assert sync.metrics.rounds == 7
