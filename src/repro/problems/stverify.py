"""Spanning-tree verification: accept the candidate tree or reject it.

The classical problem hands every node a candidate set of incident tree
edges and asks the network to decide, jointly, whether the candidate is
a spanning tree.  Famously, one extra bit of advice per node changes
the landscape: distances-to-root advice (``O(log n)`` bits) lets every
node check consistency with its tree neighbours in **one round**, while
a minimal flag encoding needs only the tree itself but pays for it with
a root-to-leaf token wave (**depth + 1** rounds).  The two schemes below
realise exactly that correctness/round trade-off.

Framework deviation (analogous to D1/D2 in DESIGN.md): instances here
are plain weighted graphs, so the candidate tree itself travels inside
the advice — the oracle encodes each node's parent port in the reference
rooted MST.  The reported bit counts therefore *include* the tree
encoding (about ``log n`` bits per node); the schemes differ in what
they add on top: the distance scheme spends another ``~log n`` bits on
depths to finish in one round, the flag scheme adds nothing and spends
rounds instead.  A decoder that detects an inconsistency outputs
:data:`REJECT_OUTPUT`; with an honest oracle every run accepts, and the
soundness direction (corrupted advice gets rejected or times out) is
exercised by the test-suite.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.advice import AdviceAssignment
from repro.core.bits import BitReader, BitString, BitWriter
from repro.core.oracle import AdvisingScheme
from repro.core.problem import OutputCheck, Problem, register_problem
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.kruskal import kruskal_mst
from repro.mst.rooted_tree import ROOT_OUTPUT, build_rooted_tree
from repro.problems.verify import check_outputs
from repro.problems.wakeup import port_width
from repro.simulator.algorithm import NodeProgram, ProgramFactory
from repro.simulator.node import NodeContext

__all__ = [
    "REJECT_OUTPUT",
    "StDistanceScheme",
    "StFlagScheme",
    "StVerifyProblem",
]

#: output of a node that detected an inconsistency in the candidate tree
REJECT_OUTPUT = "reject"

#: the child-announcement and token payloads of the flag scheme
_CHILD = "c"
_TOKEN = "t"


# ---------------------------------------------------------------------- #
# the one-round scheme: verify advised depths
# ---------------------------------------------------------------------- #


class _DistanceProgram(NodeProgram):
    """Send my depth up the tree; check my children claim depth + 1."""

    def __init__(self) -> None:
        self._parent_port = ROOT_OUTPUT
        self._depth = 0

    def init(self, ctx: NodeContext) -> None:
        advice: BitString = ctx.advice if ctx.advice is not None else BitString.empty()
        reader = BitReader(advice)
        if (not reader.at_end()) and reader.read_bit() == 1:
            self._parent_port = ROOT_OUTPUT
            self._depth = 0
        else:
            self._parent_port = reader.read_uint(port_width(ctx.degree))
            self._depth = reader.read_uint(reader.remaining)
            ctx.send(self._parent_port, self._depth)

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        # the inbox holds the advised depths of exactly my tree children
        if all(claimed == self._depth + 1 for claimed in inbox.values()):
            ctx.halt(self._parent_port)
        else:
            ctx.halt(REJECT_OUTPUT)


class StDistanceScheme(AdvisingScheme):
    """The one-round scheme: parent port plus depth, ``O(log n)`` bits.

    Every node tells its parent its advised depth; a node accepts iff
    every claim it hears is its own depth plus one.  Depths strictly
    decrease along accepted parent pointers down to the root's 0, so no
    cycle can survive the check — one round, ``n - 1`` messages.

    >>> from repro.core.oracle import run_scheme
    >>> from repro.graphs.generators import random_connected_graph
    >>> report = run_scheme(StDistanceScheme(), random_connected_graph(32, 0.1, seed=1))
    >>> report.correct, report.rounds
    (True, 1)
    """

    name = "st-distance"
    problem = "stverify"

    def compute_advice(self, graph: PortNumberedGraph, root: int = 0) -> AdviceAssignment:
        tree = build_rooted_tree(graph, kruskal_mst(graph), root=root)
        depth_width = max(1, int(tree.depth.max()).bit_length())
        degrees = graph._degrees.tolist()
        parent_port = tree.parent_port.tolist()
        depth = tree.depth.tolist()
        strings = []
        for u in range(graph.n):
            writer = BitWriter()
            if u == root:
                writer.write_bit(1)
            else:
                writer.write_bit(0)
                writer.write_uint(parent_port[u], port_width(int(degrees[u])))
                writer.write_uint(depth[u], depth_width)
            strings.append(writer.getvalue())
        return AdviceAssignment.from_strings(strings)

    def program_factory(self) -> ProgramFactory:
        return lambda ctx: _DistanceProgram()

    def advice_bound_bits(self, n: int) -> float:
        parent_bits = (n - 2).bit_length() if n > 2 else 0
        depth_bits = max(1, (n - 1).bit_length()) if n > 1 else 1
        return float(1 + parent_bits + depth_bits)

    def round_bound(self, n: int) -> float:
        return 1.0


# ---------------------------------------------------------------------- #
# the minimal scheme: verify by a token wave
# ---------------------------------------------------------------------- #


class _FlagProgram(NodeProgram):
    """Learn my children, then wait for the root's token to reach me."""

    def __init__(self) -> None:
        self._parent_port = ROOT_OUTPUT
        self._is_root = False
        self._child_ports: List[int] = []

    def init(self, ctx: NodeContext) -> None:
        advice: BitString = ctx.advice if ctx.advice is not None else BitString.empty()
        reader = BitReader(advice)
        self._is_root = (not reader.at_end()) and reader.read_bit() == 1
        if not self._is_root:
            self._parent_port = reader.read_uint(port_width(ctx.degree))
            ctx.send(self._parent_port, _CHILD)

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        if ctx.round == 1:
            # round 1 delivers exactly the child announcements
            self._child_ports = sorted(inbox)
            if self._is_root:
                for port in self._child_ports:
                    ctx.send(port, _TOKEN)
                ctx.halt(ROOT_OUTPUT)
            return
        if inbox.get(self._parent_port) == _TOKEN:
            for port in self._child_ports:
                ctx.send(port, _TOKEN)
            ctx.halt(self._parent_port)


class StFlagScheme(AdvisingScheme):
    """The minimal scheme: just the tree, verified by reaching everyone.

    Beyond the candidate tree's own encoding the advice carries a single
    root flag.  The root floods a token down the advised tree; a node
    accepts when the token arrives.  If the advice does not describe a
    tree rooted at the flagged node, some node never hears the token and
    the run exceeds its round bound — rejection by timeout.  The price
    of the missing depth bits: ``depth + 1`` rounds and ``2(n - 1)``
    messages instead of one round.
    """

    name = "st-flag"
    problem = "stverify"

    def compute_advice(self, graph: PortNumberedGraph, root: int = 0) -> AdviceAssignment:
        tree = build_rooted_tree(graph, kruskal_mst(graph), root=root)
        degrees = graph._degrees.tolist()
        parent_port = tree.parent_port.tolist()
        strings = []
        for u in range(graph.n):
            writer = BitWriter()
            if u == root:
                writer.write_bit(1)
            else:
                writer.write_bit(0)
                writer.write_uint(parent_port[u], port_width(int(degrees[u])))
            strings.append(writer.getvalue())
        return AdviceAssignment.from_strings(strings)

    def program_factory(self) -> ProgramFactory:
        return lambda ctx: _FlagProgram()

    def advice_bound_bits(self, n: int) -> float:
        parent_bits = (n - 2).bit_length() if n > 2 else 0
        return float(1 + parent_bits)

    def round_bound(self, n: int) -> float:
        # the token crosses the advised tree within its depth <= n - 1
        return float(n)


# ---------------------------------------------------------------------- #
# the problem
# ---------------------------------------------------------------------- #


class StVerifyProblem(Problem):
    """Accept iff the advised candidate is a spanning tree of the instance.

    The candidate the built-in oracles advise is the reference rooted
    MST, so the harness-side verifier can be exact: no node may reject,
    and the accepted parent ports must reproduce a rooted MST.
    """

    name = "stverify"
    title = "Spanning-tree verification"
    output_statement = (
        "no node outputs \"reject\" and the accepted parent ports "
        "reproduce the candidate tree (the reference rooted MST)"
    )
    schemes = {
        "distance": StDistanceScheme,
        "flag": StFlagScheme,
    }
    baselines = {}

    def check_outputs(
        self, graph: Any, outputs: Dict[int, Any], expected_root: Optional[int] = None
    ) -> OutputCheck:
        rejecting = [u for u in range(graph.n) if outputs.get(u) == REJECT_OUTPUT]
        if rejecting:
            return OutputCheck(
                False, f"node {rejecting[0]} rejected the candidate tree"
            )
        return check_outputs(graph, outputs, expected_root=expected_root)


register_problem(StVerifyProblem())
