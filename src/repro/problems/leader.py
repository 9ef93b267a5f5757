"""Leader election with advice on anonymous port-numbered graphs.

Leader election is the sharpest illustration of the advising-scheme
framework: on anonymous port-numbered graphs the problem is
**impossible with 0 advice bits** (two nodes of a symmetric graph — say
a cycle with identical port numberings — see identical views forever, so
a deterministic algorithm either elects both or neither), yet a *single*
bit of advice per node solves it in **zero rounds**: the oracle writes
``1`` at the leader and ``0`` everywhere else.  The classic
``O(log n)``-bit alternative hands every node a distinct rank and elects
rank 0 — more bits for no fewer rounds, which is exactly the kind of
trade-off the framework is built to chart.

The no-advice baseline runs on the *non-anonymous* variant (it uses the
node identifiers exposed by :class:`~repro.graphs.weighted_graph.LocalView`
and knows ``n`` — a documented deviation, mirroring D1 in DESIGN.md):
every node floods the maximum identifier it has seen for ``n`` rounds
and the node holding the maximum elects itself.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.advice import AdviceAssignment
from repro.core.bits import BitReader, BitString
from repro.core.oracle import AdvisingScheme
from repro.core.problem import OutputCheck, Problem, register_problem
from repro.distributed.base import DistributedBaseline
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.simulator.algorithm import NodeProgram, ProgramFactory
from repro.simulator.node import NodeContext

__all__ = [
    "FOLLOWER_OUTPUT",
    "LEADER_OUTPUT",
    "LeaderFlagScheme",
    "LeaderProblem",
    "LeaderRankScheme",
    "MaxIdFloodBaseline",
]

#: output of the elected node
LEADER_OUTPUT = "leader"
#: output of every other node
FOLLOWER_OUTPUT = "follower"


# ---------------------------------------------------------------------- #
# the (1, 0) scheme: one flag bit
# ---------------------------------------------------------------------- #


class _FlagProgram(NodeProgram):
    """Zero-round decoder: the advice bit *is* the answer."""

    def init(self, ctx: NodeContext) -> None:
        advice: BitString = ctx.advice if ctx.advice is not None else BitString.empty()
        reader = BitReader(advice)
        is_leader = (not reader.at_end()) and reader.read_bit() == 1
        ctx.halt(LEADER_OUTPUT if is_leader else FOLLOWER_OUTPUT)

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        ctx.halt()  # a 0-round algorithm never reaches this point


class LeaderFlagScheme(AdvisingScheme):
    """The ``(1, 0)``-advising scheme: "you are the leader" in one bit.

    >>> from repro.core.oracle import run_scheme
    >>> from repro.graphs.generators import random_connected_graph
    >>> report = run_scheme(LeaderFlagScheme(), random_connected_graph(32, 0.1, seed=1))
    >>> report.correct, report.rounds, report.advice.max_bits
    (True, 0, 1)
    """

    name = "leader-flag"
    problem = "leader"

    def compute_advice(self, graph: PortNumberedGraph, root: int = 0) -> AdviceAssignment:
        if not 0 <= root < graph.n:
            raise ValueError("root out of range")
        one = BitString.from_uint(1, 1)
        zero = BitString.from_uint(0, 1)
        return AdviceAssignment.from_strings([one if u == root else zero for u in range(graph.n)])

    def program_factory(self) -> ProgramFactory:
        return lambda ctx: _FlagProgram()

    def advice_bound_bits(self, n: int) -> float:
        return 1.0

    def round_bound(self, n: int) -> float:
        return 0.0


# ---------------------------------------------------------------------- #
# the (⌈log n⌉, 0) scheme: distinct ranks
# ---------------------------------------------------------------------- #


class _RankProgram(NodeProgram):
    """Zero-round decoder: rank 0 is the leader."""

    def init(self, ctx: NodeContext) -> None:
        advice: BitString = ctx.advice if ctx.advice is not None else BitString.empty()
        reader = BitReader(advice)
        rank = reader.read_uint(reader.remaining)
        ctx.halt(LEADER_OUTPUT if rank == 0 else FOLLOWER_OUTPUT)

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        ctx.halt()  # a 0-round algorithm never reaches this point


class LeaderRankScheme(AdvisingScheme):
    """The ``(⌈log n⌉, 0)`` scheme: every node gets a distinct rank.

    Wasteful on purpose — it makes the gap to the one-bit scheme
    measurable.  The designated node receives rank 0 and wins.
    """

    name = "leader-rank"
    problem = "leader"

    def compute_advice(self, graph: PortNumberedGraph, root: int = 0) -> AdviceAssignment:
        n = graph.n
        if not 0 <= root < n:
            raise ValueError("root out of range")
        width = max(1, (n - 1).bit_length())
        strings = []
        for u in range(n):
            if u == root:
                rank = 0
            else:
                rank = u + 1 if u < root else u
            strings.append(BitString.from_uint(rank, width))
        return AdviceAssignment.from_strings(strings)

    def program_factory(self) -> ProgramFactory:
        return lambda ctx: _RankProgram()

    def advice_bound_bits(self, n: int) -> float:
        return float(max(1, (n - 1).bit_length()))

    def round_bound(self, n: int) -> float:
        return 0.0


# ---------------------------------------------------------------------- #
# the no-advice baseline: flood the maximum identifier
# ---------------------------------------------------------------------- #


class _MaxIdFloodProgram(NodeProgram):
    """Flood the best identifier seen; the maximum elects itself."""

    def __init__(self, n: int) -> None:
        self._n = n
        self._best = -1

    def init(self, ctx: NodeContext) -> None:
        self._best = ctx.node_id
        if ctx.degree == 0:
            ctx.halt(LEADER_OUTPUT)  # a singleton is its own leader
            return
        for port in ctx.ports():
            ctx.send(port, self._best)

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        if inbox:
            incoming = max(inbox.values())
            if incoming > self._best:
                self._best = incoming
                if ctx.round < self._n:  # never send in the halting round
                    for port in ctx.ports():
                        ctx.send(port, self._best)
        if ctx.round >= self._n:
            ctx.halt(LEADER_OUTPUT if self._best == ctx.node_id else FOLLOWER_OUTPUT)


class MaxIdFloodBaseline(DistributedBaseline):
    """Elect the maximum identifier by flooding for ``n`` rounds.

    Runs on the non-anonymous variant: it reads the (unique) node
    identifiers and is given ``n`` for its round schedule — strictly
    more knowledge than the advising schemes receive, and still ``n``
    rounds instead of zero.
    """

    name = "maxid-flood"
    problem = "leader"
    requires_n = True

    def program_factory(self, graph: PortNumberedGraph) -> ProgramFactory:
        n = graph.n
        return lambda ctx: _MaxIdFloodProgram(n)

    def round_bound(self, graph: PortNumberedGraph) -> float:
        return float(graph.n)


# ---------------------------------------------------------------------- #
# the problem
# ---------------------------------------------------------------------- #


class LeaderProblem(Problem):
    """Exactly one node outputs ``"leader"``; everyone else follows."""

    name = "leader"
    title = "Leader election"
    output_statement = (
        'exactly one node outputs "leader" and every other node outputs '
        '"follower"; with a designated node, the leader must be that node'
    )
    schemes = {
        "flag": LeaderFlagScheme,
        "rank": LeaderRankScheme,
    }
    baselines = {
        "maxid-flood": MaxIdFloodBaseline,
    }

    def check_outputs(
        self, graph: Any, outputs: Dict[int, Any], expected_root: Optional[int] = None
    ) -> OutputCheck:
        n = graph.n
        out_list = [outputs.get(u) for u in range(n)]
        missing = sum(1 for value in out_list if value is None)
        if missing:
            return OutputCheck(False, f"{missing} node(s) produced no output")
        invalid = [
            u for u, value in enumerate(out_list)
            if value not in (LEADER_OUTPUT, FOLLOWER_OUTPUT)
        ]
        if invalid:
            u = invalid[0]
            return OutputCheck(False, f"node {u} output {out_list[u]!r}, expected leader/follower")
        leaders = [u for u, value in enumerate(out_list) if value == LEADER_OUTPUT]
        if len(leaders) != 1:
            return OutputCheck(False, f"expected exactly one leader, found {len(leaders)}")
        leader = leaders[0]
        if expected_root is not None and leader != expected_root:
            return OutputCheck(False, f"leader is {leader}, expected {expected_root}")
        return OutputCheck(True, "ok", root=leader)


register_problem(LeaderProblem())
