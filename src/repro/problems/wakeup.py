"""Wake-up / broadcast with advice: spend bits to silence edges.

A designated *source* holds a wake-up signal; every node must learn it
and output the port the signal arrived on (the source outputs
:data:`~repro.mst.rooted_tree.ROOT_OUTPUT`), so the outputs describe a
rooted spanning tree of the wake.  Without advice the only deterministic
option on an anonymous graph is *flooding*: on first wake, forward the
signal on every other port — ``2m - n + 1`` messages.  An oracle that
writes each node's **children in a spanning tree** into its advice
restricts transmission to the tree edges: exactly ``n - 1`` messages,
the information-theoretic minimum for waking ``n - 1`` sleepers.  The
advising framework makes the message trade-off measurable bit by bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.advice import AdviceAssignment
from repro.core.bits import BitReader, BitString, BitWriter
from repro.core.oracle import AdvisingScheme
from repro.core.problem import OutputCheck, Problem, register_problem
from repro.distributed.base import DistributedBaseline
from repro.graphs.weighted_graph import PortNumberedGraph
from repro.mst.kruskal import kruskal_mst
from repro.mst.rooted_tree import ROOT_OUTPUT, build_rooted_tree
from repro.problems.verify import check_spanning_outputs
from repro.simulator.algorithm import NodeProgram, ProgramFactory
from repro.simulator.node import NodeContext

__all__ = [
    "FloodBaseline",
    "SpanningTreeWakeupScheme",
    "WakeupProblem",
    "port_width",
]

#: the payload of the wake-up signal (its content never matters)
WAKE = "w"


def port_width(degree: int) -> int:
    """Bits needed to name one port of a ``degree``-port node."""
    return (degree - 1).bit_length() if degree > 1 else 0


# ---------------------------------------------------------------------- #
# the advised scheme: transmit on tree edges only
# ---------------------------------------------------------------------- #


class _TreeWakeupProgram(NodeProgram):
    """Forward the wake signal to the advised children, nowhere else."""

    def __init__(self) -> None:
        self._child_ports: List[int] = []

    def init(self, ctx: NodeContext) -> None:
        advice: BitString = ctx.advice if ctx.advice is not None else BitString.empty()
        reader = BitReader(advice)
        is_source = (not reader.at_end()) and reader.read_bit() == 1
        count = reader.read_uint(ctx.degree.bit_length())
        width = port_width(ctx.degree)
        self._child_ports = [reader.read_uint(width) for _ in range(count)]
        if is_source:
            for port in self._child_ports:
                ctx.send(port, WAKE)
            ctx.halt(ROOT_OUTPUT)

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        if not inbox:
            return  # still asleep
        parent_port = min(inbox)  # the tree parent is the only sender
        for port in self._child_ports:
            ctx.send(port, WAKE)
        ctx.halt(parent_port)


class SpanningTreeWakeupScheme(AdvisingScheme):
    """Advise every node of its children in a rooted spanning tree.

    The oracle roots the reference MST at the source (any spanning tree
    works; reusing the MST shares the per-graph caches) and writes, per
    node, one source flag, the child count, and the child ports.  The
    wake then travels over tree edges only: ``n - 1`` messages and as
    many rounds as the tree is deep.

    >>> from repro.core.oracle import run_scheme
    >>> from repro.graphs.generators import random_connected_graph
    >>> graph = random_connected_graph(32, 0.1, seed=1)
    >>> report = run_scheme(SpanningTreeWakeupScheme(), graph)
    >>> report.correct, report.metrics.total_messages == graph.n - 1
    (True, True)
    """

    name = "wakeup-tree"
    problem = "wakeup"

    def compute_advice(self, graph: PortNumberedGraph, root: int = 0) -> AdviceAssignment:
        tree = build_rooted_tree(graph, kruskal_mst(graph), root=root)
        # child ports as seen from the parent, bucketed per parent
        child_ports: List[List[int]] = [[] for _ in range(graph.n)]
        for v in range(graph.n):
            u = tree.parent[v]
            if u < 0:
                continue
            e = tree.parent_edge[v]
            port = graph.edge_port_u[e] if graph.edge_u[e] == u else graph.edge_port_v[e]
            child_ports[u].append(int(port))
        degrees = graph._degrees.tolist()
        strings = []
        for u in range(graph.n):
            degree = int(degrees[u])
            writer = BitWriter()
            writer.write_bit(1 if u == root else 0)
            writer.write_uint(len(child_ports[u]), degree.bit_length())
            width = port_width(degree)
            for port in child_ports[u]:
                writer.write_uint(port, width)
            strings.append(writer.getvalue())
        return AdviceAssignment.from_strings(strings)

    def program_factory(self) -> ProgramFactory:
        return lambda ctx: _TreeWakeupProgram()

    def round_bound(self, n: int) -> float:
        # the wake crosses any rooted spanning tree within its depth <= n - 1
        return float(n)


# ---------------------------------------------------------------------- #
# the no-advice baseline: flood everything
# ---------------------------------------------------------------------- #


class _FloodProgram(NodeProgram):
    """On first wake, forward the signal on every port but the parent's."""

    def init(self, ctx: NodeContext) -> None:
        if ctx.node_id == 0:  # the designated source (documented deviation)
            for port in ctx.ports():
                ctx.send(port, WAKE)
            ctx.halt(ROOT_OUTPUT)

    def on_round(self, ctx: NodeContext, inbox: Dict[int, object]) -> None:
        if not inbox:
            return  # still asleep
        parent_port = min(inbox)  # earliest wave; ties broken by port number
        for port in ctx.ports():
            if port != parent_port:
                ctx.send(port, WAKE)
        ctx.halt(parent_port)


class FloodBaseline(DistributedBaseline):
    """Wake the graph by flooding: ``2m - n + 1`` messages.

    Anonymous except for the choice of source: with no advice available
    to designate one, the node with identifier 0 starts the wake (a
    documented deviation, the wake-up analogue of D1 in DESIGN.md).  The
    first wave reaches every node along a BFS tree of the source, so the
    recorded parent ports always form a valid spanning tree.
    """

    name = "flood"
    problem = "wakeup"

    def program_factory(self, graph: PortNumberedGraph) -> ProgramFactory:
        return lambda ctx: _FloodProgram()

    def round_bound(self, graph: PortNumberedGraph) -> float:
        # the wave advances one BFS layer per round; eccentricity <= n - 1
        return float(graph.n)


# ---------------------------------------------------------------------- #
# the problem
# ---------------------------------------------------------------------- #


class WakeupProblem(Problem):
    """The wake must reach everyone; outputs draw the broadcast tree."""

    name = "wakeup"
    title = "Wake-up / broadcast"
    output_statement = (
        "every node outputs the port its wake-up signal arrived on (the "
        "source outputs ROOT_OUTPUT); the ports must form a rooted "
        "spanning tree"
    )
    schemes = {
        "spanning-tree": SpanningTreeWakeupScheme,
    }
    baselines = {
        "flood": FloodBaseline,
    }

    def check_outputs(
        self, graph: Any, outputs: Dict[int, Any], expected_root: Optional[int] = None
    ) -> OutputCheck:
        """Any rooted spanning tree is a valid wake (no weight condition)."""
        return check_spanning_outputs(graph, outputs, expected_root=expected_root)


register_problem(WakeupProblem())
