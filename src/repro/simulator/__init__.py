"""Synchronous message-passing simulator (LOCAL / CONGEST models).

The simulator implements the computation model of Section 1 of the
paper: computation proceeds in synchronous rounds; in every round each
node (1) sends one message per incident edge, (2) receives the messages
sent by its neighbours over those edges, and (3) computes.  Complexity
is measured in rounds.  The LOCAL model does not bound message sizes;
the CONGEST model restricts them to ``O(log n)`` bits per edge per
round.  Rather than enforcing a hard bound, the engine *measures* every
message (see :mod:`repro.simulator.message`) so that benchmarks can
report the maximum per-edge-per-round message size and check the
CONGEST claim of the paper empirically.

Node programs are written against :class:`~repro.simulator.node.NodeContext`
(the MPI-style idiom of the HPC guides: explicit messages, no shared
state, the engine owns all delivery).  A node program only ever sees

* its :class:`~repro.graphs.weighted_graph.LocalView` (identifier,
  degree, weight behind every port),
* the advice string assigned by an oracle (possibly empty), and
* the messages received on its ports.

It never sees the graph, node indices, or ``n``.
"""

from repro.simulator.message import Message, estimate_bits
from repro.simulator.node import NodeContext
from repro.simulator.algorithm import NodeProgram, FunctionalProgram
from repro.simulator.metrics import RunMetrics
from repro.simulator.trace import MessageEvent, RoundRecord, Tracer
from repro.simulator.engine import AlgorithmError, RunResult, SyncEngine, run_sync
from repro.simulator.analytic import (
    ANALYTIC_VERSION,
    AnalyticUnsupported,
    run_scheme_analytic,
)

__all__ = [
    "ANALYTIC_VERSION",
    "AnalyticUnsupported",
    "run_scheme_analytic",
    "Message",
    "estimate_bits",
    "NodeContext",
    "NodeProgram",
    "FunctionalProgram",
    "RunMetrics",
    "MessageEvent",
    "RoundRecord",
    "Tracer",
    "AlgorithmError",
    "RunResult",
    "SyncEngine",
    "run_sync",
]
