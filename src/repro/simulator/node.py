"""The per-node API surface seen by distributed algorithms.

A node program interacts with the network exclusively through its
:class:`NodeContext`: it can read its local view, its advice, and the
current round number; it can send one payload per port per round; and it
can set its output and halt.  The context deliberately does **not**
expose the node's global index, the graph, or ``n`` — exactly the
information hiding of the paper's model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.graphs.weighted_graph import LocalView

__all__ = ["NodeContext"]


class NodeContext:
    """Execution context of one node for the duration of one run."""

    def __init__(self, view: LocalView, advice: Any = None) -> None:
        self._view = view
        self._advice = advice
        self._round = 0
        self._outbox: Dict[int, Any] = {}
        self._output: Any = None
        self._has_output = False
        self._halted = False
        self._wake_round = 0

    # ------------------------------------------------------------------ #
    # what the node may read
    # ------------------------------------------------------------------ #

    @property
    def view(self) -> LocalView:
        """The node's initial knowledge (identifier, degree, port weights)."""
        return self._view

    @property
    def node_id(self) -> int:
        """The node's identifier (identifiers need not be unique)."""
        return self._view.node_id

    @property
    def degree(self) -> int:
        """Number of ports."""
        return self._view.degree

    @property
    def advice(self) -> Any:
        """The advice string assigned by the oracle (``None`` if none)."""
        return self._advice

    @property
    def round(self) -> int:
        """The current round number (0 during initialisation)."""
        return self._round

    def ports(self) -> range:
        """All port numbers of this node."""
        return range(self._view.degree)

    def weight(self, port: int) -> float:
        """Weight of the incident edge behind ``port``."""
        return self._view.weight(port)

    # ------------------------------------------------------------------ #
    # what the node may do
    # ------------------------------------------------------------------ #

    def send(self, port: int, payload: Any) -> None:
        """Send ``payload`` over ``port``; it is delivered next round.

        At most one payload may be sent per port per round (the model
        sends one message per edge per round).
        """
        if self._halted:
            raise RuntimeError("a halted node cannot send messages")
        if not 0 <= port < self._view.degree:
            raise ValueError(f"no such port: {port}")
        if port in self._outbox:
            raise RuntimeError(f"port {port} was already used this round")
        self._outbox[port] = payload

    def set_output(self, value: Any) -> None:
        """Record this node's output for the problem being solved."""
        self._output = value
        self._has_output = True

    def idle_until(self, round_number: int) -> None:
        """Declare that this node has nothing scheduled before ``round_number``.

        A strictly optional scheduling hint: the engine will not invoke
        ``on_round`` again before the given round **unless a message
        arrives first** (an incoming message always wakes the node).  A
        program may only use it when every action it would have taken in
        the skipped rounds is triggered either by a message or by a round
        number it can compute in advance — fixed round schedules like the
        GHS-style baseline qualify.  The hint lasts until the next
        invocation; a hint set in ``init`` holds from round 1.  Programs
        that never call it are invoked every round, exactly as before.
        """
        if round_number > self._wake_round:
            self._wake_round = round_number

    def halt(self, output: Any = None) -> None:
        """Declare this node finished (optionally setting the output).

        A halted node neither sends nor receives in later rounds; the run
        terminates once every node has halted.
        """
        if output is not None or not self._has_output:
            if output is not None:
                self.set_output(output)
        self._halted = True

    # ------------------------------------------------------------------ #
    # engine-side accessors (not part of the algorithm API)
    # ------------------------------------------------------------------ #

    @property
    def halted(self) -> bool:
        """Whether :meth:`halt` has been called (engine bookkeeping)."""
        return self._halted

    @property
    def output(self) -> Any:
        """The recorded output (engine bookkeeping)."""
        return self._output

    @property
    def has_output(self) -> bool:
        """Whether an output has been recorded (engine bookkeeping)."""
        return self._has_output

    def _drain_outbox(self) -> Dict[int, Any]:
        out, self._outbox = self._outbox, {}
        return out

    def _advance_round(self, round_number: int) -> None:
        self._round = round_number
