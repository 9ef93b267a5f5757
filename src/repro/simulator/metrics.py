"""Run metrics: rounds, messages, and CONGEST accounting.

The headline quantity of the paper is the number of rounds ``t`` of an
``(m, t)``-advising scheme, but the paper also claims that all its
algorithms "send at most ``O(log n)`` bits through each edge at each
round", i.e. that the upper bounds hold in the CONGEST model.  The
engine therefore tracks, besides round and message counts, the maximum
number of bits any single (edge, direction, round) ever carried, so that
benchmarks can report ``max_edge_bits_per_round / log2(n)`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["RunMetrics"]


@dataclass
class RunMetrics:
    """Aggregated communication metrics of one simulated run."""

    #: number of nodes of the simulated network
    n: int = 0
    #: number of communication rounds executed
    rounds: int = 0
    #: total number of messages delivered
    total_messages: int = 0
    #: sum of the estimated sizes of all messages, in bits
    total_message_bits: int = 0
    #: largest single message, in bits
    max_message_bits: int = 0
    #: largest number of bits carried by one edge in one direction in one round
    max_edge_bits_per_round: int = 0
    #: number of messages delivered per round (index 0 = round 1)
    messages_per_round: List[int] = field(default_factory=list)
    #: messages accounted as sent but never processed by a receiver because
    #: every node had already halted (the engine's final flush round); they
    #: still count towards the totals above — CONGEST charges bits on the
    #: wire, not bits that were read
    undelivered_messages: int = 0

    def record_round(self) -> None:
        """Open the accounting bucket of a new round."""
        self.rounds += 1
        self.messages_per_round.append(0)

    def record_round_batch(self, count: int, bits_sum: int, bits_max: int) -> None:
        """Account a whole round of deliveries at once.

        ``count`` messages whose sizes sum to ``bits_sum`` with maximum
        ``bits_max`` — one method call per round instead of one per
        message.  (``bits_max`` also bounds the per-edge load because the
        model sends at most one message per edge per direction per
        round.)
        """
        self.total_messages += count
        self.total_message_bits += bits_sum
        if bits_max > self.max_message_bits:
            self.max_message_bits = bits_max
        if bits_max > self.max_edge_bits_per_round:
            self.max_edge_bits_per_round = bits_max
        if self.messages_per_round:
            self.messages_per_round[-1] += count

    def record_idle_rounds(self, count: int) -> None:
        """Account ``count`` rounds in which no message travelled.

        Used by the engine's idle fast-forward: rounds in which every
        running node declared itself idle (:meth:`NodeContext.idle_until`)
        and no message was in flight are charged in one call — same
        totals, same per-round histogram, none of the per-round work.
        """
        self.rounds += count
        self.messages_per_round.extend([0] * count)

    def record_undelivered(self, count: int) -> None:
        """Mark ``count`` already-recorded messages as never received."""
        self.undelivered_messages += count

    # ------------------------------------------------------------------ #
    # derived quantities used by benchmarks
    # ------------------------------------------------------------------ #

    @property
    def log2_n(self) -> float:
        """``log2(n)`` (1.0 for degenerate single-node networks)."""
        return max(1.0, math.log2(max(self.n, 2)))

    def congest_factor(self) -> float:
        """``max_edge_bits_per_round / log2(n)`` — the CONGEST head-room.

        A value bounded by a small constant over a sweep of ``n`` means
        the algorithm is CONGEST-compatible (messages of ``O(log n)``
        bits); a value growing with ``n`` means it is LOCAL-only.
        """
        return self.max_edge_bits_per_round / self.log2_n

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict summary for tables and JSON reports."""
        return {
            "n": self.n,
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "total_message_bits": self.total_message_bits,
            "max_message_bits": self.max_message_bits,
            "max_edge_bits_per_round": self.max_edge_bits_per_round,
            "undelivered_messages": self.undelivered_messages,
            "congest_factor": self.congest_factor(),
        }
