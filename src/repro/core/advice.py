"""Advice assignments and their size accounting.

An oracle looks at the whole instance and assigns a bit string to every
node.  The two quantities the paper trades off against the number of
rounds are the **maximum** and the **average** advice length; an
``(m, t)``-advising scheme bounds the maximum by ``m`` and the running
time by ``t`` rounds (Theorem 1 and Theorem 2 additionally discuss the
average).  :class:`AdviceAssignment` stores the per-node strings and
computes exactly these statistics.

The strings are packed: one flat array of 0/1 bytes holds every node's
advice back to back, and ``n + 1`` offsets delimit them, so node ``u``'s
advice is ``bits[offsets[u]:offsets[u + 1]]``.  The oracles write these
arrays column by column; a :class:`~repro.core.bits.BitString` is built
only when a node's string is asked for (the engine's payloads, the
lower bound's pigeonhole, tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import BitString

__all__ = ["AdviceAssignment", "AdviceStats", "PackingLayout"]


@dataclass(frozen=True)
class AdviceStats:
    """Size statistics of one advice assignment."""

    n: int
    max_bits: int
    total_bits: int
    average_bits: float
    nodes_with_advice: int

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for tables and JSON reports."""
        return {
            "n": self.n,
            "max_bits": self.max_bits,
            "total_bits": self.total_bits,
            "average_bits": self.average_bits,
            "nodes_with_advice": self.nodes_with_advice,
        }


@dataclass(frozen=True, eq=False)
class PackingLayout:
    """Where a phase-by-phase oracle packed each phase's data bits.

    ``phases[i - 1]`` is the pair ``(nodes, takes)`` of phase ``i``: the
    nodes that received data bits of that phase (each at most once) and
    how many.  ``capacity`` is the per-node data capacity the packing
    used.  The Theorem-3 oracle records it, and the analytic backend
    replays the decoder's convergecast streams from it.
    """

    capacity: int
    phases: Tuple[Tuple[np.ndarray, np.ndarray], ...]


class AdviceAssignment:
    """Per-node advice bit strings for one instance, packed in one bit array.

    ``bits`` is a 0/1 array, ``offsets`` the ``n + 1`` non-decreasing
    positions that split it into the nodes' strings.  ``layout``
    describes how the oracle packed the bits, for the schemes whose
    analytic model needs it (Theorem 3).

    >>> advice = AdviceAssignment.from_strings(
    ...     [BitString.from_string("101"), BitString.empty(), BitString.from_string("1")]
    ... )
    >>> advice.n, advice.get(0).to01(), advice.bits_of(1), advice.stats().total_bits
    (3, '101', 0, 4)
    """

    __slots__ = ("n", "bits", "offsets", "layout")

    def __init__(
        self, bits, offsets, layout: Optional[PackingLayout] = None
    ) -> None:
        bits = np.asarray(bits, dtype=np.uint8)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 2:
            raise ValueError("advice assignments need at least one node")
        if bits.ndim != 1 or offsets[0] != 0 or offsets[-1] != bits.size:
            raise ValueError("offsets must run from 0 to the number of bits")
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets must not decrease")
        if bits.size and bits.max() > 1:
            raise ValueError("advice bits must be 0 or 1")
        self.n = offsets.size - 1
        self.bits = bits
        self.offsets = offsets
        self.layout = layout

    @classmethod
    def from_strings(cls, strings: Sequence[BitString]) -> "AdviceAssignment":
        """Pack one string per node (node ``u`` gets ``strings[u]``)."""
        lengths = np.fromiter((len(s) for s in strings), dtype=np.int64, count=len(strings))
        offsets = np.zeros(len(strings) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        bits = np.fromiter(chain.from_iterable(strings), dtype=np.uint8, count=int(offsets[-1]))
        return cls(bits, offsets)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def get(self, node: int) -> BitString:
        """Advice of ``node`` (the empty string when nothing was assigned)."""
        self._check_node(node)
        lo, hi = self.offsets[node : node + 2].tolist()
        return BitString._wrap(tuple(self.bits[lo:hi].tolist()))

    def bits_of(self, node: int) -> int:
        """Length of the advice of ``node``."""
        self._check_node(node)
        return int(self.offsets[node + 1] - self.offsets[node])

    def __iter__(self) -> Iterator[Tuple[int, BitString]]:
        return iter(self.as_payloads().items())

    def as_payloads(self) -> Dict[int, BitString]:
        """A ``node -> BitString`` mapping suitable for the simulator."""
        flat = self.bits.tolist()
        bounds = self.offsets.tolist()
        wrap = BitString._wrap
        return {u: wrap(tuple(flat[bounds[u] : bounds[u + 1]])) for u in range(self.n)}

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def stats(self) -> AdviceStats:
        """Maximum / total / average advice size of this assignment."""
        sizes = np.diff(self.offsets)
        total = int(self.offsets[-1])
        return AdviceStats(
            n=self.n,
            max_bits=int(sizes.max()),
            total_bits=total,
            average_bits=total / self.n,
            nodes_with_advice=int(np.count_nonzero(sizes)),
        )

    # ------------------------------------------------------------------ #

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} out of range 0..{self.n - 1}")
