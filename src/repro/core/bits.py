"""Bit strings and prefix-free integer codes.

Advice in an advising scheme is a *bit string* handed to each node, and
the whole point of the paper is counting those bits exactly.  This
module provides:

* :class:`BitString` — an immutable sequence of bits with concatenation
  and slicing, hashable so it can be used in sets (the lower-bound
  pigeonhole argument counts distinct advice strings);
* :class:`BitWriter` / :class:`BitReader` — streaming construction and
  parsing;
* fixed-width unsigned integers and the self-delimiting Elias-γ code,
  which the Theorem-3 oracle uses so that fragment advice ``A(F)`` can
  be parsed from an untyped bit stream without any length fields.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple, Union

__all__ = ["BitString", "BitWriter", "BitReader"]


def _uint_bits(value: int, width: int) -> Iterator[int]:
    """Big-endian bits of ``value`` in ``width`` bits, after validation.

    Shared by :meth:`BitString.from_uint` and :meth:`BitWriter.write_uint`
    so the fixed-width encoding (and its error behaviour) exists once.
    """
    if value < 0:
        raise ValueError("cannot encode a negative value")
    if width < 0:
        raise ValueError("width must be non-negative")
    if width == 0:
        if value != 0:
            raise ValueError("only 0 fits in zero bits")
        return iter(())
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return ((value >> (width - 1 - k)) & 1 for k in range(width))


class BitString:
    """An immutable string of bits."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[Union[int, bool]] = ()) -> None:
        self._bits: Tuple[int, ...] = tuple(1 if b else 0 for b in bits)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def _wrap(cls, bits: Tuple[int, ...]) -> "BitString":
        """Internal: adopt an already-normalised tuple of 0/1 ints.

        Skips the per-bit normalisation of ``__init__`` — the writer and
        reader hot paths construct millions of strings whose bits are
        known to be clean already.
        """
        s = object.__new__(cls)
        s._bits = bits
        return s

    @staticmethod
    def empty() -> "BitString":
        """The empty bit string."""
        return BitString(())

    @staticmethod
    def from_uint(value: int, width: int) -> "BitString":
        """Fixed-width big-endian encoding of ``value`` (``0 <= value < 2**width``)."""
        return BitString._wrap(tuple(_uint_bits(value, width)))

    @staticmethod
    def from_string(text: str) -> "BitString":
        """Parse a string of ``'0'``/``'1'`` characters."""
        if any(ch not in "01" for ch in text):
            raise ValueError("bit strings may only contain '0' and '1'")
        return BitString(int(ch) for ch in text)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def to_uint(self) -> int:
        """Interpret the whole string as a big-endian unsigned integer."""
        value = 0
        for b in self._bits:
            value = (value << 1) | b
        return value

    def to01(self) -> str:
        """Render as a ``'0'``/``'1'`` character string."""
        return "".join(str(b) for b in self._bits)

    def bit_length_exact(self) -> int:
        """Exact length in bits (hook used by the simulator's size estimator)."""
        return len(self._bits)

    # ------------------------------------------------------------------ #
    # sequence protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return BitString._wrap(self._bits[item])
        return self._bits[item]

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString._wrap(self._bits + other._bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitString) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitString('{self.to01()}')"


class BitWriter:
    """Append-only builder of a :class:`BitString`."""

    def __init__(self) -> None:
        self._bits: List[int] = []

    def __len__(self) -> int:
        return len(self._bits)

    def write_bit(self, bit: Union[int, bool]) -> "BitWriter":
        """Append a single bit."""
        self._bits.append(1 if bit else 0)
        return self

    def write_bits(self, bits: Iterable[Union[int, bool]]) -> "BitWriter":
        """Append a sequence of bits (e.g. another :class:`BitString`)."""
        self._bits.extend(1 if b else 0 for b in bits)
        return self

    def write_uint(self, value: int, width: int) -> "BitWriter":
        """Append a fixed-width big-endian unsigned integer."""
        self._bits.extend(_uint_bits(value, width))
        return self

    def write_gamma(self, value: int) -> "BitWriter":
        """Append the Elias-γ code of ``value`` (``value >= 1``).

        The γ code of ``v`` is ``floor(log2 v)`` zeros followed by the
        binary expansion of ``v`` (which starts with a 1), for a total of
        ``2 floor(log2 v) + 1`` bits.  It is prefix-free, so a stream of
        γ-coded integers needs no delimiters.
        """
        if value < 1:
            raise ValueError("Elias-gamma encodes integers >= 1")
        width = value.bit_length()
        if width > 1:
            self._bits.extend([0] * (width - 1))
        return self.write_uint(value, width)

    def getvalue(self) -> BitString:
        """The accumulated bit string."""
        return BitString._wrap(tuple(self._bits))


class BitReader:
    """Sequential reader over a :class:`BitString` (or any bit sequence)."""

    def __init__(self, bits: Sequence[int]) -> None:
        self._bits = list(bits)
        self._pos = 0

    @property
    def position(self) -> int:
        """Number of bits consumed so far."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of bits left to read."""
        return len(self._bits) - self._pos

    def at_end(self) -> bool:
        """``True`` when every bit has been consumed."""
        return self._pos >= len(self._bits)

    def read_bit(self) -> int:
        """Read one bit."""
        if self.at_end():
            raise EOFError("no bits left")
        bit = self._bits[self._pos]
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> BitString:
        """Read ``count`` bits as a :class:`BitString`."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.remaining < count:
            raise EOFError("not enough bits left")
        chunk = BitString._wrap(tuple(self._bits[self._pos : self._pos + count]))
        self._pos += count
        return chunk

    def read_uint(self, width: int) -> int:
        """Read a fixed-width big-endian unsigned integer."""
        return self.read_bits(width).to_uint()

    def read_gamma(self) -> int:
        """Read one Elias-γ coded integer (inverse of :meth:`BitWriter.write_gamma`)."""
        zeros = 0
        while True:
            bit = self.read_bit()
            if bit == 1:
                break
            zeros += 1
            if zeros > len(self._bits):  # pragma: no cover - defensive
                raise EOFError("malformed gamma code")
        value = 1
        for _ in range(zeros):
            value = (value << 1) | self.read_bit()
        return value
