"""The vectors the collective patterns combine: immutable, ``+`` is elementwise.

Stage 1 of the combined fence+barrier (paper Figure 2) has every process add
an N-slot ``op_init[]`` vector per exchange phase.  The patterns of
:mod:`repro.mp.collectives` only ever write ``acc + msg.payload``; what that
costs the host is decided here.  The contract both kinds keep:

* **immutable** — a vector can sit in a message, a ledger and a NIC epoch at
  once, so nothing on the path copies one;
* ``a + b`` is the elementwise sum of two vectors of one kind and length
  (anything else is an error, never a concatenation);
* ``len(v)`` slots, ``v[i]`` a plain Python number, ``v.tolist()`` a new list;
* on the wire a slot is 8 bytes (the ports price ``8 * len(v)``), and the
  addition itself is free in simulated time, as host arithmetic always was.

:class:`CountVector` is the stage-1 kind: non-negative counters below
``2**64`` packed as lanes of one ``int``, each as wide as the vector's counts
need (16, 32 or 64 bits), so an add is one big-integer addition however many
slots there are.  :class:`ValueVector` carries anything with ``+`` (the
floats of ``GA_Ddot``) behind the list-in/list-out ``allreduce_sum``.

:class:`OpCounts` is not a vector but what a process counts *into* between
barriers: the one mutable ``op_init[]``, stored by touched slot, that
``CountVector(op_init)`` snapshots at each barrier.
"""

from __future__ import annotations

import sys
from array import array
from operator import add
from typing import Iterable, List, Tuple

__all__ = ["CountVector", "OpCounts", "ValueVector"]

#: The lane widths a count vector packs its slots in, with their array typecodes.
_LANE_CODES = {16: "H", 32: "I", 64: "Q"}
_LANE_MAX = (1 << 64) - 1
#: Up to this many stored slots a snapshot is one shift per slot; beyond it
#: filling a lane buffer is cheaper (measured crossover at 16-bit lanes: 16
#: to 24 slots from N=64 to N=4096, both paths within 5 % of each other at
#: 16 — each shift allocates an integer of up to N lanes).
_SHIFT_PACK_MAX = 16


def _lane_width(top: int) -> int:
    """The narrowest lane width, 16, 32 or 64 bits, that holds ``top``."""
    return 16 if top < 0x10000 else 32 if top < 0x100000000 else 64


def _lanes_to_bits(lanes: array) -> int:
    if sys.byteorder != "little":  # pragma: no cover - lanes are defined little-endian
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


class OpCounts(dict):
    """``n`` counters that read as a list of ``n`` ints and store the touched.

    A process's ``op_init[]``: ``counts[rank] += 1`` is a dict lookup and a
    dict store (``__missing__`` supplies the 0 of an untouched slot without
    storing it), so a rank that wrote to one peer holds one entry, not ``n``.
    ``len``, iteration, ``tolist()``, ``==`` against a list and a read at any
    list index (negative too) see all ``n`` slots.  Slots are *written* by
    their index in ``range(n)``: any other key is an ``IndexError``, raised
    by ``+=`` on the spot and by a plain assignment at the next
    ``tolist()`` or ``CountVector(counts)``.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __missing__(self, i: int) -> int:
        n = self._n
        if 0 <= i < n:
            return 0
        if -n <= i < 0:
            return self[i + n]
        raise IndexError("op counts index out of range")

    def __len__(self) -> int:
        return self._n

    def _stored(self):
        """The stored ``(slot, count)`` pairs, their slots checked."""
        slots = self.keys()
        if slots and not (min(slots) >= 0 and max(slots) < self._n):
            raise IndexError("op counts are written by their index in range(n)")
        return self.items()

    def _pack(self) -> Tuple[int, int, int]:
        """``(bits, bound, width)`` of ``CountVector(self)``; O(stored) for a
        few slots."""
        stored = self._stored()
        # array('Q') is the range check, as for a list of values.
        bound = max(array("Q", self.values()), default=0)
        width = _lane_width(self._n * bound)
        if len(stored) <= _SHIFT_PACK_MAX:
            bits = 0
            for slot, count in stored:
                bits |= count << (width * slot)
            return bits, bound, width
        lanes = array(_LANE_CODES[width], bytes(width // 8 * self._n))
        for slot, count in stored:
            lanes[slot] = count
        return _lanes_to_bits(lanes), bound, width

    def tolist(self) -> List[int]:
        values = [0] * self._n
        for slot, count in self._stored():
            values[slot] = count
        return values

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, OpCounts)):
            return self.tolist() == list(other)
        return NotImplemented

    def __ne__(self, other) -> bool:  # dict's own would answer for a list
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self) -> str:
        return f"OpCounts({self.tolist()})"


class CountVector:
    """``n`` counters in ``[0, 2**64)``, slot ``i`` in bits ``[w*i, w*i + w)``.

    Python ints grow where a lane cannot, so each vector carries ``_bound``,
    a value no slot exceeds: the largest slot at construction, the sum of the
    operands' bounds after an add.  The lane width ``w`` (``_width``: 16, 32
    or 64 bits) is the narrowest that holds ``n * _bound`` when the vector is
    built, so the sum of ``n`` vectors like it — one n-way allreduce — stays
    in its lanes, and a barrier's unit counts cost two bytes a slot, not
    eight.  An add whose bound outgrows its operands' lanes repacks them to
    the width the sum needs; one whose bound would pass ``2**64 - 1`` is
    refused — a constant-time test that keeps every lane from carrying into
    its neighbour (and can only refuse sums no operation count comes near).
    Only the host's footprint sees the width: ``len``, ``v[i]``, ``tolist()``,
    ``==``, ``repr`` and the 8 wire bytes a slot is priced at do not.
    """

    __slots__ = ("_bits", "_n", "_bound", "_width")

    def __init__(self, values: Iterable[int] = ()):
        if values.__class__ is OpCounts:
            self._bits, self._bound, self._width = values._pack()
            self._n = len(values)
            return
        if not isinstance(values, (list, tuple)):
            values = list(values)
        bound = max(values, default=0)
        width = _lane_width(len(values) * bound)
        # The array is the range check: negative or >= 2**width raises
        # OverflowError (no slot exceeds ``bound``), a non-integer TypeError.
        self._bits = _lanes_to_bits(array(_LANE_CODES[width], values))
        self._n = len(values)
        self._bound = bound
        self._width = width

    @classmethod
    def _packed(cls, bits: int, n: int, bound: int, width: int) -> "CountVector":
        vector = cls.__new__(cls)
        vector._bits = bits
        vector._n = n
        vector._bound = bound
        vector._width = width
        return vector

    @classmethod
    def zeros(cls, n: int) -> "CountVector":
        return cls._packed(0, n, 0, 16)

    def __add__(self, other: "CountVector") -> "CountVector":
        if other.__class__ is not CountVector:
            return NotImplemented
        n = self._n
        if other._n != n:
            raise ValueError(f"cannot add count vectors of {n} and {other._n} slots")
        bound = self._bound + other._bound
        if bound > _LANE_MAX:
            raise OverflowError("count vector slot could overflow 64 bits")
        width = self._width
        if other._width == width and bound >> width == 0:
            return CountVector._packed(self._bits + other._bits, n, bound, width)
        # Repack (at C level) to lanes that hold n sums like this one.
        width = max(width, other._width, _lane_width(n * bound))
        bits = 0
        for vector in (self, other):
            if vector._width == width:
                bits += vector._bits
            else:
                bits += _lanes_to_bits(array(_LANE_CODES[width], vector.tolist()))
        return CountVector._packed(bits, n, bound, width)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        n = self._n
        if not -n <= i < n:
            raise IndexError("count vector index out of range")
        width = self._width
        return (self._bits >> (width * (i % n))) & ((1 << width) - 1)

    def tolist(self) -> List[int]:
        width = self._width
        packed = self._bits.to_bytes(width // 8 * self._n, "little")
        lanes = array(_LANE_CODES[width], packed)
        if sys.byteorder != "little":  # pragma: no cover
            lanes.byteswap()
        return lanes.tolist()

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other) -> bool:
        if other.__class__ is CountVector:
            if self._width != other._width:
                return self.tolist() == other.tolist()
            return self._n == other._n and self._bits == other._bits
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"CountVector({self.tolist()})"


class ValueVector(tuple):
    """A tuple of anything with ``+``; the generic kind."""

    __slots__ = ()

    def __add__(self, other: "ValueVector") -> "ValueVector":
        if other.__class__ is not ValueVector:
            return NotImplemented
        if len(other) != len(self):
            raise ValueError(
                f"cannot add value vectors of {len(self)} and {len(other)} slots"
            )
        return ValueVector(map(add, self, other))

    def tolist(self) -> list:
        return list(self)
