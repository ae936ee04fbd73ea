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

:class:`CountVector` is the stage-1 kind: non-negative 64-bit counters packed
as lanes of one ``int``, so an add is one big-integer addition however many
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

_LANE_BITS = 64
_LANE_MASK = (1 << _LANE_BITS) - 1
#: Up to this many stored slots a snapshot is one shift per slot; beyond it
#: filling a lane buffer is cheaper (measured crossover: 10 to 25 slots from
#: N=64 to N=4096 — each shift allocates an integer of up to N lanes).
_SHIFT_PACK_MAX = 16


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

    def _pack(self) -> Tuple[int, int]:
        """``(bits, bound)`` of ``CountVector(self)``; O(stored) for a few slots."""
        stored = self._stored()
        # array('Q') is the range check on either path, as for a list of values.
        if len(stored) <= _SHIFT_PACK_MAX:
            bound = max(array("Q", self.values()), default=0)
            bits = 0
            for slot, count in stored:
                bits |= count << (_LANE_BITS * slot)
            return bits, bound
        lanes = array("Q", bytes(8 * self._n))
        for slot, count in stored:
            lanes[slot] = count
        return _lanes_to_bits(lanes), max(self.values())

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
    """``n`` counters in ``[0, 2**64)``, slot ``i`` in bits ``[64*i, 64*i + 64)``.

    Python ints grow where a lane cannot, so each vector carries ``_bound``,
    a value no slot exceeds: the largest slot at construction, the sum of the
    operands' bounds after an add.  An add whose bound would pass ``2**64 - 1``
    is refused — a constant-time test that keeps every lane from carrying into
    its neighbour (and can only refuse sums no operation count comes near).
    """

    __slots__ = ("_bits", "_n", "_bound")

    def __init__(self, values: Iterable[int] = ()):
        if values.__class__ is OpCounts:
            self._bits, self._bound = values._pack()
            self._n = len(values)
            return
        if not isinstance(values, (list, tuple)):
            values = list(values)
        # array('Q') is the range check: negative or >= 2**64 raises
        # OverflowError, a non-integer TypeError.
        lanes = array("Q", values)
        self._bits = _lanes_to_bits(lanes)
        self._n = len(lanes)
        self._bound = max(values, default=0)

    @classmethod
    def _packed(cls, bits: int, n: int, bound: int) -> "CountVector":
        vector = cls.__new__(cls)
        vector._bits = bits
        vector._n = n
        vector._bound = bound
        return vector

    @classmethod
    def zeros(cls, n: int) -> "CountVector":
        return cls._packed(0, n, 0)

    def __add__(self, other: "CountVector") -> "CountVector":
        if other.__class__ is not CountVector:
            return NotImplemented
        n = self._n
        if other._n != n:
            raise ValueError(f"cannot add count vectors of {n} and {other._n} slots")
        bound = self._bound + other._bound
        if bound > _LANE_MASK:
            raise OverflowError("count vector slot could overflow 64 bits")
        return CountVector._packed(self._bits + other._bits, n, bound)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        n = self._n
        if not -n <= i < n:
            raise IndexError("count vector index out of range")
        return (self._bits >> (_LANE_BITS * (i % n))) & _LANE_MASK

    def tolist(self) -> List[int]:
        lanes = array("Q", self._bits.to_bytes(8 * self._n, "little"))
        if sys.byteorder != "little":  # pragma: no cover
            lanes.byteswap()
        return lanes.tolist()

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other) -> bool:
        if other.__class__ is CountVector:
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
