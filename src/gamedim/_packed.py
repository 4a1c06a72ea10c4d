"""Node masks, written, read and compared in one place.

Member (or node) i is bit i-1 of a mask.  `mask_of` is the one writing of
a mask from outside input: every list of member indices or nodes that a
caller hands in passes through it.  Three readings of a mask live here, so
that coalitions, hypergraph edges, independent sets and cover candidates
all read it the same way:

- `members`: its members, ascending, one table lookup per byte.
- `canonical_key`: the (size, member tuple) order.  It sorts by size, then
  by the complement's bytes, each with its bits reversed.  Member 1 is then
  the top bit of the first byte, so at the first member where two masks
  differ, the one holding it has the larger bytes (and the smaller member
  tuple), and its complement the smaller bytes.
- `PackedMasks`: does any of a set of masks lie inside m?  Masks of n bits
  sit one per (n+1)-bit field, whose top bit is a guard.  Field i of
  packed & (~m * ones) is zero iff mask i lies inside m; with the guards
  set, subtracting one per field clears exactly those fields' guards and
  borrows nothing across fields.  So the test is one multiplication, one
  subtraction and a few bitwise operations, with no Python frame per mask.
  `add_minimal` adds m only if the test fails.  Fed masks in order of size,
  it keeps exactly those that contain no earlier one: the one
  inclusion-minimal filter of separation constraints, hypergraph edges and
  an explicit game's declared winners.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

MAX_MEMBERS = 64


def _reversal() -> bytes:
    """Entry b is byte b with its bits in reverse order; built by doubling."""
    table = [0]
    for i in range(8):
        table += [r | 0x80 >> i for r in table]
    return bytes(table)


_REVERSED = _reversal()


@functools.cache
def _byte_members() -> tuple[list[tuple[int, ...]], ...]:
    """Per byte of a mask of up to MAX_MEMBERS bits, the members of each value.

    Built on first use, by doubling, so every entry is sorted.
    """
    tables = []
    for low in range(1, MAX_MEMBERS + 1, 8):
        table: list[tuple[int, ...]] = [()]
        for v in range(low, low + 8):
            table += [s + (v,) for s in table]
        tables.append(table)
    return tuple(tables)


def mask_of(indices: Iterable[object], n: int, what: str) -> int:
    """The mask of the 1-based indices, each a plain int in 1..n, given once.

    Raises ValueError naming ``what`` (say ``"node"``) otherwise.  The type
    is checked on its own: True and 1.0 equal 1, and an int subclass such as
    an `IntEnum` member prints as something else, so none of them is an
    index.
    """
    mask = 0
    for i in indices:
        if type(i) is not int:
            if type(i) is bool:  # "not a node", "not an index"
                noun = what.split()[-1]
                article = "an" if noun[0] in "aeiou" else "a"
                raise ValueError(f"{what} {i!r} is a bool, not {article} {noun} in 1..{n}")
            raise ValueError(f"{what} {i!r} is not an integer")
        if not 0 < i <= n:
            raise ValueError(f"{what} {i} out of range 1..{n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"duplicate {what} {i}")
        mask |= bit
    return mask


def members(mask: int) -> tuple[int, ...]:
    """The members of a mask of up to MAX_MEMBERS bits, ascending."""
    tables = iter(_byte_members())
    out: tuple[int, ...] = ()
    while mask:
        out += next(tables)[mask & 255]
        mask >>= 8
    return out


def canonical_key(mask: int, n: int) -> tuple[int, bytes]:
    """Sort key of the n-bit masks in (size, member tuple) order."""
    complement = mask ^ ((1 << n) - 1)
    return mask.bit_count(), complement.to_bytes((n + 7) >> 3, "little").translate(_REVERSED)


class PackedMasks:
    """Masks of n bits, tested together: does any of them lie inside m?"""

    __slots__ = ("_n", "_full", "_packed", "_ones", "_guards", "_at")

    def __init__(self, n: int):
        self._n = n
        self._full = (1 << n) - 1
        self._packed = self._ones = self._guards = self._at = 0

    def add_minimal(self, m: int) -> bool:
        """Add m unless an added mask lies inside it; True iff m was added."""
        if self.any_inside(m):
            return False
        at = self._at
        self._packed |= m << at
        self._ones |= 1 << at
        self._guards |= 1 << (at + self._n)
        self._at = at + self._n + 1
        return True

    def any_inside(self, m: int) -> bool:
        ones, guards = self._ones, self._guards
        return (((self._packed & ((self._full ^ m) * ones)) | guards) - ones) & guards != guards
