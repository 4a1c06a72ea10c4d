"""Node masks, written, read and compared in one place.

Member (or node) i is bit i-1 of a mask.  `mask_of` is the one writing of
a mask from outside input: every list of member indices or nodes that a
caller hands in passes through it, as every weight or quota passes
through `exact`, and every count (member or node count, cover limit k,
bound, population, or the size a resource guard allows) through
`integer`.  Three more rules read input at the boundary: `fields` the
named values of a JSON object, `listed` a JSON list (of index lists, for
coalitions and hypergraph edges), and `of_kind` every list of coalitions
or games that a caller hands in, each item of one class over one member
count.  Three readings of a mask live here, so that coalitions,
hypergraph edges, independent sets and cover candidates all read it the
same way:

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
from fractions import Fraction

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


def integer(value: object, what: str, low: int, high: int | None = None) -> int:
    """``value`` itself, a plain int in low..high (no upper end if high is None).

    Raises ValueError naming ``what`` otherwise: for a bool, a float or an
    int subclass, which equal or print as some other number, and for a
    value out of range.  A resource guard is the ``high`` end, with a
    ``what`` that names the reason.
    """
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    if value < low or (high is not None and value > high):
        span = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{what} must be {span}, got {value}")
    return value


def exact(value: object, what: str) -> Fraction:
    """The exact rational of an int, a `Fraction` or a string such as "13/20".

    Raises ValueError naming ``what`` and the value for anything else (a
    bool reads as 0 or 1, a float as its binary value) and for a zero
    denominator.
    """
    if type(value) is bool or not isinstance(value, (int, Fraction, str)):
        raise ValueError(f"{what} is a {type(value).__name__}: {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} {value!r} has denominator zero") from None


def fields(obj: object, what: str, *names: str) -> tuple:
    """The values of the named keys of a JSON object, in the order named.

    Raises ValueError, "{what} description needs 'a' and 'b'", for
    anything but an object (a dict) holding every name.
    """
    if not isinstance(obj, dict) or not all(name in obj for name in names):
        *rest, last = map(repr, names)
        listing = f"{', '.join(rest)} and {last}" if rest else last
        raise ValueError(f"{what} description needs {listing}")
    return tuple(obj[name] for name in names)


def listed(value: object, name: str, noun: str | None = None) -> list:
    """``value`` itself, a JSON list; with a ``noun``, a list of index lists.

    Raises ValueError naming the key ``name`` otherwise, as in "'edges' must
    be a list of node index lists".
    """
    if not isinstance(value, list) or (
            noun is not None and not all(isinstance(item, list) for item in value)):
        shape = "a list" if noun is None else f"a list of {noun} index lists"
        raise ValueError(f"{name!r} must be {shape}")
    return value


def of_kind(items: Iterable[object], kind: type, n: int | None, what: str,
            empty: bool = False) -> tuple:
    """The items as a tuple, each an instance of ``kind`` over ``n`` members.

    With n None, the count is the first item's.  Raises ValueError naming
    ``what`` and the item otherwise, as in "declared winner 1 is not a
    Coalition", and for no items at all unless ``empty`` allows them.
    """
    items = tuple(items)
    if not (items or empty):
        raise ValueError(f"no {what} given")
    if n is None and items and isinstance(items[0], kind):
        n = items[0].n
    for item in items:
        if not isinstance(item, kind):
            raise ValueError(f"{what} {item!r} is not a {kind.__name__}")
        if item.n != n:
            raise ValueError(f"{what} {item} is over {item.n} members, not {n}")
    return items


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
