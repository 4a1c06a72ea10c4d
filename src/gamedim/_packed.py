"""Node masks, written, read and compared in one place.

Member (or node) i is bit i-1 of a mask.  `mask_of` is the one writing of
a mask from outside input: every list of member indices or nodes that a
caller hands in passes through it, as every weight or quota passes
through `exact`, and every count (member or node count, cover limit k,
bound, population, or the size a resource guard allows) through
`integer`.  Four more rules read input at the boundary: `fields` the
named values of a JSON object, `listed` a JSON list of index lists (of
coalitions or hypergraph edges), `instance` every single coalition, game
or certificate that a caller hands in, of one class over the member count
expected, and `of_kind` every list of them, each item by that rule.

Every per-byte table of a mask is built by one doubling, `subset_sums`:
`byte_tables` of weights or populations, summed over a mask's bytes by
`table_sum`, or over a whole list of masks by `table_sums`, which writes
them as 64-bit machine words and looks up each byte lane with one `map`;
of the 1-tuples (1,) ... (64,), the members of each byte value; and of the
eight bits reversed, each byte reversed.  Two readings of a mask live
here, so that coalitions, hypergraph edges, independent sets and cover
candidates all read it the same way:

- `members`: its members, ascending, one table lookup per byte.
- `canonical_key`: the (size, member tuple) order.  It sorts by size, then
  by the complement's bytes, each with its bits reversed.  Member 1 is then
  the top bit of the first byte, so at the first member where two masks
  differ, the one holding it has the larger bytes (and the smaller member
  tuple), and its complement the smaller bytes.  `canonical_order` sorts
  a list of masks in that order by integer keys, all read by one
  `table_sums`.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import add

if sys.byteorder != "little":
    raise ImportError("gamedim._packed reads masks as little-endian machine words")

MAX_MEMBERS = 64


def subset_sums(values: Sequence, start=0) -> list:
    """Entry m is ``start`` plus ``values[i]`` over the set bits i of m, in order.

    Each value doubles the list: the masks with its bit are the masks
    without it, plus the value.
    """
    sums = [start]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def byte_tables(values: Sequence, start=0) -> tuple[list, ...]:
    """Table b lists the `subset_sums` of ``values[8b:8b+8]``.

    Indexed by byte b of a mask, so `table_sum` adds a mask's values with
    one lookup per byte.
    """
    return tuple(subset_sums(values[low:low + 8], start) for low in range(0, len(values), 8))


def table_sum(tables: Sequence[list[int]], mask: int) -> int:
    """The sum of the values over the set bits of the mask, by `byte_tables`."""
    return sum(map(list.__getitem__, tables, mask.to_bytes(len(tables), "little")))


def table_sums(tables: Sequence[list[int]], masks: Sequence[int]) -> list[int]:
    """`table_sum` of every mask, one table lookup per byte lane.

    The masks are written as 64-bit machine words in one pass; lane b of
    those bytes is byte b of every mask, looked up in table b, and the lanes
    are added mask by mask.
    """
    raw = array("Q", masks).tobytes()
    lanes = (map(t.__getitem__, raw[b::8]) for b, t in enumerate(tables))
    return list(functools.reduce(functools.partial(map, add), lanes))


# Entry b is byte b with its bits in reverse order.
_REVERSED = bytes(subset_sums([0x80 >> i for i in range(8)]))


@functools.cache
def _byte_members() -> tuple[list[tuple[int, ...]], ...]:
    """Per byte of a mask of up to MAX_MEMBERS bits, the members of each value.

    Built on first use.  A subset sum of 1-tuples concatenates them in bit
    order, so every entry is sorted.
    """
    return byte_tables([(v,) for v in range(1, MAX_MEMBERS + 1)], ())


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


def listed(value: object, name: str, noun: str) -> list:
    """``value`` itself, a JSON list of index lists.

    Raises ValueError naming the key ``name`` otherwise, as in "'edges' must
    be a list of node index lists".
    """
    if not isinstance(value, list) or not all(isinstance(item, list) for item in value):
        raise ValueError(f"{name!r} must be a list of {noun} index lists")
    return value


def instance(item, kind: type, n: int | None, what: str):
    """``item`` itself, an instance of ``kind`` over ``n`` members (any, if None).

    Raises ValueError naming ``what`` and the item otherwise: "transfer 0 is
    not a Coalition", "coalition {1} is over 5 members, not 4".
    """
    if not isinstance(item, kind):
        raise ValueError(f"{what} {item!r} is not a {kind.__name__}")
    if n is not None and item.n != n:
        raise ValueError(f"{what} {item} is over {item.n} members, not {n}")
    return item


def of_kind(items: Iterable[object], kind: type, n: int | None, what: str,
            empty: bool = False) -> tuple:
    """The items as a tuple, each an `instance` of ``kind`` over ``n`` members.

    With n None, the count is the first item's.  Raises ValueError as
    `instance` does, and for no items at all unless ``empty`` allows them.
    """
    items = tuple(items)
    if not (items or empty):
        raise ValueError(f"no {what} given")
    if n is None and items and isinstance(items[0], kind):
        n = items[0].n
    for item in items:  # the common case, without a call per item
        if not isinstance(item, kind) or item.n != n:
            instance(item, kind, n, what)
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


@functools.cache
def _canonical_tables(n: int) -> tuple[list[int], ...]:
    """`byte_tables` of a sort key of n-bit masks in `canonical_key` order.

    Member i adds 1 to the size, 2^(n-1-i) to the mask reversed, which is
    subtracted, and 2^i to the mask itself: the key is (size, minus the
    reversed mask, the mask), each field n bits wide.  At the first member
    where two masks of one size differ, the one holding it has the larger
    reversed mask.
    """
    return byte_tables([(1 << 2 * n) - (1 << (2 * n - 1 - i)) + (1 << i) for i in range(n)])


def canonical_order(masks: Sequence[int], n: int) -> list[int]:
    """The n-bit masks sorted by `canonical_key`, with no Python call per mask.

    Each key is one `table_sums` entry; the mask is its low n bits.
    """
    return list(map(((1 << n) - 1).__and__, sorted(table_sums(_canonical_tables(n), masks))))

