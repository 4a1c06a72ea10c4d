"""Core model for coalitions and simple games.

A simple game over members 1..n is an upward-closed family of winning
coalitions.  Weighted games realize the threshold rule
``sum(weights[m] for m in C) >= quota``; arbitrary simple games are built as
unions and intersections of weighted or explicitly listed games.  Every game
class here but the plain base `SimpleGame` is a frozen value record
(`gamedim._record`): no game changes once built, and two games are equal iff
they are of one class with equal fields, so a combination compares by its
parts.  Weights and quota are exact rationals (``fractions.Fraction``); a
weighted game scales them once, by the least common multiple of their
denominators, to integers.  Its first `contains` or `scaled_weight` call then
builds one table per byte of the member mask, the scaled weight of every
subset of those eight members, so a weight sum is one integer table lookup
per byte of the coalition's mask.  Nothing is ever rounded or computed in
floating point.

The exhaustive scans (`minimal_winning`, `check_monotone`) never test the 2^n
coalitions one at a time.  Each game packs its whole winning family into one
Python-int bitset, where bit m is set iff the coalition with mask m wins:
weighted games from their subset sums, intersections and unions by AND and
OR of their parts' bitsets, explicit games by an upward closure.  The shift
step ``(bits & lacking_i) << 2**i`` moves every mask without member i to the
same mask with member i added, so n such steps close a family upward, or
find every winning coalition that stays winning after removing one member.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property, reduce

from ._packed import (MAX_MEMBERS, PackedMasks, byte_tables, canonical_key, exact, fields,
                      instance, integer, listed, mask_of, members, of_kind, subset_sums,
                      table_sum)
from ._record import Frozen

ENUMERATION_GUARD = 20


class Coalition(Frozen):
    """A subset of the members 1..n, stored as a bitmask (bit i-1 = member i).

    Canonical by construction: membership order and duplicates cannot be
    represented, and two coalitions over the same member count are equal
    iff their member sets are equal.  The replay builds thousands, so
    `==`, `hash` and `repr` read the two slots directly.
    """

    __slots__ = ("n", "mask")
    n: int
    mask: int

    def __init__(self, n: int, mask: int) -> None:
        _set_n(self, n)
        _set_mask(self, mask)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; `__init__` calls it once per coalition."""
        integer(self.mask, "coalition mask", 0,
                (1 << integer(self.n, "member count", 1, MAX_MEMBERS)) - 1)

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "Coalition":
        return cls(n, mask_of(indices, n, "member index"))

    @property
    def members(self) -> tuple[int, ...]:
        return members(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, member: int) -> bool:
        return 1 <= member <= self.n and bool(self.mask >> (member - 1) & 1)

    def union(self, other: "Coalition") -> "Coalition":
        instance(other, Coalition, self.n, "operand")
        return _coalition(self.n, self.mask | other.mask)

    def intersection(self, other: "Coalition") -> "Coalition":
        instance(other, Coalition, self.n, "operand")
        return _coalition(self.n, self.mask & other.mask)

    def difference(self, other: "Coalition") -> "Coalition":
        instance(other, Coalition, self.n, "operand")
        return _coalition(self.n, self.mask & ~other.mask)

    def symmetric_difference(self, other: "Coalition") -> "Coalition":
        instance(other, Coalition, self.n, "operand")
        return _coalition(self.n, self.mask ^ other.mask)

    def issubset(self, other: "Coalition") -> bool:
        instance(other, Coalition, self.n, "operand")
        return self.mask & ~other.mask == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference
    __le__ = issubset

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(n={self.n!r}, mask={self.mask!r})"

    def __reduce__(self) -> tuple:
        return self.__class__, (self.n, self.mask)


# A coalition has no __dict__ for `Record.__init__` to fill: the slots' own
# setters store its fields past the frozen __setattr__.
_set_n = Coalition.n.__set__
_set_mask = Coalition.mask.__set__
_new = object.__new__


def _coalition(n: int, mask: int) -> Coalition:
    """`Coalition(n, mask)` without its two checks, for a mask known to fit n.

    Only for masks made by mask arithmetic on checked coalitions of one n,
    or read off a bitset over the 2^n masks of a checked n.
    """
    c = _new(Coalition)
    _set_n(c, n)
    _set_mask(c, mask)
    return c


def coalition_sort_key(c: Coalition) -> tuple[int, bytes]:
    """Canonical ordering for coalition lists: by size, then member tuple."""
    return canonical_key(c.mask, c.n)


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pack(flags: Sequence[bool] | bytes | bytearray) -> int:
    """The bitset whose bit m is ``flags[m]``, built by one base-2 `int()`."""
    return int(bytes(flags)[::-1].translate(_BINARY_DIGITS), 2)


def _bitset(masks: Iterable[int], n: int) -> int:
    """The bitset over the 2^n masks with exactly the bits ``masks`` set."""
    flags = bytearray(1 << n)
    for m in masks:
        flags[m] = 1
    return _pack(flags)


def _set_bits(bits: int) -> Iterator[int]:
    """The positions of the set bits of ``bits``, ascending, in linear time."""
    digits = bin(bits)[:1:-1]
    m = digits.find("1")
    while m >= 0:
        yield m
        m = digits.find("1", m + 1)


def _lacking(n: int) -> Iterator[tuple[int, int]]:
    """For each member bit i: ``(2**i, bitset of the masks without bit i)``.

    Over the 2^n masks the bitset is blocks of 2^i zeros above 2^i ones,
    written as one repeated base-2 string.
    """
    for i in range(n):
        step = 1 << i
        yield step, int(("0" * step + "1" * step) * (1 << (n - 1 - i)), 2)


class SimpleGame:
    """Base for all game expressions; subclasses implement `contains`."""

    n: int

    def contains(self, coalition: Coalition) -> bool:
        raise NotImplementedError

    def _winning_bits(self) -> int:
        """Bitset over all 2^n masks: bit m is set iff `Coalition(n, m)` wins.

        This is the definition: it asks `contains` once per mask.  Every game
        class here computes the same bitset directly; a subclass that only
        defines `contains` gets this one.
        """
        return _pack([self.contains(Coalition(self.n, m)) for m in range(1 << self.n)])

    def _check_dimension(self, coalition: Coalition) -> None:
        instance(coalition, Coalition, self.n, "coalition")


class WeightedGame(SimpleGame, Frozen):
    """Threshold rule: winning iff the members' weight sum meets the quota.

    Weights must be nonnegative; weights and quota are exact rationals, read
    by `_packed.exact`.  Membership compares integer copies of both, scaled
    by the least common multiple of their denominators, so it never depends
    on rounding and never touches a `Fraction`.  The scaled weight of a mask is
    the sum, over its bytes, of the byte's entry in that byte's partial-sum
    table; the tables are built on the first `contains` or `scaled_weight`
    call, so a game only ever scanned by `minimal_winning` builds none.
    """

    n: int
    weights: tuple[Fraction, ...]
    quota: Fraction

    def __init__(self, n: int, weights: Sequence[Fraction | int | str], quota: Fraction | int | str):
        integer(n, "member count", 1, MAX_MEMBERS)
        weights = tuple(exact(w, f"weight of member {i}") for i, w in enumerate(weights, 1))
        super().__init__(n, weights, exact(quota, "quota"))
        if len(self.weights) != n:
            raise ValueError(f"expected {n} weights, got {len(self.weights)}")
        for i, w in enumerate(self.weights):
            if w.numerator < 0:  # a Fraction's denominator is positive
                raise ValueError(f"weight of member {i + 1} is negative: {w}")
        scale = math.lcm(self.quota.denominator, *(w.denominator for w in self.weights))
        vars(self).update(
            _scaled_weights=tuple(w.numerator * (scale // w.denominator) for w in self.weights),
            _scaled_quota=self.quota.numerator * (scale // self.quota.denominator),
        )

    @cached_property
    def _byte_sums(self) -> tuple[list[int], ...]:
        # Table b lists the scaled weight of every subset of members
        # 8b+1..8b+8, indexed by that byte of the mask.  Kept in the instance
        # __dict__ but no field, so ==, hash and repr do not see it.
        return byte_tables(self._scaled_weights)

    def scaled_weight(self, coalition: Coalition) -> int:
        """The coalition's weight sum times the game's integer scale."""
        self._check_dimension(coalition)
        return table_sum(self._byte_sums, coalition.mask)

    def contains(self, coalition: Coalition) -> bool:
        return self.scaled_weight(coalition) >= self._scaled_quota

    def _winning_bits(self) -> int:
        quota = self._scaled_quota
        return _pack([s >= quota for s in subset_sums(self._scaled_weights)])


class ExplicitGame(SimpleGame, Frozen):
    """Game given by a listed winning family, evaluated under upward closure.

    The declared family is kept, deduplicated and canonically sorted, so
    `check_monotone` can detect a listing that is not upward closed;
    membership queries use only the minimal declared coalitions (any superset
    of one is winning), kept in the instance `__dict__` but no field.
    """

    n: int
    declared_winning: tuple[Coalition, ...]

    def __init__(self, n: int, winning: Iterable[Coalition]):
        integer(n, "member count", 1, MAX_MEMBERS)
        winning = of_kind(winning, Coalition, n, "declared winner", empty=True)
        super().__init__(n, tuple(sorted(set(winning), key=coalition_sort_key)))
        # Sorted by size first, so each kept mask contains no other.
        kept = PackedMasks(n)
        vars(self)["_minimal"] = tuple(
            c.mask for c in self.declared_winning if kept.add_minimal(c.mask))

    def contains(self, coalition: Coalition) -> bool:
        self._check_dimension(coalition)
        return any(m & coalition.mask == m for m in self._minimal)

    def _winning_bits(self) -> int:
        bits = _bitset(self._minimal, self.n)
        for step, lacking in _lacking(self.n):
            bits |= (bits & lacking) << step
        return bits


class _Combination(SimpleGame):
    """Parts over one member count, which `n` reads from the first part.

    A subclass joins the parts' verdicts by `_quantifier` and their winning
    bitsets by `_bit_join`.
    """

    def __init__(self, parts: Sequence[SimpleGame]):
        super().__init__(of_kind(parts, SimpleGame, None, "combination part"))

    @property
    def n(self) -> int:
        return self.parts[0].n

    def contains(self, coalition: Coalition) -> bool:
        self._check_dimension(coalition)
        return self._quantifier(g.contains(coalition) for g in self.parts)

    def _winning_bits(self) -> int:
        return reduce(self._bit_join, (g._winning_bits() for g in self.parts))


class IntersectionGame(_Combination, Frozen):
    """Winning iff winning in every part."""

    parts: tuple[SimpleGame, ...]
    _quantifier, _bit_join = all, operator.and_


class UnionGame(_Combination, Frozen):
    """Winning iff winning in at least one part."""

    parts: tuple[SimpleGame, ...]
    _quantifier, _bit_join = any, operator.or_


def all_coalitions(n: int) -> Iterator[Coalition]:
    """All 2**n coalitions over 1..n, in mask order."""
    for mask in range(1 << n):
        yield Coalition(n, mask)


def check_monotone(game: ExplicitGame) -> bool:
    """Whether the declared winning family is upward closed.

    A declared family passes iff every superset of a declared winner is
    itself declared, that is iff the bitset of the declared masks equals the
    game's winning bitset (the upward closure of its minimal declared
    coalitions, by n shift steps).  Both bitsets span all 2^n masks, so it is
    guarded at n <= 20.
    """
    if not isinstance(game, ExplicitGame):
        raise ValueError("check_monotone requires an explicitly listed game")
    integer(game.n, "check_monotone scans all 2^n coalitions, so n", 1, ENUMERATION_GUARD)
    return _bitset((c.mask for c in game.declared_winning), game.n) == game._winning_bits()


def minimal_winning(game: SimpleGame) -> tuple[Coalition, ...]:
    """The winning coalitions whose every proper subset loses, canonically sorted.

    Membership of every game expression here is monotone, so it suffices to
    test single-member removals.  With W the game's winning bitset, the shift
    step ``(W & lacking_i) << 2**i`` marks every mask that stays winning
    without member i; W minus the union of those n marks holds exactly the
    minimal winning masks, and a `Coalition` is built only for each of them.
    The bitsets span all 2^n masks, so it is guarded at n <= 20.
    """
    n = integer(game.n, "minimal_winning scans all 2^n coalitions, so n", 1, ENUMERATION_GUARD)
    winning = game._winning_bits()
    reducible = 0
    for step, lacking in _lacking(n):
        reducible |= (winning & lacking) << step
    return tuple(sorted(
        (_coalition(n, m) for m in _set_bits(winning & ~reducible)), key=coalition_sort_key))


# --- JSON descriptions -------------------------------------------------------
#
# Game: {"n": int, "kind": "weighted"|"explicit"|"intersection"|"union", ...}
# with weights/quota as strings parsed exactly (decimal "0.65" or ratio
# "13/20") and coalitions as sorted index arrays.


def coalitions_from_json(value: object, n: int, what: str) -> list[Coalition]:
    """Parse a list of index lists; raises ValueError on any other shape."""
    return [Coalition.from_indices(ix, n) for ix in listed(value, what, "member")]


def game_from_json(obj: dict) -> SimpleGame:
    """Parse the JSON game description; raises ValueError on malformed input."""
    n, kind = fields(obj, "game", "n", "kind")
    n = integer(n, "'n'", 1, MAX_MEMBERS)
    if kind == "weighted":
        weights, quota = fields(obj, "weighted game", "weights", "quota")
        return WeightedGame(n, listed(weights, "weights"), quota)
    if kind == "explicit":
        (winning,) = fields(obj, "explicit game", "winning")
        return ExplicitGame(n, coalitions_from_json(winning, n, "winning"))
    if kind in ("intersection", "union"):
        (parts,) = fields(obj, f"{kind} game", "parts")
        parts = [game_from_json(p) for p in listed(parts, "parts")]
        game = (IntersectionGame if kind == "intersection" else UnionGame)(parts)
        return instance(game, SimpleGame, n, f"{kind} game")
    raise ValueError(f"unknown game kind {kind!r}")


def game_to_json(game: SimpleGame) -> dict:
    if isinstance(game, WeightedGame):
        return {"n": game.n, "kind": "weighted", "weights": [str(w) for w in game.weights],
                "quota": str(game.quota)}
    if isinstance(game, ExplicitGame):
        return {"n": game.n, "kind": "explicit",
                "winning": [list(c.members) for c in game.declared_winning]}
    if isinstance(game, _Combination):
        kind = "intersection" if isinstance(game, IntersectionGame) else "union"
        return {"n": game.n, "kind": kind, "parts": [game_to_json(p) for p in game.parts]}
    raise ValueError(f"cannot serialize game of type {type(game).__name__}")
