"""Core model for coalitions and simple games.

A simple game over members 1..n is an upward-closed family of winning
coalitions.  Weighted games realize the threshold rule
``sum(weights[m] for m in C) >= quota``; arbitrary simple games are built as
unions and intersections of weighted or explicitly listed games.  Weights and
quota are exact rationals (``fractions.Fraction``); a weighted game scales them
once, by the least common multiple of their denominators, to integers.  Its
first `contains` or `scaled_weight` call then builds one table per byte of the
member mask, the scaled weight of every subset of those eight members, so a
weight sum is one integer table lookup per byte of the coalition's mask.
Nothing is ever rounded or computed in floating point.

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

from ._packed import MAX_MEMBERS, PackedMasks, canonical_key, mask_of, members
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
        if not 1 <= self.n <= MAX_MEMBERS:
            raise ValueError(f"member count must be in 1..{MAX_MEMBERS}, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"coalition mask {self.mask:#x} out of range for n={self.n}")

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

    def _check_same_ground(self, other: "Coalition") -> None:
        if self.n != other.n:
            raise ValueError(f"member count mismatch: {self.n} vs {other.n}")

    def union(self, other: "Coalition") -> "Coalition":
        self._check_same_ground(other)
        return Coalition(self.n, self.mask | other.mask)

    def intersection(self, other: "Coalition") -> "Coalition":
        self._check_same_ground(other)
        return Coalition(self.n, self.mask & other.mask)

    def difference(self, other: "Coalition") -> "Coalition":
        self._check_same_ground(other)
        return Coalition(self.n, self.mask & ~other.mask)

    def symmetric_difference(self, other: "Coalition") -> "Coalition":
        self._check_same_ground(other)
        return Coalition(self.n, self.mask ^ other.mask)

    def issubset(self, other: "Coalition") -> bool:
        self._check_same_ground(other)
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


def coalition_sort_key(c: Coalition) -> tuple[int, bytes]:
    """Canonical ordering for coalition lists: by size, then member tuple."""
    return canonical_key(c.mask, c.n)


def _subset_sums(values: Sequence[int]) -> list[int]:
    """Entry m is the sum of ``values[i]`` over the set bits i of m.

    Each value doubles the list: the masks with its bit are the masks
    without it, plus the value.
    """
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def byte_tables(values: Sequence[int]) -> tuple[list[int], ...]:
    """Table b lists the sum of every subset of ``values[8b:8b+8]``.

    Indexed by byte b of a mask, so `table_sum` adds a mask's values with
    one lookup per byte.
    """
    return tuple(_subset_sums(values[low:low + 8]) for low in range(0, len(values), 8))


def table_sum(tables: Sequence[list[int]], mask: int) -> int:
    """The sum of the values over the set bits of the mask, by `byte_tables`."""
    return sum(map(list.__getitem__, tables, mask.to_bytes(len(tables), "little")))


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
        if coalition.n != self.n:
            raise ValueError(
                f"member count mismatch: game over {self.n}, coalition over {coalition.n}"
            )


class WeightedGame(SimpleGame, Frozen):
    """Threshold rule: winning iff the members' weight sum meets the quota.

    Weights must be nonnegative; weights and quota are held as exact
    rationals.  Membership compares integer copies of both, scaled by the
    least common multiple of their denominators, so it never depends on
    rounding and never touches a `Fraction`.  The scaled weight of a mask is
    the sum, over its bytes, of the byte's entry in that byte's partial-sum
    table; the tables are built on the first `contains` or `scaled_weight`
    call, so a game only ever scanned by `minimal_winning` builds none.
    """

    n: int
    weights: tuple[Fraction, ...]
    quota: Fraction

    def __init__(self, n: int, weights: Sequence[Fraction | int | str], quota: Fraction | int | str):
        super().__init__(n, tuple(Fraction(w) for w in weights), Fraction(quota))
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
        return _pack([s >= quota for s in _subset_sums(self._scaled_weights)])


class ExplicitGame(SimpleGame):
    """Game given by a listed winning family, evaluated under upward closure.

    The declared family is kept verbatim so `check_monotone` can detect a
    listing that is not upward closed; membership queries use only the
    minimal declared coalitions (any superset of one is winning).
    """

    def __init__(self, n: int, winning: Iterable[Coalition]):
        self.n = n
        masks = set()
        for c in winning:
            if c.n != n:
                raise ValueError(f"coalition over {c.n} members in a game over {n}")
            masks.add(c.mask)
        self._declared = frozenset(masks)
        kept = PackedMasks(n)
        self._minimal = tuple(m for m in sorted(masks, key=int.bit_count) if kept.add_minimal(m))

    @property
    def declared_winning(self) -> tuple[Coalition, ...]:
        return tuple(
            sorted((Coalition(self.n, m) for m in self._declared), key=coalition_sort_key)
        )

    def contains(self, coalition: Coalition) -> bool:
        self._check_dimension(coalition)
        return any(m & coalition.mask == m for m in self._minimal)

    def _winning_bits(self) -> int:
        bits = _bitset(self._minimal, self.n)
        for step, lacking in _lacking(self.n):
            bits |= (bits & lacking) << step
        return bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplicitGame):
            return NotImplemented
        return self.n == other.n and self._declared == other._declared

    def __hash__(self) -> int:
        return hash((self.n, self._declared))

    def __repr__(self) -> str:
        return f"ExplicitGame(n={self.n}, winning={len(self._declared)} listed)"


def _common_n(parts: Sequence[SimpleGame]) -> int:
    if not parts:
        raise ValueError("combination over an empty list of games")
    n = parts[0].n
    for g in parts[1:]:
        if g.n != n:
            raise ValueError(f"member count mismatch among parts: {g.n} vs {n}")
    return n


class IntersectionGame(SimpleGame):
    """Winning iff winning in every part."""

    def __init__(self, parts: Sequence[SimpleGame]):
        self.parts = tuple(parts)
        self.n = _common_n(self.parts)

    def contains(self, coalition: Coalition) -> bool:
        self._check_dimension(coalition)
        return all(g.contains(coalition) for g in self.parts)

    def _winning_bits(self) -> int:
        return reduce(operator.and_, (g._winning_bits() for g in self.parts))


class UnionGame(SimpleGame):
    """Winning iff winning in at least one part."""

    def __init__(self, parts: Sequence[SimpleGame]):
        self.parts = tuple(parts)
        self.n = _common_n(self.parts)

    def contains(self, coalition: Coalition) -> bool:
        self._check_dimension(coalition)
        return any(g.contains(coalition) for g in self.parts)

    def _winning_bits(self) -> int:
        return reduce(operator.or_, (g._winning_bits() for g in self.parts))


def all_coalitions(n: int) -> Iterator[Coalition]:
    """All 2**n coalitions over 1..n, in mask order."""
    for mask in range(1 << n):
        yield Coalition(n, mask)


def _guard(n: int, what: str) -> None:
    if n < 1:
        raise ValueError(f"member count must be in 1..{MAX_MEMBERS}, got {n}")
    if n > ENUMERATION_GUARD:
        raise ValueError(
            f"{what} scans all 2^n coalitions and is limited to "
            f"n <= {ENUMERATION_GUARD}; got n = {n}"
        )


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
    _guard(game.n, "check_monotone")
    return _bitset(game._declared, game.n) == game._winning_bits()


def minimal_winning(game: SimpleGame) -> tuple[Coalition, ...]:
    """The winning coalitions whose every proper subset loses, canonically sorted.

    Membership of every game expression here is monotone, so it suffices to
    test single-member removals.  With W the game's winning bitset, the shift
    step ``(W & lacking_i) << 2**i`` marks every mask that stays winning
    without member i; W minus the union of those n marks holds exactly the
    minimal winning masks, and a `Coalition` is built only for each of them.
    The bitsets span all 2^n masks, so it is guarded at n <= 20.
    """
    _guard(game.n, "minimal_winning")
    winning = game._winning_bits()
    reducible = 0
    for step, lacking in _lacking(game.n):
        reducible |= (winning & lacking) << step
    return tuple(sorted(
        (Coalition(game.n, m) for m in _set_bits(winning & ~reducible)),
        key=coalition_sort_key,
    ))


# --- JSON descriptions -------------------------------------------------------
#
# Game: {"n": int, "kind": "weighted"|"explicit"|"intersection"|"union", ...}
# with weights/quota as strings parsed exactly (decimal "0.65" or ratio
# "13/20") and coalitions as sorted index arrays.


def coalitions_from_json(value: object, n: int, what: str) -> list[Coalition]:
    """Parse a list of index lists; raises ValueError on any other shape."""
    if not isinstance(value, list) or not all(isinstance(ix, list) for ix in value):
        raise ValueError(f"{what!r} must be a list of member index lists")
    return [Coalition.from_indices(ix, n) for ix in value]


def _fraction_from_json(value: int | str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer or exact string, got {value!r}")
    return Fraction(value)


def game_from_json(obj: dict) -> SimpleGame:
    """Parse the JSON game description; raises ValueError on malformed input."""
    if not isinstance(obj, dict) or "kind" not in obj or "n" not in obj:
        raise ValueError("game description needs 'n' and 'kind'")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("'n' must be an integer")
    kind = obj["kind"]

    def field(name: str) -> object:
        if name not in obj:
            raise ValueError(f"{kind} game description needs {name!r}")
        return obj[name]

    def listed(name: str) -> list:
        value = field(name)
        if not isinstance(value, list):
            raise ValueError(f"{name!r} must be a list")
        return value

    if kind == "weighted":
        return WeightedGame(
            n,
            [_fraction_from_json(w) for w in listed("weights")],
            _fraction_from_json(field("quota")),
        )
    if kind == "explicit":
        return ExplicitGame(n, coalitions_from_json(field("winning"), n, "winning"))
    if kind in ("intersection", "union"):
        parts = [game_from_json(p) for p in listed("parts")]
        cls = IntersectionGame if kind == "intersection" else UnionGame
        return cls(parts)
    raise ValueError(f"unknown game kind {kind!r}")


def game_to_json(game: SimpleGame) -> dict:
    if isinstance(game, WeightedGame):
        return {
            "n": game.n,
            "kind": "weighted",
            "weights": [str(w) for w in game.weights],
            "quota": str(game.quota),
        }
    if isinstance(game, ExplicitGame):
        return {
            "n": game.n,
            "kind": "explicit",
            "winning": [list(c.members) for c in game.declared_winning],
        }
    if isinstance(game, IntersectionGame):
        return {"n": game.n, "kind": "intersection", "parts": [game_to_json(p) for p in game.parts]}
    if isinstance(game, UnionGame):
        return {"n": game.n, "kind": "union", "parts": [game_to_json(p) for p in game.parts]}
    raise ValueError(f"cannot serialize game of type {type(game).__name__}")
