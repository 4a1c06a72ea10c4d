"""Exact feasibility oracle for weighted separation.

Decides whether some weighted game can keep a given list of winning
coalitions winning while declaring a given list of losing coalitions losing,
i.e. whether nonnegative weights a and a quota b exist with

    a(W) >= b      for every winning constraint W,
    a(L) <  b      for every losing target L.

Gap normalization lemma: the strict inequalities a(L) < b may be replaced by
a(L) <= b - 1 without changing feasibility.  If (a, b) satisfies the strict
system over the rationals, scaling both by k = 1 / min(b - a(L)) > 0 gives a
solution with gap at least 1; conversely any gap-1 solution is strictly
feasible.  All closed constraints are invariant under positive scaling.

The solver is a Phase-I simplex over x = (a, b) >= 0 and the rows
b - a(W) <= 0 and a(L) - b <= -1, written A x <= r.  (The bound b >= 0 costs
nothing: any target forces b >= 1.)  It maximizes -x0 over Chvatal's
auxiliary problem A x - x0 <= r, x0 >= 0: one pivot that lets x0 enter on the
row with the most negative right-hand side makes the origin's dictionary
feasible, and the system is feasible iff the optimum is 0.  Entering and
leaving variables follow Bland's smallest-index rule, which cannot cycle, so
the solver always terminates.  Arithmetic is exact in Python integers: all
dictionary entries share one positive denominator D, and a pivot on entry
p = T[r][s] is the integer-preserving (Edmonds/Bareiss) update

    T'[i][j] = (T[i][j] * p - T[i][s] * T[r][j]) / D,    D' = |p|,

with every entry negated when p < 0.  A feasible vertex is re-checked
by substitution before it is returned.  An infeasible system yields the
optimal dual multipliers: a nonnegative combination of the listed
constraints that reads 0 <= total with total < 0, which is likewise
re-checked by combination.  Before the solve, winning constraints that
contain another one and targets inside another target are dropped, by one
packed zero-field test per coalition (see `_drop_containing`).

Packed columns.  The dictionary is stored by column, one Python int per
column: row i sits in the W-bit field at bit W*i, as the signed sum
sum_i T[i][j] * 2**(W*i).  Every entry, and D itself, is up to sign a
minor of order at most n+3 of the {-1, 0, 1} matrix [r | 1 | -A], so by
Hadamard's bound its absolute value is at most (n+3)**((n+3)/2).  W is the
bit length of that bound plus a sign bit, rounded up to whole bytes: 32
bits at n = 12, 80 at n = 28.  Since the update is linear in each column,
a pivot is one multiply, subtract and divide per column,

    col_j' = (|p| * col_j - sign(p) * T[r][j] * col_s) / D,

followed by writing the new pivot-row entry into field r, which the
update leaves at 0.  The products may overflow a field into its
neighbours, but the sum they form is exact: each field's numerator is a
multiple of D, so the whole integer is too, and the quotient is again a
signed sum whose fields lie within the bound.  To read a column, adding
2**(W-1) to every field makes all of them nonnegative, and one `to_bytes`
gives the fields as byte slices; the ratio test reads only columns 0 and
s, and only the rows whose field in column s is negative.  The objective
row is a short list.  Packing changes where the entries are stored, not
their exact values, so Bland's rule picks the pivots it would pick on a
row-by-row tableau, and every witness and refutation follows from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Sequence

from .games import (
    Coalition,
    SimpleGame,
    coalitions_from_json,
    masked_sum,
    minimal_winning,
)

SEPARATION_GUARD = 14

# bytes.translate table: 1 for the top byte of a negative offset field.
_NEGATIVE = bytes(b < 0x80 for b in range(256))


@dataclass(frozen=True)
class SeparationInstance:
    """Winning coalitions to preserve and losing coalitions to separate."""

    n: int
    winning_constraints: tuple[Coalition, ...]
    losing_targets: tuple[Coalition, ...]

    def __init__(self, n: int, winning_constraints: Sequence[Coalition],
                 losing_targets: Sequence[Coalition]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "winning_constraints", tuple(winning_constraints))
        object.__setattr__(self, "losing_targets", tuple(losing_targets))
        if not self.winning_constraints:
            raise ValueError("winning_constraints must be non-empty")
        if not self.losing_targets:
            raise ValueError("losing_targets must be non-empty")
        for c in self.winning_constraints + self.losing_targets:
            if c.n != n:
                raise ValueError(f"coalition over {c.n} members in an instance over {n}")


@dataclass(frozen=True)
class Separable:
    """Witness weighted game: meets every winning constraint, misses every target."""

    weights: tuple[Fraction, ...]
    quota: Fraction


@dataclass(frozen=True)
class NotSeparable:
    """No separating weighted game exists.

    The nonnegative multipliers of `terms`, each tied to the label of one
    listed constraint, combine those constraints into 0 <= total < 0.
    """

    terms: tuple[tuple[Fraction, str], ...]
    total: Fraction

    @property
    def farkas_note(self) -> str:
        return ("nonnegative combination "
                + " + ".join(f"{lam} * [{label}]" for lam, label in self.terms)
                + f" gives the contradiction 0 <= {self.total}")


def _phase_one(rows: list[list[int]], rhs: list[int]) -> tuple[bool, list[int], int]:
    """Chvatal's auxiliary problem for rows . x <= rhs, x >= 0.

    Entries of `rows` and `rhs` lie in {-1, 0, 1}, and some rhs is negative.
    Returns (True, x, D) with a feasible vertex x / D, or (False, y, D) with
    multipliers y / D >= 0 over the rows such that y . rows >= 0
    componentwise and y . rhs < 0.  Variable ids: 0 is x0, 1..k the columns
    of `rows`, k+1+i the slack of row i; dictionary row i reads
    basic[i] = (T[i][0] + sum_j T[i][j] * cols[j]) / D.  Column j of T is
    the packed integer table[j] (see the module docstring); the objective
    row is the list obj.
    """
    m, k = len(rows), len(rows[0])
    order = k + 2
    width = (math.isqrt(order ** order).bit_length() + 8) // 8
    shift = 8 * width
    half = 1 << (shift - 1)
    field = (1 << shift) - 1
    size = width * m
    ones = int.from_bytes(b"\x01".ljust(width, b"\0") * m, "little")
    offsets = half * ones

    codes = {v: (v + half).to_bytes(width, "little") for v in (-1, 0, 1)}

    def pack(values) -> int:
        return int.from_bytes(b"".join(map(codes.__getitem__, values)), "little") - offsets

    def fields(column: int) -> bytes:
        return (column + offsets).to_bytes(size, "little")

    def entry(raw: bytes, i: int) -> int:
        return int.from_bytes(raw[i * width:(i + 1) * width], "little") - half

    cols = [-1] + list(range(k + 1))
    basic = list(range(k + 1, k + 1 + m))
    table = [pack(rhs), ones] + [-pack(col) for col in zip(*rows)]
    obj = [0, -1] + [0] * k
    denom = 1
    r, s = min(range(m), key=rhs.__getitem__), 1
    while True:
        at = shift * r
        prow = [((c + offsets) >> at & field) - half for c in table]
        p = prow[s]
        sign = 1 if p > 0 else -1
        pa = abs(p)
        col_s = table[s]
        fs = obj[s] * sign
        for j, y in enumerate(prow):
            if j == s:
                continue
            c = sign * y
            if c:
                table[j] = (pa * table[j] - c * col_s) // denom - (c << at)
            elif pa != denom:
                table[j] = pa * table[j] // denom
            obj[j] = (obj[j] * pa - fs * y) // denom
        table[s] = sign * (col_s + ((denom - p) << at))
        obj[s] = fs
        denom = pa
        basic[r], cols[s] = cols[s], basic[r]

        # The auxiliary objective -x0 is never positive, so 0 is optimal.
        if obj[0] == 0:
            x = [0] * k
            raw = fields(table[0])
            for i, v in enumerate(basic):
                if 1 <= v <= k:
                    x[v - 1] = entry(raw, i)
            return True, x, denom
        entering = [(cols[j], j) for j in range(1, k + 2) if obj[j] > 0]
        if not entering:
            y = [0] * m
            for j in range(1, k + 2):
                if cols[j] > k:
                    y[cols[j] - k - 1] = -obj[j]
            return False, y, denom
        s = min(entering)[1]
        raw_s, raw_0 = fields(table[s]), fields(table[0])
        # A field is negative iff its top byte, offset by half, is below 0x80.
        r = -1
        for i in compress(range(m), raw_s[width - 1::width].translate(_NEGATIVE)):
            a, b = entry(raw_s, i), entry(raw_0, i)
            if r < 0:
                r, best_a, best_b = i, a, b
                continue
            # ratio b / -a against the best one, cross-multiplied
            lhs, best = b * -best_a, best_b * -a
            if lhs < best or (lhs == best and basic[i] < basic[r]):
                r, best_a, best_b = i, a, b
        if r < 0:
            raise RuntimeError("auxiliary problem unbounded")


def _drop_containing(ordered: Sequence[Coalition], masks: Sequence[int], n: int
                     ) -> list[Coalition]:
    """Keep each coalition whose mask contains no mask kept before it.

    The kept masks sit in one packed int, one (n+1)-bit field each, whose
    top bit is a guard.  Field i of packed & (outside * ones) is zero iff
    kept mask i lies inside the candidate; with the guards set, subtracting
    one per field clears exactly those fields' guards and borrows nothing
    across fields.
    """
    full = (1 << n) - 1
    packed = ones = guards = at = 0
    out: list[Coalition] = []
    for c, m in zip(ordered, masks):
        if (((packed & ((full ^ m) * ones)) | guards) - ones) & guards == guards:
            out.append(c)
            packed |= m << at
            ones |= 1 << at
            guards |= 1 << (at + n)
            at += n + 1
    return out


def _inclusion_minimal(coalitions: Sequence[Coalition], n: int) -> list[Coalition]:
    """Coalitions with no other listed coalition inside, in order of size."""
    ordered = sorted(coalitions, key=len)
    return _drop_containing(ordered, [c.mask for c in ordered], n)


def _inclusion_maximal(coalitions: Sequence[Coalition], n: int) -> list[Coalition]:
    """Coalitions inside no other listed coalition, largest first.

    c lies inside o iff the complement of o lies inside that of c.
    """
    ordered = sorted(coalitions, key=len, reverse=True)
    full = (1 << n) - 1
    return _drop_containing(ordered, [full ^ c.mask for c in ordered], n)


def lp_feasible(instance: SeparationInstance) -> Separable | NotSeparable:
    """Decide weighted separability of the instance in exact arithmetic.

    Variables are the n member weights plus the quota.  Winning constraints
    dominated by a subset constraint are dropped first (monotonicity makes
    the inclusion-minimal ones sufficient), as are losing targets contained
    in another target.
    """
    n = instance.n
    winning = _inclusion_minimal(instance.winning_constraints, n)
    losing = _inclusion_maximal(instance.losing_targets, n)
    # Rows sum(coeffs[j] * x_j) <= rhs over x = (weights, quota): first the
    # n bounds weight >= 0, then one row per winning constraint and target.
    constraints: list[tuple[list[int], int]] = []
    for i in range(n):
        coeffs = [0] * (n + 1)
        coeffs[i] = -1
        constraints.append((coeffs, 0))
    for w in winning:
        constraints.append(([-(w.mask >> i & 1) for i in range(n)] + [1], 0))
    for l in losing:
        constraints.append(([l.mask >> i & 1 for i in range(n)] + [-1], -1))

    rows = constraints[n:]
    feasible, values, denom = _phase_one([c for c, _ in rows], [r for _, r in rows])
    if feasible:
        # Substitute the numerators: every value shares the denominator.
        weights, quota = values[:n], values[n]
        for w in instance.winning_constraints:
            if masked_sum(weights, w.mask) < quota:
                raise RuntimeError(f"witness violates winning constraint {w}")
        for l in instance.losing_targets:
            if masked_sum(weights, l.mask) > quota - denom:
                raise RuntimeError(f"witness violates losing target {l}")
        if any(x < 0 for x in weights):
            raise RuntimeError("witness has a negative weight")
        return Separable(tuple(Fraction(x, denom) for x in weights),
                         Fraction(quota, denom))

    # The simplex bounds x >= 0 are not listed constraints.  At the auxiliary
    # optimum y . A >= 0, so the rows weight >= 0, with multipliers
    # (y . A)[i], cancel the weights.  The quota coefficient of y . A is 0
    # there: were it positive, moving multiplier from a winning row to a
    # target would keep y . A >= 0 and improve on the optimum.
    farkas = [sum(lam * coeffs[i] for lam, (coeffs, _) in zip(values, rows))
              for i in range(n)] + values

    labels = ([f"weight[{i + 1}] >= 0" for i in range(n)]
              + [f"weight({w}) >= quota" for w in winning]
              + [f"weight({l}) <= quota - 1" for l in losing])
    total = 0
    combined = [0] * (n + 1)
    terms = []
    for lam, (coeffs, rhs), label in zip(farkas, constraints, labels):
        if lam < 0:
            raise RuntimeError("negative multiplier in refutation")
        if lam == 0:
            continue
        for j, c in enumerate(coeffs):
            combined[j] += lam * c
        total += lam * rhs
        terms.append((Fraction(lam, denom), label))
    if any(combined) or total >= 0:
        raise RuntimeError("refutation does not combine to a contradiction")
    return NotSeparable(tuple(terms), Fraction(total, denom))


def is_nonseparable_exhaustive(game: SimpleGame, targets: Sequence[Coalition]) -> bool:
    """Ground truth for non-separability on small games.

    True iff no single weighted game can extend `game` while losing every
    coalition in `targets`, decided against all minimal winning coalitions.
    Guarded at n <= 14.
    """
    if game.n > SEPARATION_GUARD:
        raise ValueError(
            f"exhaustive non-separability check limited to n <= {SEPARATION_GUARD}; "
            f"got n = {game.n}"
        )
    targets = tuple(targets)
    if not targets:
        raise ValueError("no losing targets given")
    for c in targets:
        if game.contains(c):
            raise ValueError(f"target {c} is winning, not losing")
    winning = minimal_winning(game)
    if not winning:
        # With no winning coalitions, any positive quota separates.
        return False
    result = lp_feasible(SeparationInstance(game.n, winning, targets))
    return isinstance(result, NotSeparable)


def instance_from_json(obj: dict) -> SeparationInstance:
    """Parse {"n": int, "winning_constraints": [[...]], "losing_targets": [[...]]}."""
    if not isinstance(obj, dict):
        raise ValueError("instance description must be an object")
    try:
        n = obj["n"]
        winning = obj["winning_constraints"]
        losing = obj["losing_targets"]
    except KeyError as missing:
        raise ValueError(f"instance description misses key {missing}") from None
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("'n' must be an integer")
    return SeparationInstance(
        n,
        coalitions_from_json(winning, n, "winning_constraints"),
        coalitions_from_json(losing, n, "losing_targets"),
    )
