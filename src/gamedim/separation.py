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

with every entry negated when p < 0.  The division is exact because every
entry is, up to sign, a minor of the input.  A feasible vertex is re-checked
by substitution before it is returned.  An infeasible system yields the
optimal dual multipliers: a nonnegative combination of the listed
constraints that reads 0 <= total with total < 0, which is likewise
re-checked by combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .games import (
    Coalition,
    SimpleGame,
    coalitions_from_json,
    masked_sum,
    minimal_winning,
)

SEPARATION_GUARD = 14


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

    Some rhs must be negative.  Returns (True, x, D) with a feasible vertex
    x / D, or (False, y, D) with multipliers y / D >= 0 over the rows such
    that y . rows >= 0 componentwise and y . rhs < 0.  Variable ids: 0 is
    x0, 1..k the columns of `rows`, k+1+i the slack of row i; dictionary
    row i reads basic[i] = (T[i][0] + sum_j T[i][j] * cols[j]) / D.
    """
    k = len(rows[0])
    cols = [-1] + list(range(k + 1))
    basic = list(range(k + 1, k + 1 + len(rows)))
    table = [[b, 1] + [-a for a in row] for row, b in zip(rows, rhs)]
    obj = [0, -1] + [0] * k
    denom = 1
    r, s = min(range(len(rows)), key=rhs.__getitem__), 1
    while True:
        prow = table[r]
        p = prow[s]
        sign = 1 if p > 0 else -1
        pa = abs(p)
        for i, row in enumerate(table + [obj]):
            if i == r:
                continue
            f = row[s]
            if f:
                fs = f * sign
                new = [(x * pa - fs * y) // denom for x, y in zip(row, prow)]
                new[s] = fs
                row[:] = new
            elif pa != denom:
                row[:] = [x * pa // denom for x in row]
        new = [-sign * y for y in prow]
        new[s] = sign * denom
        table[r] = new
        denom = pa
        basic[r], cols[s] = cols[s], basic[r]

        # The auxiliary objective -x0 is never positive, so 0 is optimal.
        if obj[0] == 0:
            x = [0] * k
            for i, v in enumerate(basic):
                if 1 <= v <= k:
                    x[v - 1] = table[i][0]
            return True, x, denom
        entering = [(cols[j], j) for j in range(1, k + 2) if obj[j] > 0]
        if not entering:
            y = [0] * len(rows)
            for j in range(1, k + 2):
                if cols[j] > k:
                    y[cols[j] - k - 1] = -obj[j]
            return False, y, denom
        s = min(entering)[1]
        r = -1
        for i, row in enumerate(table):
            if row[s] >= 0:
                continue
            if r < 0:
                r = i
                continue
            # ratio row[0] / -row[s] against the best one, cross-multiplied
            lhs, best = row[0] * -table[r][s], table[r][0] * -row[s]
            if lhs < best or (lhs == best and basic[i] < basic[r]):
                r = i
        if r < 0:
            raise RuntimeError("auxiliary problem unbounded")


def _inclusion_minimal(coalitions: Sequence[Coalition]) -> list[Coalition]:
    # Bare masks, not Coalition.issubset: this loop is quadratic in the
    # hundreds of minimal winning coalitions of an n = 12 game.
    out: list[Coalition] = []
    masks: list[int] = []
    for c in sorted(coalitions, key=len):
        outside = ~c.mask
        if not any(o & outside == 0 for o in masks):
            out.append(c)
            masks.append(c.mask)
    return out


def _inclusion_maximal(coalitions: Sequence[Coalition]) -> list[Coalition]:
    out: list[Coalition] = []
    for c in sorted(coalitions, key=len, reverse=True):
        if not any(c.issubset(o) for o in out):
            out.append(c)
    return out


def lp_feasible(instance: SeparationInstance) -> Separable | NotSeparable:
    """Decide weighted separability of the instance in exact arithmetic.

    Variables are the n member weights plus the quota.  Winning constraints
    dominated by a subset constraint are dropped first (monotonicity makes
    the inclusion-minimal ones sufficient), as are losing targets contained
    in another target.
    """
    n = instance.n
    winning = _inclusion_minimal(instance.winning_constraints)
    losing = _inclusion_maximal(instance.losing_targets)
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
