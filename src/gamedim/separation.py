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

The solver is `simplex.phase_one` over x = (a, b) >= 0 and the {-1, 0, 1}
rows b - a(W) <= 0 and a(L) - b <= -1, whose columns are read off the
coalition masks (see `_columns`).  (The bound b >= 0 costs nothing: any
target forces b >= 1.)  A feasible vertex is re-checked by substitution,
through the byte tables of a weighted game over its numerators; an
infeasible system yields the optimal dual multipliers, a
nonnegative combination of the listed constraints that reads
0 <= total < 0, re-checked by combination.  Winning constraints that
contain another one and targets inside another target are dropped first,
by one packed zero-field test per coalition (see `_drop_containing`).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from fractions import Fraction

from ._record import Frozen
from .games import (
    Coalition,
    SimpleGame,
    WeightedGame,
    coalitions_from_json,
    minimal_winning,
)
from .simplex import phase_one

SEPARATION_GUARD = 14


class SeparationInstance(Frozen):
    """Winning coalitions to preserve and losing coalitions to separate."""

    _fields = ("n", "winning_constraints", "losing_targets")
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


class Separable(Frozen):
    """Witness weighted game: meets every winning constraint, misses every target."""

    _fields = ("weights", "quota")
    weights: tuple[Fraction, ...]
    quota: Fraction

    def __init__(self, weights: tuple[Fraction, ...], quota: Fraction):
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "quota", quota)


class NotSeparable(Frozen):
    """No separating weighted game exists.

    The nonnegative multipliers of `terms`, each tied to the label of one
    listed constraint, combine those constraints into 0 <= total < 0.
    """

    _fields = ("terms", "total")
    terms: tuple[tuple[Fraction, str], ...]
    total: Fraction

    def __init__(self, terms: tuple[tuple[Fraction, str], ...], total: Fraction):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "total", total)

    @property
    def farkas_note(self) -> str:
        return ("nonnegative combination "
                + " + ".join(f"{lam} * [{label}]" for lam, label in self.terms)
                + f" gives the contradiction 0 <= {self.total}")


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


# _ENTRY[e][b][x] is the signed byte e if bit b of the byte x is set, else 0:
# runs of 2**b zeros and 2**b bytes e, alternating.
_ENTRY = {e: [(bytes(1 << b) + bytes([e & 255]) * (1 << b)) * (128 >> b) for b in range(8)]
          for e in (-1, 1)}


def _columns(winning: Sequence[Coalition], losing: Sequence[Coalition], n: int
             ) -> list[memoryview]:
    """The columns of the rows b - a(W) <= 0, then a(L) - b <= -1.

    Over x = (weights, quota), each column holds one signed byte per row.
    Laid out mask after mask, the byte holding member j is one stepped
    slice per part, and one `bytes.translate` maps it to the entries.
    """
    width = (n + 7) // 8
    raw = b"".join(c.mask.to_bytes(width, "little") for c in (*winning, *losing))
    split = width * len(winning)
    columns = [raw[j >> 3:split:width].translate(_ENTRY[-1][j & 7])
               + raw[split + (j >> 3)::width].translate(_ENTRY[1][j & 7]) for j in range(n)]
    columns.append(b"\x01" * len(winning) + b"\xff" * len(losing))
    return [memoryview(c).cast("b") for c in columns]


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
    columns = _columns(winning, losing, n)
    feasible, values, denom = phase_one(columns, [0] * len(winning) + [-1] * len(losing))
    if feasible:
        # Substitute the numerators: every value shares the denominator, and
        # integer weights give a game of scale 1, whose scaled weights are
        # their sums.
        weights, quota = values[:n], values[n]
        if any(x < 0 for x in weights):
            raise RuntimeError("witness has a negative weight")
        game = WeightedGame(n, weights, 0)
        for w in instance.winning_constraints:
            if game.scaled_weight(w) < quota:
                raise RuntimeError(f"witness violates winning constraint {w}")
        for l in instance.losing_targets:
            if game.scaled_weight(l) > quota - denom:
                raise RuntimeError(f"witness violates losing target {l}")
        return Separable(tuple(Fraction(x, denom) for x in weights),
                         Fraction(quota, denom))

    # The simplex bounds x >= 0 are not listed constraints.  At the auxiliary
    # optimum y . A >= 0, so the rows weight >= 0, with multipliers
    # (y . A)[i], cancel the weights.  The quota coefficient of y . A is 0
    # there: were it positive, moving multiplier from a winning row to a
    # target would keep y . A >= 0 and improve on the optimum.
    farkas = [sum(map(operator.mul, values, columns[i])) for i in range(n)] + values

    # Each listed constraint as (members, their coefficient, the quota's, rhs).
    constraints = ([(1 << i, -1, 0, 0) for i in range(n)]
                   + [(w.mask, -1, 1, 0) for w in winning]
                   + [(l.mask, 1, -1, -1) for l in losing])
    labels = ([f"weight[{i + 1}] >= 0" for i in range(n)]
              + [f"weight({w}) >= quota" for w in winning]
              + [f"weight({l}) <= quota - 1" for l in losing])
    total = 0
    combined = [0] * (n + 1)
    terms = []
    for lam, (mask, member, on_quota, rhs), label in zip(farkas, constraints, labels):
        if lam < 0:
            raise RuntimeError("negative multiplier in refutation")
        if lam == 0:
            continue
        for j in range(n):
            if mask >> j & 1:
                combined[j] += lam * member
        combined[n] += lam * on_quota
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
