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
rows b - a(W) <= 0 and a(L) - b <= -1.  Member i is bit i - 1 and the
quota is bit n, so the rows go to the solver as the mask pairs
(1 << n, W) and (L, 1 << n).  (The bound b >= 0 costs nothing: any target
forces b >= 1.)  A feasible vertex is re-checked by substitution, through
byte tables of its integer numerators (`_packed.byte_tables`), read for
all listed coalitions at once (`_packed.table_sums`).  An infeasible
system yields Phase I's Farkas certificate: multipliers of the bounds
x >= 0, then of the rows, a nonnegative combination of the listed
constraints that reads 0 <= total < 0.  Every constraint, bound or row, is
one (plus, minus, rhs, label), and the combination is re-checked over
that one list.  Winning constraints that contain another one and targets
inside another target are dropped first, by one pass of packed zero-field
tests over the masks sorted by size (`PackedMasks.add_minimal`).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import compress, repeat
from operator import attrgetter

from . import _packed
from ._packed import MAX_MEMBERS, PackedMasks, byte_tables, fields, integer, of_kind, table_sums
from ._record import Frozen
from .games import Coalition, SimpleGame, _coalition, coalitions_from_json, minimal_winning
from .simplex import phase_one

SEPARATION_GUARD = 14

_mask = attrgetter("mask")


class SeparationInstance(Frozen):
    """Winning coalitions to preserve and losing coalitions to separate."""

    n: int
    winning_constraints: tuple[Coalition, ...]
    losing_targets: tuple[Coalition, ...]

    def __init__(self, n: int, winning_constraints: Sequence[Coalition],
                 losing_targets: Sequence[Coalition]):
        integer(n, "member count", 1, MAX_MEMBERS)
        super().__init__(n, of_kind(winning_constraints, Coalition, n, "winning constraint"),
                         of_kind(losing_targets, Coalition, n, "losing target"))


class Separable(Frozen):
    """Witness weighted game: meets every winning constraint, misses every target."""

    weights: tuple[Fraction, ...]
    quota: Fraction


class NotSeparable(Frozen):
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


def _inclusion_minimal(masks: Sequence[int], n: int) -> list[int]:
    """The masks with no other listed mask inside, each once, in order of size."""
    masks = sorted(masks, key=int.bit_count)
    return list(compress(masks, PackedMasks(n).add_minimal(masks)))


def _inclusion_maximal(masks: Sequence[int], n: int) -> list[int]:
    """The masks inside no other listed mask, each once, largest first.

    c lies inside o iff the complement of o lies inside that of c.
    """
    full = (1 << n) - 1
    return list(map(full.__xor__, _inclusion_minimal(list(map(full.__xor__, masks)), n)))


def lp_feasible(instance: SeparationInstance) -> Separable | NotSeparable:
    """Decide weighted separability of the instance in exact arithmetic.

    Variables are the n member weights plus the quota.  Winning constraints
    dominated by a subset constraint are dropped first (monotonicity makes
    the inclusion-minimal ones sufficient), as are losing targets contained
    in another target.
    """
    n = _packed.instance(instance, SeparationInstance, None, "separation instance").n
    quota = 1 << n  # the quota's bit; member i is bit i - 1
    listed = (list(map(_mask, instance.winning_constraints)),
              list(map(_mask, instance.losing_targets)))
    winning = _inclusion_minimal(listed[0], n)
    losing = _inclusion_maximal(listed[1], n)
    rows = [*zip(repeat(quota), winning), *zip(losing, repeat(quota))]
    feasible, values, denom = phase_one(rows, [0] * len(winning) + [-1] * len(losing), n + 1)
    if feasible:
        # Substitute the numerators: every value shares the denominator, so
        # the checks compare integer weight sums, read off byte tables.
        weights, b = values[:n], values[n]
        if any(x < 0 for x in weights):
            raise RuntimeError("witness has a negative weight")
        tables = byte_tables(weights)
        for masks, fails, what in ((listed[0], b.__gt__, "winning constraint"),
                                   (listed[1], (b - denom).__lt__, "losing target")):
            for m in compress(masks, map(fails, table_sums(tables, masks))):
                raise RuntimeError(f"witness violates {what} {_coalition(n, m)}")
        return Separable(tuple(Fraction(x, denom) for x in weights), Fraction(b, denom))

    # Each listed constraint as (plus, minus, rhs, label): the masks of the
    # variables with coefficient +1 and -1 in plus . x - minus . x <= rhs.
    # The certificate weighs the bounds x >= 0 first, then the rows.
    constraints = ([(0, 1 << i, 0, f"weight[{i + 1}] >= 0") for i in range(n)]
                   + [(0, quota, 0, "quota >= 0")]
                   + [(quota, w, 0, f"weight({_coalition(n, w)}) >= quota") for w in winning]
                   + [(l, quota, -1, f"weight({_coalition(n, l)}) <= quota - 1") for l in losing])
    total = 0
    combined = [0] * (n + 1)
    terms = []
    for lam, (plus, minus, rhs, label) in zip(values, constraints):
        if lam < 0:
            raise RuntimeError("negative multiplier in refutation")
        if lam == 0:
            continue
        for j in range(n + 1):
            combined[j] += lam * ((plus >> j & 1) - (minus >> j & 1))
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
    _packed.instance(game, SimpleGame, None, "game")
    integer(game.n, "the exhaustive non-separability check solves an LP over all minimal "
            "winning coalitions, so n", 1, SEPARATION_GUARD)
    targets = of_kind(targets, Coalition, game.n, "losing target")
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
    n, winning, losing = fields(obj, "instance", "n", "winning_constraints", "losing_targets")
    n = integer(n, "'n'", 1, MAX_MEMBERS)
    return SeparationInstance(n, coalitions_from_json(winning, n, "winning_constraints"),
                              coalitions_from_json(losing, n, "losing_targets"))
