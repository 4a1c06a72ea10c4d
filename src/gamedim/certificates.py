"""Non-separability certificates for sets of losing coalitions.

A balance certificate pairs losing coalitions N with at least as many
winning coalitions W* such that every member sits in exactly as many
coalitions of W* as of N.  Any weighted game that keeps all of W* winning
then assigns N a total weight of at least quota * |W*|, so some coalition in
N meets the quota: no single weighted game extending the target game can
declare all of N losing.

For the council game the certificates for the bundled pair family are built
by two constructions, both of them one `transfer_split`:

* transfer pairs: the transfer A is the OUTRIGHT_QUOTA - |Li & Lj|
  least-population members of the symmetric difference of Li and Lj,
  giving W1 = A | (Li & Lj) with `OUTRIGHT_QUOTA` members (winning
  outright) and W2 = (Li | Lj) - A (winning on members and population).
  No other transfer can do better: W2's member count is fixed, and the
  cheapest transfer leaves it the most population;
* anchor pairs with L15: swap the two least-population members of
  Li - L15 against the largest-population member of L15 - Li.  That is the
  transfer split of Li and L15 whose transfer is the rest of Li - L15 plus
  the incoming member.

Both constructions pick members from one order per member table,
`MemberTable.cheapest_first` (by population, then index), so population
ties always go toward the smaller index, and they build the transfer and
the two halves on the coalition masks.

The 5 triple certificates take as witnesses the three of W1..W12 whose
per-member counts equal the triple's.  Every builder ends in one
`verify_balance` of the certificate it returns, against the game itself.

`nonseparable_family` builds every edge by the public builder of its kind.
The pair and anchor builders check their argument types first, then build
and verify; they classify their coalitions by `EuGame._rules` only when no
certificate comes out, and then raise the first failing check.  Every
certificate, built or handed in, is a `BalanceCertificate`, which checks
and sorts its two sides.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import combinations
from operator import attrgetter

from ._packed import fields, instance, of_kind
from ._record import Frozen
from .cover import Hypergraph, enumerate_maximal_independent, min_cover
from .eu import (
    ANCHOR_LABEL,
    LOSING_FAMILY,
    NONSEPARABLE_PAIRS,
    NONSEPARABLE_TRIPLES,
    N_MEMBERS,
    OUTRIGHT_QUOTA,
    WINNING_FAMILY,
    EuGame,
    _label_sets,
)
from .games import Coalition, SimpleGame, _coalition, coalition_sort_key, coalitions_from_json


_mask = attrgetter("mask")


class CertificateError(RuntimeError):
    """A certificate could not be constructed or failed verification."""


class BalanceCertificate(Frozen):
    """Losing set N and winning set W* with equal per-member incidence counts."""

    losing: tuple[Coalition, ...]
    winning: tuple[Coalition, ...]

    def __init__(self, losing: Iterable[Coalition], winning: Iterable[Coalition]):
        """Each side sorted by `coalition_sort_key`, over the first losing one's n.

        Raises ValueError for an empty side, an item that is no coalition
        over that n, or a mask listed twice on one side.
        """
        losing = of_kind(losing, Coalition, None, "losing coalition")
        winning = of_kind(winning, Coalition, losing[0].n, "winning coalition")
        losing = tuple(sorted(losing, key=coalition_sort_key))
        winning = tuple(sorted(winning, key=coalition_sort_key))
        if (len(set(map(_mask, losing))) != len(losing)
                or len(set(map(_mask, winning))) != len(winning)):
            raise ValueError("certificate lists a coalition twice")
        vars(self).update(losing=losing, winning=winning)

    @property
    def n(self) -> int:
        return self.losing[0].n

    def incidence_balanced(self) -> bool:
        """Whether every member sits in as many losing as winning coalitions.

        Compares the two sides' per-member counts as bit planes (see
        `incidence_planes`): equal counts give equal plane lists.
        """
        return (incidence_planes(map(_mask, self.losing))
                == incidence_planes(map(_mask, self.winning)))


def incidence_planes(masks: Iterable[int]) -> list[int]:
    """Per-member incidence counts of the masks, as bit planes.

    Bit i of plane k is bit k of the number of masks holding bit i.  Each
    mask is added to all counts at once by ripple carry: plane k takes the
    incoming carry by XOR, and the bits where both were set carry into plane
    k + 1.  The last plane holds the top bit of the largest count, so it is
    never 0, and two mask lists have equal counts iff their plane lists are
    equal.
    """
    planes: list[int] = []
    for carry in masks:
        k = 0
        while carry:
            if k == len(planes):
                planes.append(carry)
                break
            plane = planes[k]
            planes[k] = plane ^ carry
            carry &= plane
            k += 1
    return planes


def verify_balance(cert: BalanceCertificate, game: SimpleGame) -> bool:
    """Check the three certificate conditions against the game.

    True iff |W*| >= |N|, the member incidences balance exactly, every listed
    losing coalition loses and every listed winning coalition wins.
    """
    n = instance(game, SimpleGame, None, "game").n
    instance(cert, BalanceCertificate, n, "certificate")
    return (len(cert.winning) >= len(cert.losing) and cert.incidence_balanced()
            and not any(map(game.contains, cert.losing))
            and all(map(game.contains, cert.winning)))


def transfer_split(li: Coalition, lj: Coalition, transfer: Coalition
                   ) -> tuple[Coalition, Coalition]:
    """The balanced pair (transfer | (li & lj), (li | lj) - transfer).

    Balances incidences against {li, lj} for any transfer set inside the
    symmetric difference: shared members land in both halves, each member of
    the symmetric difference in exactly one.
    """
    n = instance(li, Coalition, None, "first coalition").n
    instance(lj, Coalition, n, "second coalition")
    instance(transfer, Coalition, n, "transfer")
    a, b, moved = li.mask, lj.mask, transfer.mask
    if moved & ~(a ^ b):
        raise ValueError("transfer set must lie in the symmetric difference")
    return _split(n, a, b, moved)


def _split(n: int, a: int, b: int, moved: int) -> tuple[Coalition, Coalition]:
    """`transfer_split` of the masks a and b, unchecked: moved lies in a ^ b."""
    return _coalition(n, moved | (a & b)), _coalition(n, (a | b) ^ moved)


def _first(entries: Iterable[tuple[int, int]], mask: int, count: int) -> int:
    """The first ``count`` members of ``mask`` among (population, bit) entries, as a mask."""
    picked = 0
    for _, bit in entries:
        if not count:
            break
        if bit & mask:
            picked |= bit
            count -= 1
    return picked


def build_pair_certificate(li: Coalition, lj: Coalition, game: EuGame) -> BalanceCertificate:
    """Certificate for two losing coalitions that pass the member rule.

    Transfers the OUTRIGHT_QUOTA - |li & lj| least-population members of the
    symmetric difference, ties broken toward smaller member indices: the
    first ones in the table's `cheapest_first` order.  That one transfer
    decides: W1 always has OUTRIGHT_QUOTA members and wins, and W2 has a
    fixed member count, so its population, the only thing a transfer choice
    changes, is largest for the cheapest transfer.  If that W2 loses, every
    other transfer's W2 loses too.

    The rule checks on li and lj run only when no certificate comes out:
    one that verifies passes them.  It lists li and lj as losing, so each
    has fewer than OUTRIGHT_QUOTA members, and W2 as winning, so W2's
    |li| + |lj| - OUTRIGHT_QUOTA members are at least MEMBER_QUOTA.  Each of
    li and lj then has more than MEMBER_QUOTA members and, losing, fails
    the population rule.
    """
    game = instance(game, EuGame, N_MEMBERS, "game")
    if li == lj:
        raise ValueError("pair certificate needs two distinct losing coalitions")
    of_kind((li, lj), Coalition, N_MEMBERS, "coalition")
    a, b = li.mask, lj.mask
    sym = a ^ b
    size = max(0, OUTRIGHT_QUOTA - (a & b).bit_count())
    if size <= sym.bit_count():
        # The size cheapest are sym without its dearest sym.bit_count() - size:
        # the members Li and Lj do not share sit mostly at the dear end.
        cheapest = sym ^ _first(reversed(game.table.cheapest_first), sym, sym.bit_count() - size)
        cert = BalanceCertificate((li, lj), _split(N_MEMBERS, a, b, cheapest))
        if verify_balance(cert, game):
            return cert
    for c, name in ((li, "first"), (lj, "second")):
        winning, rule55, rule65, _, _ = game._rules(c)
        if winning:
            raise ValueError(f"{name} coalition {c} is winning")
        if not rule55 or rule65:
            raise ValueError(
                f"{name} coalition {c} must pass the member rule and fail the population rule")
    if size > sym.bit_count():
        raise CertificateError(f"symmetric difference of {li} and {lj} has only "
                               f"{sym.bit_count()} members, need {size}")
    raise CertificateError(
        f"no transfer of {size} members makes both halves of {li}, {lj} winning")


def build_anchor_certificate(li: Coalition, game: EuGame) -> BalanceCertificate:
    """Certificate for a losing coalition paired with the anchor L15.

    Exchanges the two least-population members of li outside the anchor
    against the largest-population member of the anchor outside li; ties are
    broken toward smaller member indices.  Both are read off the table's
    `cheapest_first` order: the first two members of li - anchor, and the
    first member of the last population run in anchor - li.  The exchange is
    the transfer split of li and the anchor that moves everything else of
    li - anchor, plus the incoming member, into W1.

    The rule check on li runs only when no certificate comes out: a
    certificate that verifies lists li as losing, which is all it asks.
    """
    game = instance(game, EuGame, N_MEMBERS, "game")
    anchor = LOSING_FAMILY[ANCHOR_LABEL - 1]
    if li == anchor:
        raise ValueError("anchor certificate needs a coalition distinct from the anchor")
    outside = instance(li, Coalition, N_MEMBERS, "coalition").mask & ~anchor.mask
    incoming = anchor.mask & ~li.mask
    if outside.bit_count() >= 2 and incoming:
        order = game.table.cheapest_first
        dropped = _first(order, outside, 2)
        candidates = [(pop, bit) for pop, bit in order if bit & incoming]
        top = candidates[-1][0]
        one_in = next(bit for pop, bit in candidates if pop == top)
        cert = BalanceCertificate((li, anchor), _split(
            N_MEMBERS, li.mask, anchor.mask, (outside ^ dropped) | one_in))
        if verify_balance(cert, game):
            return cert
    # The anchor has fewer than MEMBER_QUOTA members, so it loses under
    # every member table; only li can be winning.
    if game._rules(li)[0]:
        raise ValueError(f"coalition {li} is winning")
    if outside.bit_count() < 2:
        raise ValueError(f"{li} has fewer than two members outside the anchor {anchor}")
    if not incoming:
        raise ValueError(f"the anchor {anchor} has no member outside {li}")
    raise CertificateError(f"exchange between {li} and the anchor leaves a losing coalition")


def _base4(c: Coalition) -> int:
    """The mask's binary digits read in base 4: one 2-bit field per member."""
    return int(f"{c.mask:b}", 4)


# W1..W12 in base 4, and the label index of each.
_WINNING_QUADS = tuple(map(_base4, WINNING_FAMILY))
_WINNER_OF_QUAD = {q: k for k, q in enumerate(_WINNING_QUADS)}


def build_triple_certificate(losing: Iterable[Coalition], game: SimpleGame) -> BalanceCertificate:
    """Certificate for three losing coalitions, witnessed by three of W1..W12.

    A mask's binary digits read in base 4 give each member a 2-bit count
    field, so three masks sum to their per-member counts without a carry.
    The witnesses are the first three winners in label order whose fields
    sum to the triple's: one dict lookup per pair of winners.
    """
    losing = tuple(losing)
    if len(losing) != 3:
        raise ValueError(f"triple certificate needs three losing coalitions, got {len(losing)}")
    of_kind(losing, Coalition, N_MEMBERS, "losing coalition")
    target = sum(map(_base4, losing))
    for a, b in combinations(range(len(_WINNING_QUADS)), 2):
        c = _WINNER_OF_QUAD.get(target - _WINNING_QUADS[a] - _WINNING_QUADS[b], -1)
        if c > b:
            cert = BalanceCertificate(losing, (WINNING_FAMILY[k] for k in (a, b, c)))
            if not verify_balance(cert, game):
                raise CertificateError("certificate does not verify")
            return cert
    raise CertificateError(f"no three of W1..W12 balance {', '.join(map(str, losing))}")


class CertifiedFamily(Frozen):
    """A hypergraph over losing-coalition labels with one certificate per edge."""

    nodes: tuple[Coalition, ...]
    hypergraph: Hypergraph
    certificates: Mapping[frozenset[int], BalanceCertificate]

    def check(self, game: SimpleGame) -> None:
        """Re-verify every edge certificate; raises CertificateError on failure."""
        for edge in self.hypergraph.edges:
            cert = self.certificates.get(edge)
            if cert is None:
                raise CertificateError(f"edge {sorted(edge)} carries no certificate")
            if set(cert.losing) != {self.nodes[v - 1] for v in edge}:
                raise CertificateError(
                    f"certificate for edge {sorted(edge)} lists different losing coalitions"
                )
            if not verify_balance(cert, game):
                raise CertificateError(f"certificate for edge {sorted(edge)} fails verification")


def lower_bound_dimension(game: SimpleGame, family: CertifiedFamily) -> int:
    """Dimension lower bound: the minimum cover number of a certified family.

    Re-checks every edge certificate against the game first.
    """
    instance(family, CertifiedFamily, None, "family").check(game)
    h = family.hypergraph
    return min_cover(h, enumerate_maximal_independent(h)).k


def nonseparable_family(game: EuGame) -> CertifiedFamily:
    """Construct and verify all 80 bundled certificates of the council family.

    Each edge is built by its kind's public builder: the 61 transfer pairs
    by `build_pair_certificate`, the 14 pairs with L15 by
    `build_anchor_certificate` and the 5 triples by
    `build_triple_certificate`.  Each verifies the certificate it returns,
    once.  The first failure aborts the construction with the builder's
    ValueError or CertificateError, its message prefixed by the edge, as in
    ``{L3,L14}: <reason>``.
    """
    game = instance(game, EuGame, N_MEMBERS, "game")
    certificates: dict[frozenset[int], BalanceCertificate] = {}
    for edge in NONSEPARABLE_PAIRS + NONSEPARABLE_TRIPLES:
        losing = [LOSING_FAMILY[i - 1] for i in edge]
        try:
            if len(edge) == 3:
                cert = build_triple_certificate(losing, game)
            elif edge[1] == ANCHOR_LABEL:
                cert = build_anchor_certificate(losing[0], game)
            else:
                cert = build_pair_certificate(*losing, game)
        except (ValueError, CertificateError) as err:
            raise type(err)(f"{_label_sets([edge])}: {err}") from err
        certificates[frozenset(edge)] = cert
    return CertifiedFamily(
        nodes=LOSING_FAMILY,
        hypergraph=Hypergraph(len(LOSING_FAMILY), NONSEPARABLE_PAIRS + NONSEPARABLE_TRIPLES),
        certificates=certificates,
    )


def certificate_to_json(cert: BalanceCertificate) -> dict:
    return {
        "losing": [list(c.members) for c in cert.losing],
        "winning": [list(c.members) for c in cert.winning],
    }


def certificate_from_json(obj: dict, n: int) -> BalanceCertificate:
    losing, winning = fields(obj, "certificate", "losing", "winning")
    return BalanceCertificate(coalitions_from_json(losing, n, "losing"),
                              coalitions_from_json(winning, n, "winning"))
