"""Non-separability certificates for sets of losing coalitions.

A balance certificate pairs losing coalitions N with at least as many
winning coalitions W* such that every member sits in exactly as many
coalitions of W* as of N.  Any weighted game that keeps all of W* winning
then assigns N a total weight of at least quota * |W*|, so some coalition in
N meets the quota: no single weighted game extending the target game can
declare all of N losing.

For the council game the certificates for the bundled pair family are built
by two constructions:

* transfer pairs: move a minimum-population set A out of the symmetric
  difference of Li and Lj, giving W1 = A | (Li & Lj) with `OUTRIGHT_QUOTA`
  members (winning outright) and W2 = (Li | Lj) - A (winning on members and
  population);
* anchor pairs with L15: swap the two least-population members of
  Li - L15 against the largest-population member of L15 - Li.

Both splits balance member incidences by construction; the winning status of
the resulting coalitions is what gets verified, by `verify_balance` against
the `EuGame` itself.  Triple certificates are bundled data.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Mapping

from ._record import Frozen
from .cover import Hypergraph, enumerate_maximal_independent, min_cover
from .eu import (
    ANCHOR_LABEL,
    LOSING_FAMILY,
    NONSEPARABLE_PAIRS,
    NONSEPARABLE_TRIPLES,
    OUTRIGHT_QUOTA,
    TRIPLE_WITNESS_LABELS,
    WINNING_FAMILY,
    EuGame,
)
from .games import Coalition, SimpleGame, coalition_sort_key, coalitions_from_json


class CertificateError(RuntimeError):
    """A certificate could not be constructed or failed verification."""


class BalanceCertificate(Frozen):
    """Losing set N and winning set W* with equal per-member incidence counts."""

    _fields = ("losing", "winning")
    losing: tuple[Coalition, ...]
    winning: tuple[Coalition, ...]

    def __init__(self, losing: Iterable[Coalition], winning: Iterable[Coalition]):
        losing = tuple(sorted(losing, key=coalition_sort_key))
        winning = tuple(sorted(winning, key=coalition_sort_key))
        if not losing:
            raise ValueError("certificate needs at least one losing coalition")
        if not winning:
            raise ValueError("certificate needs at least one winning coalition")
        n = losing[0].n
        for c in losing + winning:
            if c.n != n:
                raise ValueError(f"coalition over {c.n} members in a certificate over {n}")
        if len(set(losing)) != len(losing) or len(set(winning)) != len(winning):
            raise ValueError("certificate lists a coalition twice")
        object.__setattr__(self, "losing", losing)
        object.__setattr__(self, "winning", winning)

    @property
    def n(self) -> int:
        return self.losing[0].n

    def incidence_balanced(self) -> bool:
        """Whether every member sits in as many losing as winning coalitions.

        Compares the two sides' per-member counts as bit planes (see
        `incidence_planes`): equal counts give equal plane lists.
        """
        return (incidence_planes(c.mask for c in self.losing)
                == incidence_planes(c.mask for c in self.winning))


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
    if cert.n != game.n:
        raise ValueError(f"certificate over {cert.n} members, game over {game.n}")
    if len(cert.winning) < len(cert.losing):
        return False
    if not cert.incidence_balanced():
        return False
    if any(game.contains(c) for c in cert.losing):
        return False
    if any(not game.contains(c) for c in cert.winning):
        return False
    return True


def transfer_split(li: Coalition, lj: Coalition, transfer: Coalition
                   ) -> tuple[Coalition, Coalition]:
    """The balanced pair (transfer | (li & lj), (li | lj) - transfer).

    Balances incidences against {li, lj} for any transfer set inside the
    symmetric difference: shared members land in both halves, each member of
    the symmetric difference in exactly one.
    """
    sym = li ^ lj
    if not transfer.issubset(sym):
        raise ValueError("transfer set must lie in the symmetric difference")
    return transfer | (li & lj), (li | lj) - transfer


def build_pair_certificate(li: Coalition, lj: Coalition, game: EuGame) -> BalanceCertificate:
    """Certificate for two losing coalitions that pass the member rule.

    Moves out of the symmetric difference a set of exactly OUTRIGHT_QUOTA -
    |li & lj| members of minimum total population (ties broken toward the
    smallest member indices); if the minimum-population choice leaves a
    losing half, the remaining minimum-size choices are tried in increasing
    population order before giving up.
    """
    if li == lj:
        raise ValueError("pair certificate needs two distinct losing coalitions")
    for c, name in ((li, "first"), (lj, "second")):
        report = game.classify(c)
        if report.winning:
            raise ValueError(f"{name} coalition {c} is winning")
        if not report.rule55 or report.rule65:
            raise ValueError(
                f"{name} coalition {c} must pass the member rule and fail the population rule"
            )
    inter = li & lj
    sym = li ^ lj
    size = max(0, OUTRIGHT_QUOTA - len(inter))
    if size > len(sym):
        raise CertificateError(
            f"symmetric difference of {li} and {lj} has only {len(sym)} members, need {size}"
        )
    pops = game.table.populations
    members = sym.members
    # (population, indices) for every transfer; popped from a heap in sorted
    # order, since the first few almost always work.
    ranked = list(zip(
        map(sum, itertools.combinations([pops[m] for m in members], size)),
        itertools.combinations(members, size),
    ))
    heapq.heapify(ranked)
    while ranked:
        _, indices = heapq.heappop(ranked)
        transfer = Coalition.from_indices(indices, li.n)
        w1, w2 = transfer_split(li, lj, transfer)
        if game.is_winning(w1) and game.is_winning(w2):
            return BalanceCertificate(losing=(li, lj), winning=(w1, w2))
    raise CertificateError(
        f"no transfer of {size} members makes both halves of {li}, {lj} winning"
    )


def build_anchor_certificate(li: Coalition, game: EuGame,
                             anchor: Coalition | None = None) -> BalanceCertificate:
    """Certificate for a losing coalition paired with the anchor (L15 by default).

    Exchanges the two least-population members of li outside the anchor
    against the largest-population member of the anchor outside li; ties are
    broken toward smaller member indices.
    """
    if anchor is None:
        anchor = LOSING_FAMILY[ANCHOR_LABEL - 1]
    if li == anchor:
        raise ValueError("anchor certificate needs a coalition distinct from the anchor")
    for c in (li, anchor):
        if game.is_winning(c):
            raise ValueError(f"coalition {c} is winning")
    pops = game.table.populations
    outside = (li - anchor).members
    if len(outside) < 2:
        raise ValueError(f"{li} has fewer than two members outside the anchor {anchor}")
    incoming = (anchor - li).members
    if not incoming:
        raise ValueError(f"the anchor {anchor} has no member outside {li}")
    two_out = sorted(outside, key=lambda m: (pops[m], m))[:2]
    one_in = min(incoming, key=lambda m: (-pops[m], m))
    swap_out = Coalition.from_indices(two_out, li.n)
    swap_in = Coalition.from_indices([one_in], li.n)
    w1 = (li - swap_out) | swap_in
    w2 = (anchor - swap_in) | swap_out
    if not (game.is_winning(w1) and game.is_winning(w2)):
        raise CertificateError(
            f"exchange between {li} and the anchor leaves a losing coalition"
        )
    return BalanceCertificate(losing=(li, anchor), winning=(w1, w2))


class CertifiedFamily(Frozen):
    """A hypergraph over losing-coalition labels with one certificate per edge."""

    _fields = ("nodes", "hypergraph", "certificates")
    nodes: tuple[Coalition, ...]
    hypergraph: Hypergraph
    certificates: Mapping[frozenset[int], BalanceCertificate]

    def __init__(self, nodes: tuple[Coalition, ...], hypergraph: Hypergraph,
                 certificates: Mapping[frozenset[int], BalanceCertificate]):
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "certificates", certificates)

    def coalition_of(self, label: int) -> Coalition:
        return self.nodes[label - 1]

    def check(self, game: SimpleGame) -> None:
        """Re-verify every edge certificate; raises CertificateError on failure."""
        for edge in self.hypergraph.edges:
            cert = self.certificates.get(edge)
            if cert is None:
                raise CertificateError(f"edge {sorted(edge)} carries no certificate")
            if set(cert.losing) != {self.coalition_of(v) for v in edge}:
                raise CertificateError(
                    f"certificate for edge {sorted(edge)} lists different losing coalitions"
                )
            if not verify_balance(cert, game):
                raise CertificateError(f"certificate for edge {sorted(edge)} fails verification")


def lower_bound_dimension(game: SimpleGame, family: CertifiedFamily) -> int:
    """Dimension lower bound: the minimum cover number of a certified family.

    Re-checks every edge certificate against the game first.
    """
    family.check(game)
    h = family.hypergraph
    return min_cover(h, enumerate_maximal_independent(h)).k


def nonseparable_family(game: EuGame) -> CertifiedFamily:
    """Construct and verify all 80 bundled certificates of the council family.

    The 75 pairs are built by the transfer and anchor constructions, the 5
    triples come from the bundled witness data.  Each certificate is verified
    once, right after it is built.  The first failure aborts the construction
    with a ValueError or CertificateError whose message names the edge, as in
    ``{L3,L14}: <reason>``.
    """

    def build(edge: tuple[int, ...]) -> BalanceCertificate:
        if len(edge) == 3:
            return BalanceCertificate(
                losing=(LOSING_FAMILY[i - 1] for i in edge),
                winning=(WINNING_FAMILY[w - 1] for w in TRIPLE_WITNESS_LABELS[edge]),
            )
        i, j = edge
        if j == ANCHOR_LABEL:
            return build_anchor_certificate(LOSING_FAMILY[i - 1], game)
        return build_pair_certificate(LOSING_FAMILY[i - 1], LOSING_FAMILY[j - 1], game)

    certificates: dict[frozenset[int], BalanceCertificate] = {}
    for edge in NONSEPARABLE_PAIRS + NONSEPARABLE_TRIPLES:
        label = "{" + ",".join(f"L{v}" for v in edge) + "}"
        try:
            cert = build(edge)
        except (ValueError, CertificateError) as err:
            raise type(err)(f"{label}: {err}") from err
        if not verify_balance(cert, game):
            raise CertificateError(f"{label}: certificate does not verify")
        certificates[frozenset(edge)] = cert
    return CertifiedFamily(
        nodes=LOSING_FAMILY,
        hypergraph=Hypergraph(len(LOSING_FAMILY), certificates.keys()),
        certificates=certificates,
    )


def certificate_to_json(cert: BalanceCertificate) -> dict:
    return {
        "losing": [list(c.members) for c in cert.losing],
        "winning": [list(c.members) for c in cert.winning],
    }


def certificate_from_json(obj: dict, n: int) -> BalanceCertificate:
    if not isinstance(obj, dict) or "losing" not in obj or "winning" not in obj:
        raise ValueError("certificate description needs 'losing' and 'winning'")
    return BalanceCertificate(
        losing=coalitions_from_json(obj["losing"], n, "losing"),
        winning=coalitions_from_json(obj["winning"], n, "winning"),
    )
