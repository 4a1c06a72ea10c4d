"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from fractions import Fraction

from gamedim import (
    Coalition,
    IntersectionGame,
    SeparationInstance,
    Separable,
    WeightedGame,
    enumerate_maximal_independent,
    is_nonseparable_exhaustive,
    lower_bound_dimension,
    lp_feasible,
    min_cover,
    minimal_winning,
    no_k_cover,
    verify_balance,
)
from gamedim.certificates import BalanceCertificate, CertifiedFamily
from gamedim.cover import Hypergraph, dual_refutation
from gamedim.cli import run_verification
from gamedim.eu import COUNCIL_MAXIMAL_PARTS, LOSING_FAMILY, WINNING_FAMILY

from helpers import COUNCIL_DUALS, find_balanced_pair_certificate, random_monotone_game


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_proof_replay_verifies():
    start = time.monotonic()
    transcript = run_verification()
    elapsed = time.monotonic() - start
    assert transcript.verified
    assert transcript.conclusion == "dimension >= 8"
    assert elapsed < 10.0, f"replay took {elapsed:.1f}s, expected under 10s"
    report(1, f"full replay concludes 'dimension >= 8' in {elapsed:.2f}s")


def test_criterion_2_reference_classification(eu_game):
    for i, c in enumerate(LOSING_FAMILY, start=1):
        assert not eu_game.is_winning(c), f"L{i} must lose"
        assert not eu_game.classify(c).winning
    for i, c in enumerate(WINNING_FAMILY, start=1):
        assert eu_game.is_winning(c), f"W{i} must win"
        assert eu_game.classify(c).winning
    report(2, "15 losing and 12 winning coalitions classify exactly")


def test_criterion_3_all_eighty_certificates_verify(eu_game, family):
    pairs = [e for e in family.hypergraph.edges if len(e) == 2]
    triples = [e for e in family.hypergraph.edges if len(e) == 3]
    assert len(pairs) == 75 and len(triples) == 5
    for edge in family.hypergraph.edges:
        cert = family.certificates[edge]
        assert len(cert.winning) >= len(cert.losing)
        assert cert.incidence_balanced()
        assert verify_balance(cert, eu_game)
    report(3, "75 pair and 5 triple certificates verify (exact balance)")


def test_criterion_4_maximal_sets_match(family):
    got = enumerate_maximal_independent(family.hypergraph)
    assert len(got) == 21
    assert set(got) == set(COUNCIL_MAXIMAL_PARTS)
    report(4, "enumeration returns exactly the 21 bundled maximal sets")


def test_criterion_5_no_seven_cover_and_minimum_eight(council_h):
    start = time.monotonic()
    refutation = no_k_cover(council_h, 7)
    elapsed = time.monotonic() - start
    assert refutation.refuted
    assert elapsed < 5.0, f"7-cover search took {elapsed:.1f}s, expected under 5s"
    solution = min_cover(council_h, COUNCIL_MAXIMAL_PARTS)
    assert solution.k == 8
    assert solution.verify(council_h)
    report(5, f"no 7-cover (searched in {elapsed:.2f}s); minimum cover is 8 with witness")


def test_criterion_6_dual_replay_exact_totals(council_h):
    without, within = dual_refutation(council_h, 7)
    from gamedim.cover import verify_dual_certificate

    assert (without, within) == COUNCIL_DUALS
    assert verify_dual_certificate(without, council_h)
    assert verify_dual_certificate(within, council_h)
    assert without.total == Fraction(15, 2) and without.total > 7
    assert within.total == Fraction(19, 3) and within.total > 6
    report(6, "derived dual totals are exactly 15/2 > 7 and 19/3 > 6")


def test_criterion_7_oracle_agreement_on_random_games():
    rng = random.Random(20140101)
    games = 1000
    certificates_confirmed = 0
    witnesses_checked = 0
    for _ in range(games):
        n = rng.choice([3, 4, 4, 5, 5, 6, 6, 7, 8])
        game = random_monotone_game(rng, n)
        losing = [c for mask in range(1 << n)
                  if not game.contains(c := Coalition(n, mask))]
        if not losing:
            continue

        # Every verified balance certificate is confirmed non-separable.
        cert = find_balanced_pair_certificate(game, losing, rng, max_pairs=25)
        if cert is not None:
            assert is_nonseparable_exhaustive(game, cert.losing), \
                "balance certificate contradicts the exhaustive oracle"
            certificates_confirmed += 1

        # Every separable verdict comes with a witness that substitutes.
        targets = rng.sample(losing, min(len(losing), rng.choice([1, 2])))
        instance = SeparationInstance(n, minimal_winning(game), targets)
        result = lp_feasible(instance)
        if isinstance(result, Separable):
            for w in instance.winning_constraints:
                assert sum(result.weights[m - 1] for m in w.members) >= result.quota
            for l in instance.losing_targets:
                assert sum(result.weights[m - 1] for m in l.members) <= result.quota - 1
            assert all(x >= 0 for x in result.weights)
            witnesses_checked += 1
    assert certificates_confirmed >= 100, certificates_confirmed
    assert witnesses_checked >= 400, witnesses_checked
    report(7, f"{games} random games: {certificates_confirmed} certificates confirmed "
              f"non-separable, {witnesses_checked} witnesses re-verified")


def test_criterion_8_small_game_dimension_sanity():
    game = IntersectionGame([
        WeightedGame(4, [1, 1, 0, 0], 1),
        WeightedGame(4, [0, 0, 1, 1], 1),
    ])
    losing_pair = (Coalition.from_indices([1, 2], 4), Coalition.from_indices([3, 4], 4))
    winning_pair = (Coalition.from_indices([1, 3], 4), Coalition.from_indices([2, 4], 4))
    family = CertifiedFamily(
        nodes=losing_pair,
        hypergraph=Hypergraph(2, [(1, 2)]),
        certificates={frozenset({1, 2}): BalanceCertificate(losing=losing_pair,
                                                            winning=winning_pair)},
    )
    assert lower_bound_dimension(game, family) == 2
    report(8, "4-player intersection game yields lower bound 2 via its single edge")
