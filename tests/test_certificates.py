import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gamedim.certificates import (
    BalanceCertificate,
    CertificateError,
    build_anchor_certificate,
    build_pair_certificate,
    certificate_from_json,
    certificate_to_json,
    incidence_planes,
    nonseparable_family,
    transfer_split,
    verify_balance,
)
from gamedim.eu import (
    LOSING_FAMILY,
    MEMBERS_2014,
    N_MEMBERS,
    NONSEPARABLE_TRIPLES,
    TRIPLE_WITNESS_LABELS,
    WINNING_FAMILY,
    EuGame,
    MemberTable,
    build_eu_game,
)
from gamedim.games import Coalition, SimpleGame, WeightedGame


def L(i):
    return LOSING_FAMILY[i - 1]


def W(i):
    return WINNING_FAMILY[i - 1]


class TestBalanceCertificate:
    def test_construction_canonicalizes_order(self):
        a = BalanceCertificate(losing=(L(2), L(1)), winning=(W(2), W(1)))
        b = BalanceCertificate(losing=(L(1), L(2)), winning=(W(1), W(2)))
        assert a == b

    def test_empty_losing_rejected(self):
        with pytest.raises(ValueError, match="losing"):
            BalanceCertificate(losing=(), winning=(W(1),))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            BalanceCertificate(losing=(L(1), L(1)), winning=(W(1), W(2)))

    def test_mixed_ground_sets_rejected(self):
        with pytest.raises(ValueError):
            BalanceCertificate(losing=(L(1),), winning=(Coalition.from_indices([1], 5),))

    def test_json_round_trip(self):
        cert = BalanceCertificate(losing=(L(1), L(5)), winning=(W(1), W(2)))
        assert certificate_from_json(certificate_to_json(cert), N_MEMBERS) == cert

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            certificate_from_json({"losing": [[1]]}, N_MEMBERS)


class TestVerifyBalance:
    def test_bundled_triple_l1_l2_l12(self, eu_game):
        cert = BalanceCertificate(losing=(L(1), L(2), L(12)), winning=(W(2), W(7), W(11)))
        assert verify_balance(cert, eu_game)

    def test_bundled_triple_l5_l10_l12(self, eu_game):
        cert = BalanceCertificate(losing=(L(5), L(10), L(12)), winning=(W(1), W(2), W(6)))
        assert verify_balance(cert, eu_game)

    def test_all_bundled_triples(self, eu_game):
        for triple in NONSEPARABLE_TRIPLES:
            witnesses = TRIPLE_WITNESS_LABELS[triple]
            cert = BalanceCertificate(
                losing=tuple(L(i) for i in triple),
                winning=tuple(W(w) for w in witnesses),
            )
            assert verify_balance(cert, eu_game), triple

    def test_unbalanced_incidences_rejected(self, eu_game):
        assert not verify_balance(
            BalanceCertificate(losing=(L(1),), winning=(W(1),)), eu_game
        )

    def test_fewer_winning_than_losing_rejected(self, eu_game):
        cert = BalanceCertificate(losing=(L(1), L(5)), winning=(W(1),))
        assert not verify_balance(cert, eu_game)

    def test_winning_listed_as_losing_rejected(self, eu_game):
        cert = BalanceCertificate(losing=(W(1),), winning=(W(1),))
        assert not verify_balance(cert, eu_game)

    def test_dimension_mismatch_raises(self, eu_game):
        five = Coalition.from_indices([1, 2], 5)
        cert = BalanceCertificate(losing=(five,), winning=(five,))
        with pytest.raises(ValueError, match="members"):
            verify_balance(cert, eu_game)

    def test_size_condition_enforced_on_any_game(self):
        g = WeightedGame(4, [2, 1, 1, 2], 3)
        cert = BalanceCertificate(
            losing=(Coalition.from_indices([1], 4), Coalition.from_indices([4], 4)),
            winning=(Coalition.from_indices([1, 4], 4),),
        )
        # incidences balance member by member, but |W*| < |N|
        assert cert.incidence_balanced()
        assert not verify_balance(cert, g)


def member_counts(masks, n):
    """Per-member incidence counts, one member at a time: the oracle."""
    return [sum(mask >> i & 1 for mask in masks) for i in range(n)]


def counts_of_planes(planes, n):
    return [sum((plane >> i & 1) << k for k, plane in enumerate(planes)) for i in range(n)]


class TestIncidencePlanes:
    @staticmethod
    def sides(rng, n, size):
        """A mask list and one with equal counts: each member's bits reshuffled."""
        density = rng.choice((0.3, 0.7, 0.95))
        rows = [[rng.random() < density for _ in range(n)] for _ in range(size)]
        shuffled = [list(row) for row in rows]
        for i in range(n):
            column = [row[i] for row in rows]
            rng.shuffle(column)
            for row, bit in zip(shuffled, column):
                row[i] = bit

        def masks(table):
            return [sum(bit << i for i, bit in enumerate(row)) for row in table]

        return masks(rows), masks(shuffled)

    @pytest.mark.parametrize("n", [1, 28, 64])
    def test_planes_against_per_member_counts(self, n):
        rng = random.Random(n)
        top = 0
        for size in range(1, 21):
            for _ in range(5):
                left, right = self.sides(rng, n, size)
                counts = member_counts(left, n)
                top = max(top, *counts)
                planes = incidence_planes(left)
                assert counts_of_planes(planes, n) == counts
                assert not planes or planes[-1] != 0
                assert len(planes) == max(counts).bit_length()
                assert member_counts(right, n) == counts
                assert incidence_planes(right) == planes
                # Unbalance by one flipped bit, or one extra coalition.
                i = rng.randrange(n)
                flipped = right[:-1] + [right[-1] ^ 1 << i]
                assert incidence_planes(flipped) != planes
                assert incidence_planes(right + [1 << i]) != planes
        assert top >= 16  # the carries reached plane 4

    @pytest.mark.parametrize("n", [28, 64])
    def test_incidence_balanced_against_counts(self, n):
        rng = random.Random(100 + n)
        seen = {True: 0, False: 0}
        for size in range(1, 21):
            for _ in range(5):
                left, right = self.sides(rng, n, size)
                if rng.random() < 0.5:
                    right[rng.randrange(size)] ^= 1 << rng.randrange(n)
                if len(set(left)) < size or len(set(right)) < size:
                    continue
                cert = BalanceCertificate(
                    losing=(Coalition(n, m) for m in left),
                    winning=(Coalition(n, m) for m in right),
                )
                balanced = member_counts(left, n) == member_counts(right, n)
                assert cert.incidence_balanced() == balanced
                seen[balanced] += 1
        assert min(seen.values()) > 20

    def test_empty_and_zero_masks(self):
        assert incidence_planes([]) == []
        assert incidence_planes([0, 0]) == []
        assert incidence_planes([1, 1, 1]) == [1, 1]


def sorted_transfer_reference(li, lj, game):
    """The transfer search as a full sort of all candidates: the oracle.

    Returns (position of the first working transfer in the sorted order,
    certificate), or (None, None) when none works.
    """
    size = max(0, 25 - len(li & lj))
    pops = game.table.populations
    ranked = sorted(
        itertools.combinations(sorted((li ^ lj).members), size),
        key=lambda ix: (sum(pops[m] for m in ix), ix),
    )
    for position, indices in enumerate(ranked):
        w1, w2 = transfer_split(li, lj, Coalition.from_indices(indices, li.n))
        if game.is_winning(w1) and game.is_winning(w2):
            return position, BalanceCertificate(losing=(li, lj), winning=(w1, w2))
    return None, None


class SwappedMembershipGame(EuGame):
    """The council's table and `classify`, with another game's membership."""

    _fields = ("table", "membership")

    def __init__(self, table, membership: SimpleGame):
        super().__init__(table)
        object.__setattr__(self, "membership", membership)

    def is_winning(self, coalition):
        return self.membership.contains(coalition)


class TestTransferOrder:
    def assert_same_choice(self, li, lj, game, outcomes):
        position, expected = sorted_transfer_reference(li, lj, game)
        if expected is None:
            with pytest.raises(CertificateError, match="no transfer"):
                build_pair_certificate(li, lj, game)
            outcomes["none"] += 1
        else:
            assert build_pair_certificate(li, lj, game) == expected
            outcomes["first" if position == 0 else "later"] += 1

    def test_heap_matches_sorted_order(self, eu_game):
        # The council game always takes the first or no transfer, so other
        # weighted games over the same losing pairs test the later picks.
        rng = random.Random(2024)
        outcomes = {"first": 0, "later": 0, "none": 0}
        for _ in range(60):
            game = SwappedMembershipGame(eu_game.table, WeightedGame(
                N_MEMBERS, [rng.randint(0, 10) for _ in range(N_MEMBERS)], rng.randint(90, 130)))
            i, j = rng.sample(range(1, 15), 2)
            self.assert_same_choice(L(i), L(j), game, outcomes)
        for _ in range(5):
            table = MemberTable(tuple(
                (i, name, int(pop * rng.uniform(0.8, 1.2))) for i, name, pop in MEMBERS_2014))
            game = build_eu_game(table)
            for i, j in itertools.combinations(range(1, 15), 2):
                report_i, report_j = game.classify(L(i)), game.classify(L(j))
                if all(r.rule55 and not r.rule65 for r in (report_i, report_j)):
                    self.assert_same_choice(L(i), L(j), game, outcomes)
        assert min(outcomes.values()) >= 5, outcomes

    def test_bulgaria_failure_message(self):
        table = MemberTable(tuple(
            (i, name, 6521109 if i == 16 else pop) for i, name, pop in MEMBERS_2014))
        with pytest.raises(CertificateError) as err:
            build_pair_certificate(L(3), L(14), build_eu_game(table))
        assert str(err.value) == (
            "no transfer of 4 members makes both halves of "
            "{2,3,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27}, "
            "{1,4,6,7,8,9,10,11,12,13,14,15,16,17,18,20,21,22,23,24,25,26,27,28} winning"
        )


class TestPairCertificates:
    def test_l1_l5_verifies(self, eu_game):
        cert = build_pair_certificate(L(1), L(5), eu_game)
        assert verify_balance(cert, eu_game)

    def test_l13_l14_verifies(self, eu_game):
        cert = build_pair_certificate(L(13), L(14), eu_game)
        assert verify_balance(cert, eu_game)

    def test_identical_inputs_rejected(self, eu_game):
        with pytest.raises(ValueError, match="distinct"):
            build_pair_certificate(L(1), L(1), eu_game)

    def test_winning_input_rejected(self, eu_game):
        with pytest.raises(ValueError, match="winning"):
            build_pair_certificate(W(2), L(5), eu_game)

    def test_anchor_type_input_rejected(self, eu_game):
        # L15 fails the member rule, so the transfer construction cannot apply.
        with pytest.raises(ValueError, match="member rule"):
            build_pair_certificate(L(15), L(1), eu_game)

    def test_symmetric_in_argument_order(self, eu_game):
        assert build_pair_certificate(L(1), L(5), eu_game) == build_pair_certificate(
            L(5), L(1), eu_game
        )

    def test_one_winning_half_wins_outright(self, eu_game):
        # The transfer half always ends up with exactly 25 members.
        cert = build_pair_certificate(L(2), L(3), eu_game)
        assert any(len(c) == 25 for c in cert.winning)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_transfer_split_balances_incidences_structurally(self, data):
        # Balance is structural: it holds for any transfer set inside the
        # symmetric difference, whether or not the halves end up winning.
        n = data.draw(st.integers(2, 10))
        li_mask = data.draw(st.integers(0, (1 << n) - 1))
        lj_mask = data.draw(st.integers(0, (1 << n) - 1))
        li, lj = Coalition(n, li_mask), Coalition(n, lj_mask)
        if li == lj:
            return
        sym = (li ^ lj).members
        picked = data.draw(st.sets(st.sampled_from(sym)))
        transfer = Coalition.from_indices(sorted(picked), n)
        w1, w2 = transfer_split(li, lj, transfer)
        for m in range(1, n + 1):
            assert (m in li) + (m in lj) == (m in w1) + (m in w2)

    def test_transfer_outside_symmetric_difference_rejected(self):
        li = Coalition.from_indices([1, 2], 4)
        lj = Coalition.from_indices([2, 3], 4)
        with pytest.raises(ValueError, match="symmetric difference"):
            transfer_split(li, lj, Coalition.from_indices([2], 4))


class TestAnchorCertificates:
    def test_l14_verifies(self, eu_game):
        cert = build_anchor_certificate(L(14), eu_game)
        assert verify_balance(cert, eu_game)
        assert L(15) in cert.losing

    def test_l3_verifies(self, eu_game):
        cert = build_anchor_certificate(L(3), eu_game)
        assert verify_balance(cert, eu_game)

    def test_anchor_itself_rejected(self, eu_game):
        with pytest.raises(ValueError, match="distinct"):
            build_anchor_certificate(L(15), eu_game)

    def test_exchange_produces_a_16_member_winner(self, eu_game):
        # The anchor side swaps one member out and two in: 15 - 1 + 2 = 16,
        # the smallest coalition that can pass the member rule.
        pops = eu_game.table.populations
        for i in range(1, 15):
            cert = build_anchor_certificate(L(i), eu_game)
            small = min(cert.winning, key=len)
            assert len(small) == 16
            largest = max(small.members, key=lambda m: pops[m])
            shrunk = small - Coalition.from_indices([largest], N_MEMBERS)
            assert not eu_game.is_winning(shrunk)


class TestFamily:
    def test_eighty_edges(self, family):
        assert family.hypergraph.node_count == 15
        assert len(family.hypergraph.edges) == 80
        assert sum(1 for e in family.hypergraph.edges if len(e) == 2) == 75
        assert sum(1 for e in family.hypergraph.edges if len(e) == 3) == 5

    def test_triple_edges_exact(self, family):
        triples = {e for e in family.hypergraph.edges if len(e) == 3}
        assert triples == {
            frozenset({1, 2, 12}),
            frozenset({1, 4, 7}),
            frozenset({1, 6, 12}),
            frozenset({4, 5, 10}),
            frozenset({5, 10, 12}),
        }

    def test_l1_l2_is_not_an_edge(self, family):
        assert frozenset({1, 2}) not in family.hypergraph.edges
        assert frozenset({1, 5}) in family.hypergraph.edges

    def test_every_edge_certified(self, family, eu_game):
        family.check(eu_game)
        for edge, cert in family.certificates.items():
            assert len(cert.winning) >= len(cert.losing)
            assert cert.incidence_balanced()
            assert {family.coalition_of(v) for v in edge} == set(cert.losing)

    def test_tampered_certificate_detected(self, family, eu_game):
        edge = frozenset({1, 5})
        good = family.certificates[edge]
        try:
            family.certificates[edge] = BalanceCertificate(
                losing=(L(1), L(5)), winning=(W(1), W(2))
            )
            with pytest.raises(CertificateError, match="fails verification"):
                family.check(eu_game)
        finally:
            family.certificates[edge] = good

    def test_missing_certificate_detected(self, family, eu_game):
        edge = frozenset({1, 5})
        good = family.certificates.pop(edge)
        try:
            with pytest.raises(CertificateError, match="no certificate"):
                family.check(eu_game)
        finally:
            family.certificates[edge] = good

    def test_perturbed_population_breaks_construction(self):
        # Shifting enough population out of the large states invalidates the
        # winning checks somewhere in the family; the constructor must refuse
        # to hand back a partially certified hypergraph.
        from gamedim.eu import MEMBERS_2014, MemberTable, build_eu_game

        entries = [(1, "Germany", 80780000 * 4)] + list(MEMBERS_2014[1:])
        game = build_eu_game(MemberTable(tuple(entries)))
        with pytest.raises((CertificateError, ValueError)):
            nonseparable_family(game)

    def test_random_game_certificates_also_verify_elsewhere(self, family, eu_game):
        # Certificates are self-contained: rebuilding from JSON keeps them valid.
        rng = random.Random(5)
        for edge in rng.sample(list(family.certificates), 10):
            payload = certificate_to_json(family.certificates[edge])
            again = certificate_from_json(payload, N_MEMBERS)
            assert verify_balance(again, eu_game)
