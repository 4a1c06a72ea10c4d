import collections
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gamedim._packed import instance
from gamedim.certificates import (
    BalanceCertificate,
    CertificateError,
    _certificate,
    build_anchor_certificate,
    build_pair_certificate,
    build_triple_certificate,
    certificate_from_json,
    certificate_to_json,
    incidence_planes,
    nonseparable_family,
    transfer_split,
    verify_balance,
)
from gamedim.eu import (
    LOSING_FAMILY,
    MEMBER_QUOTA,
    MEMBERS_2014,
    N_MEMBERS,
    NONSEPARABLE_PAIRS,
    NONSEPARABLE_TRIPLES,
    OUTRIGHT_QUOTA,
    WINNING_FAMILY,
    EuGame,
    MemberTable,
    build_eu_game,
)
from gamedim.games import Coalition, WeightedGame

from helpers import (
    TRIPLE_WITNESSES,
    checked_first_anchor_certificate,
    checked_first_pair_certificate,
    reference_anchor_certificate,
)


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

    def test_empty_winning_rejected(self):
        with pytest.raises(ValueError, match="^no winning coalition given$"):
            BalanceCertificate(losing=(L(1),), winning=())

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
            witnesses = TRIPLE_WITNESSES[triple]
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


def cutoff_tie(li, lj, pops):
    """Whether the last member in and the first member out of the cheapest
    transfer share a population, so that the index rule picks between them."""
    size = 25 - len(li & lj)
    ranked = sorted((li ^ lj).members, key=lambda m: (pops[m], m))
    return 0 < size < len(ranked) and pops[ranked[size - 1]] == pops[ranked[size]]


class TestTransferOrder:
    def check_table(self, entries, outcomes):
        """Compare every eligible pair of L1..L14 against the sorted search;
        returns how many of them tie at the cut-off."""
        game = build_eu_game(MemberTable(entries))
        ties = 0
        for i, j in itertools.combinations(range(1, 15), 2):
            if not all(r.rule55 and not r.rule65 for r in map(game.classify, (L(i), L(j)))):
                continue
            ties += cutoff_tie(L(i), L(j), game.table.populations)
            position, expected = sorted_transfer_reference(L(i), L(j), game)
            if expected is None:
                with pytest.raises(CertificateError, match="no transfer"):
                    build_pair_certificate(L(i), L(j), game)
                outcomes["none"] += 1
            else:
                assert position == 0, (i, j)
                assert build_pair_certificate(L(i), L(j), game) == expected
                outcomes["first"] += 1
        return ties

    def test_council_tables_take_the_first_transfer_or_none(self):
        # W1 always has 25 members and W2 a fixed member count, so on a
        # council game the cheapest transfer decides: if it fails, the full
        # sorted search finds nothing later either.
        rng = random.Random(2024)
        outcomes = {"first": 0, "none": 0}
        self.check_table(MEMBERS_2014, outcomes)
        for _ in range(5):
            self.check_table(tuple(
                (i, name, int(pop * rng.uniform(0.8, 1.2))) for i, name, pop in MEMBERS_2014
            ), outcomes)
        # France at Italy's population ties them at the cut-off of several
        # pairs, where France's smaller index now puts it in the transfer.
        tied = tuple((i, name, 60782668 if i == 3 else pop) for i, name, pop in MEMBERS_2014)
        assert self.check_table(tied, outcomes) > 0
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
        # The halves are built unchecked, from the masks.
        for half in (w1, w2):
            assert type(half) is Coalition and half == Coalition(n, half.mask)

    @pytest.mark.parametrize("li_n, lj_n, transfer_n", [(4, 5, 4), (4, 4, 5)])
    def test_transfer_split_mixed_member_counts_rejected(self, li_n, lj_n, transfer_n):
        li = Coalition.from_indices([1, 2], li_n)
        lj = Coalition.from_indices([2, 3], lj_n)
        with pytest.raises(ValueError, match=r"^(second coalition \{2,3\}|transfer \{1\}) "
                                             r"is over 5 members, not 4$"):
            transfer_split(li, lj, Coalition.from_indices([1], transfer_n))

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

    def test_winning_coalition_rejected(self, eu_game):
        with pytest.raises(ValueError, match=r"^coalition \{.*\} is winning$"):
            build_anchor_certificate(W(1), eu_game)

    def test_only_a_winning_li_is_named(self):
        # The anchor has fewer members than the member rule asks, so it loses
        # even when its members hold nearly every citizen; li is the only
        # coalition the builder checks for winning.
        heavy = set(L(15).members)
        heavy_anchor = MemberTable(tuple((i, name, 10**6 if i in heavy else 1)
                                         for i, name, _ in MEMBERS_2014))
        outright = Coalition.from_indices(range(1, OUTRIGHT_QUOTA + 1), N_MEMBERS)
        message = rf"^coalition {re.escape(str(outright))} is winning$"
        assert len(L(15)) < MEMBER_QUOTA
        for table in [*differential_tables(), heavy_anchor]:
            game = build_eu_game(table)
            assert not game.is_winning(L(15))
            assert game.is_winning(outright)
            with pytest.raises(ValueError, match=message):
                build_anchor_certificate(outright, game)

    def test_one_member_outside_the_anchor_rejected(self, eu_game):
        li = Coalition.from_indices([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16], N_MEMBERS)
        with pytest.raises(ValueError, match="fewer than two members outside the anchor"):
            build_anchor_certificate(li, eu_game)

    def test_superset_of_the_anchor_rejected(self):
        # Under 2014 populations L15 plus two members wins; with members
        # 18..28 holding nearly everyone, 17 members lose.
        table = MemberTable(tuple((i, name, 1 if i <= 17 else 10**6)
                                  for i, name, _ in MEMBERS_2014))
        game = build_eu_game(table)
        li = L(15) | Coalition.from_indices([16, 17], N_MEMBERS)
        assert not game.is_winning(li)
        with pytest.raises(ValueError, match="has no member outside"):
            build_anchor_certificate(li, game)

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


def anchor_ties(li, pops):
    """Whether a population tie sits where the index rule decides: between
    the second and third cheapest members of li - L15, or between the two
    most populous members of L15 - li."""
    outside = sorted((li - L(15)).members, key=lambda m: (pops[m], m))
    incoming = sorted((pops[m] for m in (L(15) - li).members), reverse=True)
    return (len(outside) > 2 and pops[outside[1]] == pops[outside[2]],
            len(incoming) > 1 and incoming[0] == incoming[1])


def tied_tables():
    """Member tables whose population ties reach the anchor exchange."""
    pops = {i: pop for i, _, pop in MEMBERS_2014}

    def table(changed):
        return MemberTable(tuple((i, name, changed.get(i, pops[i]))
                                 for i, name, _ in MEMBERS_2014))

    def tie(*members):
        mean = sum(pops[m] for m in members) // len(members)
        return dict.fromkeys(members, mean)

    # Estonia, Cyprus and Luxembourg tie just above Malta, the cheapest.
    bottom = tie(25, 26, 27)
    yield table(bottom)
    # Germany ties Italy, France the UK and Spain Poland: the most populous
    # member outside some Li ties another.
    yield table({**tie(1, 4), **tie(2, 3), **tie(5, 6), **bottom})
    # Three Germanys: an exchange that takes Germany out of the anchor's
    # half leaves it losing, so these pairs are refused.
    yield table({**tie(2, 3), **tie(5, 6), **bottom, 1: 3 * pops[1]})


class TestAnchorTieRules:
    def test_matches_the_sorted_reference_on_tied_tables(self):
        seen = {"cut tie": 0, "top tie": 0, "built": 0, "refused": 0}
        for table in tied_tables():
            game = build_eu_game(table)
            for i in range(1, 15):
                if game.is_winning(L(i)) or game.is_winning(L(15)):
                    continue  # refused by the input checks, before any exchange
                cut, top = anchor_ties(L(i), table.populations)
                seen["cut tie"] += cut
                seen["top tie"] += top
                try:
                    expected = reference_anchor_certificate(L(i), L(15), game)
                except CertificateError as err:
                    with pytest.raises(CertificateError) as got:
                        build_anchor_certificate(L(i), game)
                    assert str(got.value) == str(err)
                    seen["refused"] += 1
                else:
                    assert build_anchor_certificate(L(i), game) == expected, i
                    seen["built"] += 1
        assert min(seen.values()) >= 5, seen

    def test_cheapest_first_orders_ties_by_index(self):
        table = next(tied_tables())
        bits = [bit for _, bit in table.cheapest_first]
        assert bits[:4] == [1 << 27, 1 << 24, 1 << 25, 1 << 26]
        assert sorted(bits) == [1 << i for i in range(N_MEMBERS)]


def outcome(build, *args):
    """What ``build(*args)`` returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except (ValueError, CertificateError) as err:
        return type(err), str(err)


def differential_tables():
    """The bundled table, the tied ones, three with each population moved by
    up to 5 %, and one where members 18..28 hold nearly everyone, so that a
    superset of the anchor can lose."""
    yield MemberTable(MEMBERS_2014)
    yield from tied_tables()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        yield MemberTable(tuple((i, name, int(pop * rng.uniform(0.95, 1.05)))
                                for i, name, pop in MEMBERS_2014))
    yield MemberTable(tuple((i, name, 1 if i <= 17 else 10**6) for i, name, _ in MEMBERS_2014))


# What each builder outcome is, by the fixed words of its message.
OUTCOME_WORDS = ("distinct", "first coalition", "second coalition", "is winning",
                 "member rule", "not a Coalition", "members, not", "symmetric difference",
                 "no transfer", "fewer than two", "no member outside", "leaves a losing")


def outcome_kind(result):
    if type(result) is BalanceCertificate:
        return "built"
    return " / ".join(word for word in OUTCOME_WORDS if word in result[1])


class TestDeferredRuleChecks:
    # The pair and anchor builders build and verify first and run their rule
    # checks only when no certificate comes out.  On every input they agree
    # with the check-first reference, but for one two-fault message.

    def test_same_result_as_checking_first(self):
        rng = random.Random(33)
        coalitions = LOSING_FAMILY + WINNING_FAMILY + tuple(
            Coalition.from_indices(rng.sample(range(1, 29), rng.randint(14, 26)), N_MEMBERS)
            for _ in range(30)) + tuple(
            L(15) | Coalition.from_indices(extra, N_MEMBERS) for extra in ([16], [16, 17]))
        pairs, anchors = collections.Counter(), collections.Counter()
        for table in differential_tables():
            game = build_eu_game(table)
            for li in coalitions:
                got = outcome(build_anchor_certificate, li, game)
                assert got == outcome(checked_first_anchor_certificate, li, game), li
                anchors[outcome_kind(got)] += 1
                for lj in coalitions:
                    got = outcome(build_pair_certificate, li, lj, game)
                    assert got == outcome(checked_first_pair_certificate, li, lj, game), (li, lj)
                    pairs[outcome_kind(got)] += 1
        assert set(pairs) == {"built", "distinct", "first coalition / is winning",
                              "second coalition / is winning", "first coalition / member rule",
                              "second coalition / member rule", "symmetric difference",
                              "no transfer"}, pairs
        assert set(anchors) == {"built", "distinct", "is winning", "fewer than two",
                                "no member outside", "leaves a losing"}, anchors

    def test_bad_arguments_give_the_same_error(self, eu_game):
        bad = (5, "x", None, Coalition.from_indices([1, 2, 3], N_MEMBERS - 1),
               Coalition.from_indices(range(1, 20), N_MEMBERS - 1))
        good = (L(1), L(5), L(15), W(2), Coalition.from_indices(range(1, 15), N_MEMBERS))
        renamed = 0
        for li in bad + good:
            for game in (eu_game, "g", WeightedGame(N_MEMBERS, [1] * N_MEMBERS, 15)):
                got = outcome(build_anchor_certificate, li, game)
                assert got == outcome(checked_first_anchor_certificate, li, game), li
            for lj in bad + good:
                got = outcome(build_pair_certificate, li, lj, eu_game)
                expected = outcome(checked_first_pair_certificate, li, lj, eu_game)
                lj_fault = outcome(instance, lj, Coalition, N_MEMBERS, "coalition")
                if type(expected) is tuple and expected[1].startswith("first") and lj_fault != lj:
                    # Both faulty: the one accepted change names lj's fault.
                    expected = lj_fault
                    renamed += 1
                assert got == expected, (li, lj)
        assert renamed == 3 * len(bad)  # L15, W2 and the 14 members, as li

    def test_a_rule_fault_and_a_type_fault_name_the_type_fault(self, eu_game):
        # Checking first named the winning li; the types are now checked
        # before any rule, so the non-coalition lj is named.
        expected = (ValueError, f"first coalition {W(2)} is winning")
        assert outcome(checked_first_pair_certificate, W(2), 5, eu_game) == expected
        with pytest.raises(ValueError, match="^coalition 5 is not a Coalition$"):
            build_pair_certificate(W(2), 5, eu_game)


class WitnessLosesGame(EuGame):
    """The council game with one listed coalition declared losing."""

    def __init__(self, dropped):
        super().__init__(build_eu_game().table)
        object.__setattr__(self, "dropped", dropped)

    def contains(self, coalition):
        return coalition != self.dropped and super().contains(coalition)


class TestTripleCertificates:
    def test_matches_exactly_the_bundled_witnesses(self, eu_game):
        # The oracle: per-member counts of every three of W1..W12, one
        # member at a time, against those of every triple of L1..L15.
        by_counts = {}
        for ws in itertools.combinations(range(1, 13), 3):
            counts = tuple(member_counts([W(w).mask for w in ws], N_MEMBERS))
            by_counts.setdefault(counts, []).append(ws)
        found = {}
        for triple in itertools.combinations(range(1, 16), 3):
            counts = tuple(member_counts([L(i).mask for i in triple], N_MEMBERS))
            if counts in by_counts:
                found[triple] = by_counts[counts]
            losing = [L(i) for i in triple]
            if triple in TRIPLE_WITNESSES:
                assert build_triple_certificate(losing, eu_game) == BalanceCertificate(
                    losing=losing, winning=(W(w) for w in TRIPLE_WITNESSES[triple]))
            else:
                with pytest.raises(CertificateError, match="no three of W1..W12"):
                    build_triple_certificate(losing, eu_game)
        assert found == {t: [w] for t, w in TRIPLE_WITNESSES.items()}
        assert sorted(found) == sorted(NONSEPARABLE_TRIPLES)

    def test_losing_witness_fails_verification(self):
        # W7 witnesses {L1,L2,L12} and appears in no pair certificate.
        game = WitnessLosesGame(W(7))
        with pytest.raises(CertificateError, match="^certificate does not verify$"):
            build_triple_certificate((L(1), L(2), L(12)), game)
        with pytest.raises(CertificateError) as err:
            nonseparable_family(game)
        assert str(err.value) == "{L1,L2,L12}: certificate does not verify"

    def test_three_losing_coalitions_required(self, eu_game):
        with pytest.raises(ValueError, match="three losing coalitions, got 2"):
            build_triple_certificate((L(1), L(2)), eu_game)


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

    def test_each_edge_matches_its_public_builder(self, family, eu_game):
        # The family calls the public builders, which wrap the halves
        # unchecked: each certificate equals one built through the checks.
        for edge in NONSEPARABLE_PAIRS + NONSEPARABLE_TRIPLES:
            losing = [L(i) for i in edge]
            if len(edge) == 3:
                built = build_triple_certificate(losing, eu_game)
            elif edge[1] == 15:
                built = build_anchor_certificate(losing[0], eu_game)
            else:
                built = build_pair_certificate(*losing, eu_game)
            cert = family.certificates[frozenset(edge)]
            assert type(cert) is BalanceCertificate
            assert cert == built == BalanceCertificate(cert.losing[::-1], cert.winning[::-1]), edge

    def test_unchecked_wrap_still_refuses_a_repeated_mask(self):
        with pytest.raises(ValueError, match="^certificate lists a coalition twice$"):
            _certificate((L(1), L(1)), (W(1), W(2)))
        with pytest.raises(ValueError, match="^certificate lists a coalition twice$"):
            _certificate((L(1), L(5)), (W(2), W(2)))
        assert _certificate((L(5), L(1)), (W(2), W(1))) == BalanceCertificate(
            (L(1), L(5)), (W(1), W(2)))

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

    def test_certificate_of_another_edge_detected(self, family, eu_game):
        edge = frozenset({1, 5})
        good = family.certificates[edge]
        try:
            family.certificates[edge] = family.certificates[frozenset({1, 8})]
            with pytest.raises(CertificateError, match=r"edge \[1, 5\] lists different losing"):
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
