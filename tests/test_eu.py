import io
import random
from fractions import Fraction

import pytest

from gamedim.eu import (
    LOSING_FAMILY,
    MEMBERS_2014,
    N_MEMBERS,
    NONSEPARABLE_PAIRS,
    WINNING_FAMILY,
    EuGame,
    MemberTable,
    ascii_int,
    build_eu_game,
    default_members,
    labeled_coalition,
    load_members,
    reference_coalitions,
)
from gamedim.games import Coalition, SimpleGame, minimal_winning

from helpers import composed_council_game

TOTAL_POPULATION = 507416607


def to_csv(entries):
    lines = ["index,name,population"]
    lines += [f"{i},{name},{pop}" for i, name, pop in entries]
    return "\n".join(lines) + "\n"


class TestMemberTable:
    def test_default_table_endpoints(self):
        table = default_members()
        assert table.entries[0] == (1, "Germany", 80780000)
        assert table.entries[27] == (28, "Malta", 425384)

    def test_total_population(self):
        assert default_members().total_population == TOTAL_POPULATION

    def test_first_entry_has_maximum_population(self):
        pops = default_members().populations
        assert pops[1] == max(pops.values())

    def test_populations_strictly_descending(self):
        pops = default_members().populations
        assert all(pops[i] > pops[i + 1] for i in range(1, N_MEMBERS))

    def test_csv_round_trip(self):
        table = load_members(io.StringIO(to_csv(MEMBERS_2014)))
        assert table == default_members()

    def test_missing_row_rejected(self):
        entries = [e for e in MEMBERS_2014 if e[0] != 17]
        with pytest.raises(ValueError, match="wrong row count"):
            load_members(to_csv(entries))

    def test_duplicate_index_rejected(self):
        entries = list(MEMBERS_2014[:27]) + [(5, "Again", 1)]
        with pytest.raises(ValueError, match="duplicate"):
            load_members(to_csv(entries))

    def test_nonpositive_population_rejected(self):
        entries = list(MEMBERS_2014[:27]) + [(28, "Malta", 0)]
        with pytest.raises(ValueError, match="^population of 'Malta' must be at least 1, got 0$"):
            load_members(to_csv(entries))

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            load_members("index,name,population\n1,Germany,eighty\n")

    @pytest.mark.parametrize("index, population", [
        ("1", "80_780_000"), ("1", "+80780000"), ("1", "-80780000"), ("1", "8.078e7"),
        ("+1", "80780000"), ("1_0", "80780000"), ("\u0661", "80780000"), ("", "80780000"),
    ])
    def test_number_cells_take_ascii_digits_only(self, index, population):
        # Germany's row of an otherwise valid table, with one cell changed.
        rows = to_csv(MEMBERS_2014).splitlines()
        rows[1] = f"{index},Germany,{population}"
        with pytest.raises(ValueError, match="^malformed row "):
            load_members("\n".join(rows) + "\n")

    def test_number_cells_may_be_padded(self):
        rows = to_csv(MEMBERS_2014).splitlines()
        rows[1] = " 1 ,Germany, 80780000 "
        assert load_members("\n".join(rows) + "\n") == default_members()

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            load_members("state,people\n")

    def test_blank_lines_between_rows_are_skipped(self):
        rows = to_csv(MEMBERS_2014).splitlines()
        text = "\n\n".join(rows[:5]) + "\n\n\n" + "\n".join(rows[5:]) + "\n\n"
        assert load_members(text) == default_members()

    @pytest.mark.parametrize("index", [0, 29])
    def test_index_out_of_range_rejected(self, index):
        entries = list(MEMBERS_2014[:27]) + [(index, "Malta", 425384)]
        with pytest.raises(ValueError, match=f"^member index {index} out of range 1..28$"):
            load_members(to_csv(entries))

    def test_population_of_checks_ground_set(self):
        with pytest.raises(ValueError):
            default_members().population_of(Coalition.from_indices([1], 5))


class TestEuGame:
    def test_member_quota_is_sixteen(self, eu_game):
        assert eu_game.member_quota == 16
        # smallest integer meeting 55% of 28 = 15.4
        assert eu_game.member_quota - 1 < Fraction(55 * N_MEMBERS, 100) <= eu_game.member_quota

    def test_population_quota_exact(self, eu_game):
        assert eu_game.population_quota == Fraction(13 * TOTAL_POPULATION, 20)
        assert eu_game.population_quota == Fraction(6596415891, 20)

    def test_full_coalition_wins_outright(self, eu_game):
        full = Coalition.from_indices(range(1, 29), N_MEMBERS)
        report = eu_game.classify(full)
        assert report.winning and report.rule25

    def test_all_reference_losing(self, eu_game):
        for i, c in enumerate(LOSING_FAMILY, start=1):
            assert not eu_game.is_winning(c), f"L{i} should lose"

    def test_all_reference_winning(self, eu_game):
        for i, c in enumerate(WINNING_FAMILY, start=1):
            assert eu_game.is_winning(c), f"W{i} should win"

    def test_population_rule_fails_for_l1(self, eu_game):
        report = eu_game.classify(LOSING_FAMILY[0])
        assert len(LOSING_FAMILY[0]) == 23
        assert report.rule55 and not report.rule65 and not report.rule25

    def test_member_rule_fails_for_l15(self, eu_game):
        l15 = LOSING_FAMILY[14]
        assert l15.members == tuple(range(1, 16))
        report = eu_game.classify(l15)
        assert not report.rule55
        assert report.rule65  # the 15 largest states carry the population

    def test_losing_sizes(self):
        assert [len(c) for c in LOSING_FAMILY] == [
            23, 24, 24, 23, 23, 23, 23, 23, 23, 23, 23, 23, 24, 24, 15,
        ]

    def test_w12_exact_members(self):
        assert WINNING_FAMILY[11].members == (
            2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
        )

    def test_reference_coalitions_shape(self):
        losing, winning = reference_coalitions()
        assert len(losing) == 15 and len(winning) == 12
        assert losing == LOSING_FAMILY and winning == WINNING_FAMILY

    def test_classify_agrees_with_game_membership(self, eu_game):
        rng = random.Random(3)
        samples = list(LOSING_FAMILY + WINNING_FAMILY)
        samples += [Coalition(N_MEMBERS, rng.randrange(1 << N_MEMBERS)) for _ in range(300)]
        for c in samples:
            report = eu_game.classify(c)
            assert report.winning == eu_game.is_winning(c)
            assert report.winning == ((report.rule55 and report.rule65) or report.rule25)
            if report.rule25:
                assert report.winning

    def test_losing_failure_patterns_match_raw_data(self, eu_game):
        pops = eu_game.table.populations
        for c in LOSING_FAMILY:
            report = eu_game.classify(c)
            assert report.population_sum == sum(pops[m] for m in c.members)
            assert report.rule55 == (len(c) >= 16)
            assert report.rule65 == (20 * report.population_sum >= 13 * TOTAL_POPULATION)
            assert report.rule25 == (len(c) >= 25)
            assert not report.winning

    def test_dropping_largest_member_keeps_reports_coherent(self, eu_game):
        # Every 16-member winner must flip the member rule when losing anyone;
        # for larger winners the report disjunction must simply stay coherent.
        pops = eu_game.table.populations
        for c in WINNING_FAMILY:
            largest = max(c.members, key=lambda m: pops[m])
            smaller = c - Coalition.from_indices([largest], N_MEMBERS)
            report = eu_game.classify(smaller)
            if len(c) == 16:
                assert not report.rule55
            assert report.winning == ((report.rule55 and report.rule65) or report.rule25)

    def test_classify_rejects_wrong_ground_set(self, eu_game):
        with pytest.raises(ValueError):
            eu_game.classify(Coalition.from_indices([1], 5))

    def test_perturbed_table_changes_the_game(self):
        # Halving the largest population flips L1 to a winner: the rule is
        # genuinely data driven, not hard-coded.
        entries = [(1, "Germany", 80780000 // 2)] + list(MEMBERS_2014[1:])
        game = build_eu_game(MemberTable(tuple(entries)))
        assert game.is_winning(LOSING_FAMILY[0])


class TestLabels:
    def test_label_lookup(self):
        assert labeled_coalition("L15") == LOSING_FAMILY[14]
        assert labeled_coalition("w3") == WINNING_FAMILY[2]

    def test_unknown_label_rejected(self):
        for bad in ("X1", "L0", "L16", "W13", "", "L"):
            with pytest.raises(ValueError):
                labeled_coalition(bad)

    @pytest.mark.parametrize("bad", ["L\u0661", "W\u0663", "L+3", "L-3", "L1_0", "L 3",
                                     "L" + "9" * 5000])
    def test_label_number_is_ascii_digits(self, bad):
        # `int` would read each of these as a number (the last one raises).
        with pytest.raises(ValueError, match="^unknown coalition label"):
            labeled_coalition(bad)

    @pytest.mark.parametrize("text, value", [("0", 0), ("007", 7), ("28", 28)])
    def test_ascii_int(self, text, value):
        assert ascii_int(text) == value

    @pytest.mark.parametrize("bad", ["", " 3", "3 ", "+3", "-3", "1_0", "\u0661", "9" * 5000])
    def test_ascii_int_rejects(self, bad):
        with pytest.raises(ValueError):
            ascii_int(bad)

    def test_label_with_leading_zero(self):
        assert labeled_coalition("L03") == LOSING_FAMILY[2]

    def test_pair_family_count(self):
        assert len(NONSEPARABLE_PAIRS) == 75
        assert len(set(map(frozenset, NONSEPARABLE_PAIRS))) == 75


def changed_table(**populations):
    """The 2014 table with the given members' populations replaced (keys m<index>)."""
    new = {int(key[1:]): pop for key, pop in populations.items()}
    return MemberTable(tuple((i, name, new.get(i, pop)) for i, name, pop in MEMBERS_2014))


TABLES = {
    "default": default_members(),
    # the tables of the CLI failure tests
    "bulgaria-6521109": changed_table(m16=6521109),
    "halved-germany": changed_table(m1=80780000 // 2),
}


def tables_at_population_quota(coalition):
    """Two 2014-based tables on which `coalition` holds exactly 13/20 of the
    total population, and one person less, at the same total.

    The 2014 total is not a multiple of 20, so no coalition meets the quota
    with equality there.  The first member of the coalition is trimmed until
    its population P is a multiple of 13; the first member outside it then
    takes the population x with 20*P = 13*(P + rest + x).  Moving one person
    from the first member to that outside member gives the second table.
    """
    pops = default_members().populations
    inside = coalition.members[0]
    outside = next(m for m in range(1, N_MEMBERS + 1) if m not in coalition)
    pops[inside] -= sum(pops[m] for m in coalition.members) % 13
    population = sum(pops[m] for m in coalition.members)
    rest = sum(pops[m] for m in range(1, N_MEMBERS + 1)
               if m not in coalition and m != outside)
    pops[outside] = 7 * population // 13 - rest
    exact = changed_table(**{f"m{inside}": pops[inside], f"m{outside}": pops[outside]})
    below = changed_table(**{f"m{inside}": pops[inside] - 1, f"m{outside}": pops[outside] + 1})
    return exact, below


def masks_of_size(rng, k, count):
    """`count` random masks with k members, plus the k lowest and k highest bits."""
    masks = [sum(1 << b for b in rng.sample(range(N_MEMBERS), k)) for _ in range(count)]
    return masks + [(1 << k) - 1, ((1 << k) - 1) << (N_MEMBERS - k)]


class TestMaskRuleMatchesComposition:
    """`EuGame` against the rule composed from three weighted games."""

    @pytest.fixture(params=sorted(TABLES))
    def table(self, request):
        return TABLES[request.param]

    def assert_agree(self, table, masks):
        game, reference = build_eu_game(table), composed_council_game(table)
        for mask in masks:
            c = Coalition(N_MEMBERS, mask)
            expected = reference.contains(c)
            assert game.contains(c) == expected, c
            assert game.is_winning(c) == expected, c
            assert game.classify(c).winning == expected, c

    def test_bundled_coalitions(self, table):
        self.assert_agree(table, [c.mask for c in LOSING_FAMILY + WINNING_FAMILY])

    def test_random_masks(self, table):
        rng = random.Random(10)
        self.assert_agree(table, [rng.randrange(1 << N_MEMBERS) for _ in range(2000)])

    @pytest.mark.parametrize("k", [15, 16, 24, 25])
    def test_member_count_boundaries(self, table, k):
        self.assert_agree(table, masks_of_size(random.Random(k), k, 300))

    def test_population_exactly_at_and_one_below_the_quota(self):
        w1 = WINNING_FAMILY[0]
        assert 16 <= len(w1) < 25
        exact, below = tables_at_population_quota(w1)
        assert exact.total_population == below.total_population
        for table, at_quota in ((exact, True), (below, False)):
            report = build_eu_game(table).classify(w1)
            gap = 20 * report.population_sum - 13 * table.total_population
            assert gap == (0 if at_quota else -20)
            assert report.rule55 and report.rule65 == at_quota
            assert report.winning == at_quota
            rng = random.Random(7)
            # w1 and its one-member changes, then random masks
            masks = [w1.mask] + [w1.mask ^ (1 << b) for b in range(N_MEMBERS)]
            masks += [rng.randrange(1 << N_MEMBERS) for _ in range(300)]
            self.assert_agree(table, masks)

    def test_other_ground_sets_rejected(self, eu_game):
        c = Coalition.from_indices([1], 27)
        for method in (eu_game.contains, eu_game.is_winning, eu_game.classify):
            with pytest.raises(ValueError):
                method(c)

    def test_is_the_game_itself(self, eu_game):
        assert isinstance(eu_game, SimpleGame) and eu_game.n == N_MEMBERS
        assert EuGame.is_winning is EuGame.contains
        assert not hasattr(eu_game, "game")

    def test_minimal_winning_is_guarded(self, eu_game):
        # the guard stops the scan before any per-mask evaluation at n = 28
        with pytest.raises(ValueError, match="2\\^n coalitions, so n must be in 1..20, got 28$"):
            minimal_winning(eu_game)
