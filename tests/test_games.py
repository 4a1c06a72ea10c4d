import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gamedim import games
from gamedim._packed import byte_tables, table_sum
from gamedim.games import (
    Coalition,
    ExplicitGame,
    IntersectionGame,
    SimpleGame,
    UnionGame,
    WeightedGame,
    coalition_sort_key,
    minimal_winning,
)

from helpers import (
    brute_minimal_winning,
    coalitions_of,
    masked_sum,
    minimal_masks_of_bits,
    random_monotone_game,
    reference_winning_bits,
)


def C(indices, n):
    return Coalition.from_indices(indices, n)


class TestCoalition:
    def test_canonical_sort(self):
        assert C([2, 1], 4) == C([1, 2], 4)
        assert C([2, 1], 4).members == (1, 2)

    def test_empty(self):
        assert len(C([], 28)) == 0
        assert C([], 28).members == ()

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            C([3, 3], 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            C([5], 4)
        with pytest.raises(ValueError, match="out of range"):
            C([0], 4)

    def test_capacity_limit(self):
        with pytest.raises(ValueError):
            Coalition(65, 0)
        assert len(Coalition(64, (1 << 64) - 1)) == 64

    @pytest.mark.parametrize("n, mask", [(3, 1.0), (3, True), (True, 1), (3.0, 1), (3, "1")],
                             ids=repr)
    def test_fields_must_be_ints(self, n, mask):
        with pytest.raises(ValueError, match="^(member count|coalition mask) must be an int, got "):
            Coalition(n, mask)

    def test_membership_and_iteration(self):
        c = C([2, 5, 7], 8)
        assert 5 in c and 3 not in c
        assert list(c) == [2, 5, 7]

    def test_sort_key_orders_as_member_tuples(self):
        # Masks drawn from a small pool, so that equal sizes and duplicates
        # occur at every n, plus the empty and the full coalition.
        rng = random.Random(2718)
        for n in range(1, 65):
            pool = [rng.getrandbits(n) for _ in range(6)] + [0, (1 << n) - 1]
            for _ in range(4):
                masks = [rng.choice(pool) for _ in range(20)]
                masks += [m ^ 1 << rng.randrange(n) for m in masks[:5]]
                coalitions = [Coalition(n, m) for m in masks]
                by_tuple = sorted(coalitions, key=lambda c: (len(c), c.members))
                assert sorted(coalitions, key=coalition_sort_key) == by_tuple
                for a, b in zip(coalitions, coalitions[1:]):
                    assert ((coalition_sort_key(a) < coalition_sort_key(b))
                            == ((len(a), a.members) < (len(b), b.members)))
                    assert ((coalition_sort_key(a) == coalition_sort_key(b))
                            == (a == b))

    @given(st.integers(1, 16).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
    def test_from_indices_idempotent(self, case):
        n, members = case
        c = C(sorted(members), n)
        assert C(c.members, n) == c
        assert c.members == tuple(sorted(members))


class TestWeightedGame:
    def test_threshold_met(self):
        g = WeightedGame(4, [1, 1, 1, 1], 3)
        assert g.contains(C([1, 2, 3], 4))

    def test_threshold_missed(self):
        g = WeightedGame(4, [1, 1, 1, 1], 3)
        assert not g.contains(C([1, 2], 4))

    def test_dimension_mismatch(self):
        g = WeightedGame(4, [1, 1, 1, 1], 3)
        with pytest.raises(ValueError, match=r"^coalition \{1\} is over 5 members, not 4$"):
            g.contains(C([1], 5))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            WeightedGame(2, [1, -1], 1)

    def test_weight_count_checked(self):
        with pytest.raises(ValueError, match="weights"):
            WeightedGame(3, [1, 1], 1)

    def test_bool_weight_rejected(self):
        # Fraction(True) is 1, so the bool would be read as weight 1.
        with pytest.raises(ValueError, match="weight of member 2 is a bool: True"):
            WeightedGame(2, [1, True], 1)

    def test_bool_quota_rejected(self):
        # Fraction(True) is 1, so the bool would be read as quota 1.
        with pytest.raises(ValueError, match="^quota is a bool: True$"):
            WeightedGame(2, [1, 1], True)

    def test_float_weights_and_quota_rejected(self):
        # 0.1 would be read as 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match=r"^weight of member 1 is a float: 0\.1$"):
            WeightedGame(2, [0.1, 0.2], 0.3)
        with pytest.raises(ValueError, match=r"^quota is a float: 0\.3$"):
            WeightedGame(2, ["1/10", "1/5"], 0.3)

    @pytest.mark.parametrize("bad", [Decimal("0.5"), None, [1]], ids=repr)
    def test_weight_and_quota_of_any_other_type_rejected(self, bad):
        kind = type(bad).__name__
        with pytest.raises(ValueError, match=re.escape(f"weight of member 2 is a {kind}: {bad!r}")):
            WeightedGame(2, [1, bad], 1)
        with pytest.raises(ValueError, match=re.escape(f"quota is a {kind}: {bad!r}")):
            WeightedGame(2, [1, 1], bad)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="^weight of member 1 '1/0' has denominator zero$"):
            WeightedGame(1, ["1/0"], 1)

    def test_ints_fractions_and_strings_are_exact(self):
        g = WeightedGame(3, [1, Fraction(1, 3), "0.65"], "13/20")
        assert g.weights == (1, Fraction(1, 3), Fraction(13, 20))
        assert g.quota == Fraction(13, 20)

    @pytest.mark.parametrize("n", [2.0, True], ids=repr)
    def test_member_count_must_be_an_int(self, n):
        with pytest.raises(ValueError, match=f"member count must be an int, got {n!r}"):
            WeightedGame(n, [1, 1], 1)

    def test_exact_fraction_quota(self):
        g = WeightedGame(2, [Fraction(1, 3), Fraction(1, 3)], Fraction(2, 3))
        assert g.contains(C([1, 2], 2))
        assert not g.contains(C([1], 2))

    def test_monotone_exhaustive(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 8)
            g = WeightedGame(n, [rng.randint(0, 9) for _ in range(n)], rng.randint(0, 20))
            for c in coalitions_of(n):
                if g.contains(c):
                    for m in range(1, n + 1):
                        if m not in c:
                            assert g.contains(C(sorted(c.members + (m,)), n))

    def test_monotone_randomized_large_n(self):
        rng = random.Random(8)
        n = 40
        g = WeightedGame(n, [rng.randint(0, 100) for _ in range(n)], 500)
        for _ in range(200):
            small = [m for m in range(1, n + 1) if rng.random() < 0.4]
            extra = [m for m in range(1, n + 1) if m not in small and rng.random() < 0.3]
            if g.contains(C(small, n)):
                assert g.contains(C(sorted(small + extra), n))

    @given(st.integers(1, 8), st.integers(1, 10 ** 6), st.integers(0, 2 ** 32))
    def test_scaling_preserves_membership(self, n, scale, seed):
        rng = random.Random(seed)
        weights = [rng.randint(0, 50) for _ in range(n)]
        quota = rng.randint(0, sum(weights) + 1)
        g = WeightedGame(n, weights, quota)
        scaled = WeightedGame(n, [w * scale for w in weights], quota * scale)
        for c in coalitions_of(n):
            assert g.contains(c) == scaled.contains(c)


def fraction_contains(game, coalition):
    """Membership by the exact rational weight sum: the reference oracle."""
    return sum((game.weights[m - 1] for m in coalition.members), Fraction(0)) >= game.quota


def first_primes(count, start):
    primes = []
    k = start
    while len(primes) < count:
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            primes.append(k)
        k += 1
    return primes


class TestIntegerScaledMembership:
    @given(
        st.lists(st.fractions(min_value=0, max_value=20, max_denominator=12),
                 min_size=1, max_size=8),
        st.integers(0, 2 ** 8 - 1),
        st.sampled_from((-1, 0, 1)),
        st.fractions(min_value=0, max_value=40, max_denominator=12),
    )
    def test_agrees_with_fraction_sum(self, weights, subset_mask, offset, free_quota):
        # Quotas at a subset's exact weight (a tie) and one step either side,
        # plus a quota whose denominator the weights need not share.
        n = len(weights)
        subset = Coalition(n, subset_mask & ((1 << n) - 1))
        lcm = math.lcm(*(w.denominator for w in weights))
        quota = sum((weights[m - 1] for m in subset.members), Fraction(0))
        quota += Fraction(offset, lcm)
        for g in (WeightedGame(n, weights, quota), WeightedGame(n, weights, free_quota)):
            for c in coalitions_of(n):
                assert g.contains(c) == fraction_contains(g, c)
        if offset == 0:
            assert WeightedGame(n, weights, quota).contains(subset)

    @given(
        st.lists(st.fractions(min_value=0, max_value=20, max_denominator=12),
                 min_size=1, max_size=8),
        st.fractions(min_value=0, max_value=40, max_denominator=12),
    )
    def test_public_fields_stay_fractions(self, weights, quota):
        g = WeightedGame(len(weights), [str(w) for w in weights], str(quota))
        assert g.weights == tuple(weights)
        assert all(type(w) is Fraction for w in g.weights)
        assert g.quota == quota and type(g.quota) is Fraction
        assert g == WeightedGame(len(weights), weights, quota)
        assert hash(g) == hash(WeightedGame(len(weights), weights, quota))
        assert repr(g) == (f"WeightedGame(n={len(weights)}, weights={tuple(weights)!r}, "
                           f"quota={quota!r})")

    def test_equality_ignores_scaled_copies(self):
        # Same integer weights after scaling, different games.
        assert WeightedGame(2, [1, 1], 1) != WeightedGame(2, [2, 2], 2)
        assert WeightedGame(2, ["1/2", "1/2"], "1/2") != WeightedGame(2, [1, 1], 1)

    def test_64_members_with_large_coprime_denominators(self):
        rng = random.Random(64)
        n = 64
        dens = first_primes(n, 10 ** 6)
        weights = [Fraction(rng.randint(0, 10 ** 6), d) for d in dens]
        tie = Coalition(n, rng.getrandbits(n))
        quota = sum((weights[m - 1] for m in tie.members), Fraction(0))
        step = Fraction(1, math.lcm(*dens))
        for q in (quota - step, quota, quota + step):
            g = WeightedGame(n, weights, q)
            for mask in [tie.mask] + [rng.getrandbits(n) for _ in range(300)]:
                c = Coalition(n, mask)
                assert g.contains(c) == fraction_contains(g, c)
        exact = WeightedGame(n, weights, quota)
        assert exact.contains(tie)
        assert not WeightedGame(n, weights, quota + step).contains(tie)
        for m in tie.members:
            if weights[m - 1]:
                assert not exact.contains(Coalition(n, tie.mask & ~(1 << m - 1)))


class TestByteTableMembership:
    """`WeightedGame.contains` reads per-byte partial-sum tables, built lazily."""

    @staticmethod
    def masked_sum_contains(game, coalition):
        return masked_sum(game._scaled_weights, coalition.mask) >= game._scaled_quota

    @pytest.mark.parametrize("n", range(1, 65))
    def test_agrees_with_masked_sum(self, n):
        rng = random.Random(n)
        for kind in ("integer", "fraction", "sparse"):
            if kind == "integer":
                weights = [rng.randint(0, 30) for _ in range(n)]
            elif kind == "fraction":
                weights = [Fraction(rng.randint(0, 40), rng.randint(1, 9)) for _ in range(n)]
            else:  # mostly zero weights
                weights = [rng.choice((0, 0, 0, rng.randint(1, 5))) for _ in range(n)]
            tie = rng.getrandbits(n)
            tie_weight = sum((weights[i] for i in range(n) if tie >> i & 1), Fraction(0))
            step = Fraction(1, math.lcm(*(Fraction(w).denominator for w in weights)))
            masks = [0, (1 << n) - 1, tie] + [rng.getrandbits(n) for _ in range(40)]
            for quota in (0, tie_weight - step, tie_weight, tie_weight + step):
                if quota < 0:
                    continue
                game = WeightedGame(n, weights, quota)
                for mask in masks:
                    c = Coalition(n, mask)
                    assert game.contains(c) == self.masked_sum_contains(game, c), (kind, mask)
                assert game.contains(Coalition(n, tie)) == (quota <= tie_weight)

    def test_quota_zero_and_zero_weights(self):
        for n in (1, 7, 8, 9, 64):
            assert WeightedGame(n, [0] * n, 0).contains(Coalition(n, 0))
            full = Coalition(n, (1 << n) - 1)
            assert not WeightedGame(n, [0] * n, 1).contains(full)

    @pytest.mark.parametrize("n", [1, 8, 9, 28, 64])
    def test_byte_tables_sum_against_masked_sum(self, n):
        rng = random.Random(n)
        values = [rng.randrange(-10**12, 10**12) for _ in range(n)]
        tables = byte_tables(values)
        assert [len(t) for t in tables] == [1 << min(8, n - low) for low in range(0, n, 8)]
        for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(200)]:
            assert table_sum(tables, mask) == masked_sum(values, mask)

    def test_tables_built_on_first_contains_only(self):
        g = WeightedGame(20, list(range(20)), 100)
        twin = WeightedGame(20, list(range(20)), 100)
        assert "_byte_sums" not in g.__dict__
        g.contains(Coalition(20, 12345))
        tables = g.__dict__["_byte_sums"]
        assert [len(t) for t in tables] == [256, 256, 16]
        g.contains(Coalition(20, 999))
        assert g.__dict__["_byte_sums"] is tables
        assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)

    def test_minimal_winning_builds_no_table(self):
        rng = random.Random(5)
        parts = [WeightedGame(10, [rng.randint(1, 10) for _ in range(10)], 25)
                 for _ in range(2)]
        minimal_winning(IntersectionGame(parts))
        minimal_winning(parts[0])
        for part in parts:
            assert "_byte_sums" not in part.__dict__


class TestGameExpressions:
    def test_union_semantics(self):
        a = WeightedGame(3, [1, 0, 0], 1)
        b = WeightedGame(3, [0, 0, 1], 1)
        g = UnionGame([a, b])
        assert g.contains(C([3], 3))  # wins in b only
        assert not g.contains(C([2], 3))

    def test_intersection_semantics(self):
        a = WeightedGame(3, [1, 0, 0], 1)
        b = WeightedGame(3, [0, 0, 1], 1)
        g = IntersectionGame([a, b])
        assert not g.contains(C([3], 3))  # loses in a
        assert g.contains(C([1, 3], 3))

    def test_empty_combination_rejected(self):
        with pytest.raises(ValueError):
            UnionGame([])

    def test_intersection_of_a_coalition_rejected(self):
        with pytest.raises(ValueError, match=r"^combination part Coalition\(n=3, mask=1\) "
                                             r"is not a SimpleGame$"):
            IntersectionGame([Coalition(3, 1)])

    def test_union_with_a_string_part_rejected(self):
        g = WeightedGame(2, [1, 1], 1)
        with pytest.raises(ValueError, match="^combination part 'xx' is not a SimpleGame$"):
            UnionGame([g, "xx"])

    def test_explicit_winner_must_be_a_coalition(self):
        with pytest.raises(ValueError, match="declared winner 1 is not a Coalition"):
            ExplicitGame(3, [1, 2])
        with pytest.raises(ValueError, match=r"declared winner \[1, 2\] is not a Coalition"):
            ExplicitGame(3, [[1, 2]])

    def test_explicit_member_count_must_be_an_int(self):
        with pytest.raises(ValueError, match="member count must be an int, got 2.0"):
            ExplicitGame(2.0, [])

    def test_mismatched_parts_rejected(self):
        with pytest.raises(ValueError, match=r"^combination part WeightedGame\(n=3, .* "
                                             r"is over 3 members, not 2$"):
            IntersectionGame([WeightedGame(2, [1, 1], 1), WeightedGame(3, [1, 1, 1], 1)])

    def test_combinations_compare_by_value(self):
        a = WeightedGame(3, [1, 0, 0], 1)
        b = WeightedGame(3, [0, 0, 1], 1)
        both = IntersectionGame([a, b])
        assert both == IntersectionGame((a, WeightedGame(3, [0, 0, 1], 1)))
        assert hash(both) == hash(IntersectionGame([a, b]))
        assert both != UnionGame([a, b]) and UnionGame([a, b]) != both
        assert both != IntersectionGame([b, a])
        assert UnionGame([a, b]) == UnionGame([a, b]) and both.n == 3

    def test_explicit_closure_evaluation(self):
        g = ExplicitGame(3, [C([1, 2], 3)])
        assert g.contains(C([1, 2, 3], 3))
        assert not g.contains(C([1, 3], 3))

    def test_explicit_agreement_with_direct_closure(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 8)
            declared = [Coalition(n, rng.randrange(1 << n)) for _ in range(rng.randint(1, 10))]
            g = ExplicitGame(n, declared)
            for c in coalitions_of(n):
                assert g.contains(c) == any(d.mask & ~c.mask == 0 for d in declared)


def random_weighted(rng, n):
    """Fraction weights, some zero, with a quota at a subset's exact weight
    (a tie), at 0, or anywhere up to the total weight."""
    weights = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) if rng.random() < 0.8
               else Fraction(0) for _ in range(n)]
    pick = rng.random()
    if pick < 0.4:
        quota = sum((w for w in weights if rng.random() < 0.5), Fraction(0))
    elif pick < 0.5:
        quota = Fraction(0)
    else:
        quota = Fraction(rng.randint(0, 4 * int(sum(weights)) + 4), 4)
    return WeightedGame(n, weights, quota)


def random_game(rng, n):
    """One of: weighted, explicit, intersection, union, union of intersections."""
    kind = rng.randrange(5)
    if kind == 0:
        return random_weighted(rng, n)
    if kind == 1:
        return ExplicitGame(n, [Coalition(n, rng.randrange(1 << n))
                                for _ in range(rng.randint(1, 8))])
    if kind == 2:
        return IntersectionGame([random_weighted(rng, n) for _ in range(rng.randint(1, 3))])
    if kind == 3:
        return UnionGame([random_weighted(rng, n) for _ in range(rng.randint(1, 3))])
    # The council's shape: a union of intersections of weighted games.
    return UnionGame([
        IntersectionGame([random_weighted(rng, n) for _ in range(rng.randint(1, 3))])
        for _ in range(rng.randint(1, 3))
    ])


class ContainsOnly(SimpleGame):
    """A user subclass that defines only `contains`: at least half the members."""

    def __init__(self, n):
        self.n = n

    def contains(self, coalition):
        return 2 * len(coalition) >= self.n


class TestWinningBits:
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_contains_on_every_mask(self, seed):
        rng = random.Random(seed)
        for n in range(1, 11):
            game = random_game(rng, n)
            bits = game._winning_bits()
            assert 0 <= bits < 1 << (1 << n)
            for c in coalitions_of(n):
                assert bits >> c.mask & 1 == game.contains(c), (game, c)

    @given(
        st.lists(st.fractions(min_value=0, max_value=20, max_denominator=12),
                 min_size=1, max_size=8),
        st.integers(0, 2 ** 8 - 1),
    )
    def test_weighted_tie_at_the_quota(self, weights, subset_mask):
        n = len(weights)
        tie = subset_mask & ((1 << n) - 1)
        quota = sum((weights[i] for i in range(n) if tie >> i & 1), Fraction(0))
        game = WeightedGame(n, weights, quota)
        bits = game._winning_bits()
        assert bits >> tie & 1
        for c in coalitions_of(n):
            assert bits >> c.mask & 1 == fraction_contains(game, c)

    def test_quota_zero_and_zero_weights(self):
        assert WeightedGame(3, [0, 0, 0], 0)._winning_bits() == (1 << 8) - 1
        assert WeightedGame(3, [0, 0, 0], 1)._winning_bits() == 0
        # Member 2 has weight 0: {2} loses, {1} and every superset of it wins.
        assert WeightedGame(2, [1, 0], 1)._winning_bits() == 0b1010

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_matches_the_subset_sum_formula_at_every_split(self, seed):
        # The bitset is met in the middle at h = max(3, (n + 1) // 2) low
        # members (all of them below n = 3): n = 1..14 covers every split.
        rng = random.Random(7300 + seed)
        for n in range(1, 15):
            for _ in range(6):
                game = random_weighted(rng, n)
                assert game._winning_bits() == reference_winning_bits(game), game

    @pytest.mark.parametrize("n", [16, 20])
    def test_weighted_matches_the_subset_sum_formula_at_large_n(self, n):
        rng = random.Random(7400 + n)
        games_ = [random_weighted(rng, n),
                  WeightedGame(n, [rng.randint(1, 10) for _ in range(n)], rng.randint(n, 4 * n))]
        for game in games_:
            assert game._winning_bits() == reference_winning_bits(game), game

    def test_weighted_quota_outside_the_sums(self):
        rng = random.Random(7500)
        for n in (1, 2, 3, 7, 12):
            weights = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)]
            total = sum(weights, Fraction(0))
            for quota in (Fraction(-5, 2), Fraction(0)):
                assert WeightedGame(n, weights, quota)._winning_bits() == (1 << (1 << n)) - 1
            assert WeightedGame(n, weights, total + Fraction(1, 7))._winning_bits() == 0
            # The grand coalition ties at the quota, so it wins.
            tie = WeightedGame(n, weights, total)
            assert tie._winning_bits() >> ((1 << n) - 1) & 1
            assert tie._winning_bits() == reference_winning_bits(tie)
        # All weights zero: every mask weighs 0.
        assert WeightedGame(9, [0] * 9, 0)._winning_bits() == (1 << 512) - 1
        assert WeightedGame(9, [0] * 9, Fraction(1, 9))._winning_bits() == 0

    def test_base_method_for_contains_only_subclass(self):
        for n in range(1, 9):
            game = ContainsOnly(n)
            bits = game._winning_bits()
            for c in coalitions_of(n):
                assert bits >> c.mask & 1 == game.contains(c)
            assert list(minimal_winning(game)) == brute_minimal_winning(game)


class TestMinimalWinning:
    def test_unanimity(self):
        g = WeightedGame(3, [1, 1, 1], 3)
        assert minimal_winning(g) == (C([1, 2, 3], 3),)

    def test_symmetric_threshold(self):
        g = WeightedGame(4, [1, 1, 1, 1], 2)
        got = minimal_winning(g)
        assert len(got) == 6
        assert all(len(c) == 2 for c in got)

    def test_intersection_game(self):
        g = IntersectionGame([
            WeightedGame(4, [1, 1, 0, 0], 1),
            WeightedGame(4, [0, 0, 1, 1], 1),
        ])
        got = minimal_winning(g)
        expected = (C([1, 3], 4), C([1, 4], 4), C([2, 3], 4), C([2, 4], 4))
        assert got == expected
        assert list(got) == brute_minimal_winning(g)

    def test_against_brute_force_on_random_games(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_monotone_game(rng, rng.randint(1, 7))
            assert list(minimal_winning(g)) == brute_minimal_winning(g)

    def test_against_brute_force_on_weighted_combinations(self):
        # Intersections and unions of random weighted games, as on the
        # separation ladder, up to n = 10.
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 10)
            parts = [WeightedGame(n, [rng.randint(1, 10) for _ in range(n)],
                                  rng.randint(n, 4 * n)) for _ in range(2)]
            for game in (IntersectionGame(parts), UnionGame(parts)):
                assert list(minimal_winning(game)) == brute_minimal_winning(game)

    @pytest.mark.parametrize("n", [3, 8, 11, 14, 16])
    def test_sorted_like_coalition_sort_key_on_brute_force_sets(self, n):
        # Up to n = 16: the minimal masks of each part's subset-sum bitset,
        # and of their AND and OR, each sorted by coalition_sort_key.
        rng = random.Random(7600 + n)
        parts = [WeightedGame(n, [rng.randint(0, 10) for _ in range(n)], rng.randint(n, 4 * n))
                 for _ in range(2)]
        bits = [reference_winning_bits(p) for p in parts]
        for game, reference in ((parts[0], bits[0]),
                                (IntersectionGame(parts), bits[0] & bits[1]),
                                (UnionGame(parts), bits[0] | bits[1])):
            expected = sorted((Coalition(n, m) for m in minimal_masks_of_bits(reference, n)),
                              key=coalition_sort_key)
            assert minimal_winning(game) == tuple(expected)

    def test_results_equal_the_checked_coalitions(self):
        # minimal_winning builds its results unchecked, off the bitset.
        rng = random.Random(4271)
        for n in range(1, 11):
            for c in minimal_winning(random_game(rng, n)):
                assert type(c) is Coalition and c == Coalition(n, c.mask)

    def test_no_membership_calls_and_one_coalition_per_result(self, monkeypatch):
        counts = {"contains": 0, "coalitions": 0}
        for cls in (WeightedGame, ExplicitGame, IntersectionGame, UnionGame):
            original = cls.contains

            def counted(self, coalition, _original=original):
                counts["contains"] += 1
                return _original(self, coalition)

            monkeypatch.setattr(cls, "contains", counted)
        # A coalition is built checked (`__post_init__`) or unchecked
        # (`games._coalition`); count both.
        original_post_init = Coalition.__post_init__
        original_unchecked = games._coalition

        def counted_post_init(self):
            counts["coalitions"] += 1
            original_post_init(self)

        def counted_unchecked(n, mask):
            counts["coalitions"] += 1
            return original_unchecked(n, mask)

        monkeypatch.setattr(Coalition, "__post_init__", counted_post_init)
        monkeypatch.setattr(games, "_coalition", counted_unchecked)
        game = IntersectionGame([
            WeightedGame(12, [7, 9, 5, 7, 6, 7, 4, 3, 2, 3, 3, 4], 40),
            WeightedGame(12, [10, 3, 5, 5, 1, 3, 7, 9, 6, 10, 10, 6], 45),
        ])
        result = minimal_winning(game)
        assert result
        assert counts == {"contains": 0, "coalitions": len(result)}

    def test_finishes_at_the_guard(self):
        got = minimal_winning(WeightedGame(20, [1] * 20, 18))
        assert len(got) == math.comb(20, 2) == 190
        assert all(len(c) == 18 for c in got)
        halves = UnionGame([
            WeightedGame(20, [1] * 10 + [0] * 10, 10),
            WeightedGame(20, [0] * 10 + [1] * 10, 10),
        ])
        assert minimal_winning(halves) == (C(range(1, 11), 20), C(range(11, 21), 20))

    def test_resource_guard(self):
        with pytest.raises(ValueError, match="so n must be in 1..20, got 28$"):
            minimal_winning(WeightedGame(28, [1] * 28, 25))

    def test_no_members_rejected(self):
        # No coalition exists over 0 members, so no game over them is built.
        with pytest.raises(ValueError, match="^member count must be in 1..64, got 0$"):
            WeightedGame(0, [], 1)
        with pytest.raises(ValueError, match="^member count must be in 1..64, got 0$"):
            ExplicitGame(0, [])
