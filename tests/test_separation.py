import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from gamedim import separation
from gamedim.certificates import BalanceCertificate, verify_balance
from gamedim.eu import (
    LOSING_FAMILY,
    NONSEPARABLE_TRIPLES,
    WINNING_FAMILY,
)
from gamedim.games import Coalition, IntersectionGame, WeightedGame, minimal_winning
from gamedim.separation import (
    NotSeparable,
    Separable,
    SeparationInstance,
    _inclusion_maximal,
    _inclusion_minimal,
    instance_from_json,
    is_nonseparable_exhaustive,
    lp_feasible,
)
from gamedim.simplex import phase_one

from helpers import (
    ODD_PIVOT_RHS,
    ODD_PIVOT_ROWS,
    TRIPLE_WITNESSES,
    as_entries,
    as_masks,
    brute_inclusion_maximal,
    brute_inclusion_minimal,
    find_balanced_pair_certificate,
    random_monotone_game,
    reference_phase_one,
    sylvester_minor,
)


def C(indices, n):
    return Coalition.from_indices(indices, n)


def substitute(result: Separable, instance: SeparationInstance) -> None:
    for w in instance.winning_constraints:
        assert sum(result.weights[m - 1] for m in w.members) >= result.quota
    for l in instance.losing_targets:
        assert sum(result.weights[m - 1] for m in l.members) <= result.quota - 1
    assert all(w >= 0 for w in result.weights)


def recombine(result: NotSeparable, instance: SeparationInstance) -> None:
    """Re-add the refutation's terms from constraints rebuilt here."""
    rows = {f"weight[{i}] >= 0": ({i: -1}, 0) for i in range(1, instance.n + 1)}
    for w in instance.winning_constraints:
        rows[f"weight({w}) >= quota"] = ({**{m: -1 for m in w.members}, "quota": 1}, 0)
    for l in instance.losing_targets:
        rows[f"weight({l}) <= quota - 1"] = ({**{m: 1 for m in l.members}, "quota": -1}, -1)
    combined: dict = {}
    total = Fraction(0)
    for lam, label in result.terms:
        assert lam > 0
        coeffs, rhs = rows[label]
        for var, c in coeffs.items():
            combined[var] = combined.get(var, 0) + lam * c
        total += lam * rhs
    assert not any(combined.values())
    assert total == result.total < 0


def verdict_digest(verdicts) -> str:
    """sha256 over the verdicts' reprs, one a line.

    No refutation here has a term on the quota's bound, `quota >= 0`.  One
    would be valid, but would change the printed terms, so it is looked for
    first.
    """
    for verdict in verdicts:
        if isinstance(verdict, NotSeparable):
            assert "quota >= 0" not in [label for _, label in verdict.terms]
    return hashlib.sha256("\n".join(map(repr, verdicts)).encode()).hexdigest()


def intersection_instance(parts, targets, n):
    game = IntersectionGame([WeightedGame(n, w, q) for w, q in parts])
    instance = SeparationInstance(n, minimal_winning(game),
                                  [Coalition(n, m) for m in targets])
    return game, instance


CROSSING = SeparationInstance(
    4,
    winning_constraints=[C([1, 3], 4), C([2, 4], 4)],
    losing_targets=[C([1, 2], 4), C([3, 4], 4)],
)

# The separable instance that `gamedim separate` is pinned on in test_cli.py.
FIVE = SeparationInstance(
    5,
    winning_constraints=[C([1, 2, 3], 5), C([3, 4, 5], 5), C([1, 4], 5)],
    losing_targets=[C([1, 2, 5], 5), C([2, 3, 4], 5)],
)

PLANTED_N8 = ([([2, 3, 8, 10, 1, 4, 3, 7], 16), ([3, 10, 6, 3, 9, 10, 7, 7], 27)],
              [142, 113], 8)
DECLARED_N14 = ([([7, 9, 5, 7, 6, 7, 4, 3, 2, 3, 3, 4, 4, 1], 43),
                 ([10, 3, 5, 5, 1, 3, 7, 9, 6, 10, 10, 6, 3, 9], 47)],
                [12438, 13611, 893], 14)


class TestLpFeasible:
    def test_single_member_separates(self):
        instance = SeparationInstance(2, [C([1, 2], 2)], [C([1], 2)])
        result = lp_feasible(instance)
        assert isinstance(result, Separable)
        substitute(result, instance)

    @pytest.mark.parametrize("weights, quota, message", [
        ([-1, 5, 3], 3, "^witness has a negative weight$"),
        ([0, 0, 0], 1, r"^witness violates winning constraint \{1,2,3\}$"),
        # {1} lies inside the target {1,2}, so the LP never sees it; the
        # check runs over the instance as given and names it first.
        ([1, 1, 0], 1, r"^witness violates losing target \{1\}$"),
    ])
    def test_witness_recheck_rejects_a_wrong_vertex(self, monkeypatch, weights, quota,
                                                    message):
        instance = SeparationInstance(3, [C([1, 2, 3], 3)], [C([1], 3), C([1, 2], 3)])
        monkeypatch.setattr(separation, "phase_one",
                            lambda rows, rhs, k: (True, weights + [quota], 1))
        with pytest.raises(RuntimeError, match=message):
            lp_feasible(instance)

    def test_crossing_pairs_not_separable(self):
        # Summing the two winning and two losing constraints forces
        # 2*quota <= total weight <= 2*quota - 2.
        result = lp_feasible(CROSSING)
        assert isinstance(result, NotSeparable)
        assert "contradiction" in result.farkas_note

    def test_empty_winning_rejected(self):
        with pytest.raises(ValueError, match="winning"):
            SeparationInstance(2, [], [C([1], 2)])

    def test_empty_losing_rejected(self):
        with pytest.raises(ValueError, match="losing"):
            SeparationInstance(2, [C([1], 2)], [])

    def test_ground_set_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SeparationInstance(3, [C([1], 2)], [C([2], 2)])

    def test_deterministic(self):
        instance = SeparationInstance(
            3, [C([1, 2], 3), C([2, 3], 3)], [C([2], 3), C([1, 3], 3)]
        )
        assert lp_feasible(instance) == lp_feasible(instance)

    def test_losing_superset_of_winning_infeasible(self):
        instance = SeparationInstance(3, [C([1], 3)], [C([1, 2], 3)])
        assert isinstance(lp_feasible(instance), NotSeparable)

    def test_scale_invariance_of_witness(self):
        instance = SeparationInstance(
            4, [C([1, 2], 4), C([3, 4], 4)], [C([1, 3], 4)]
        )
        result = lp_feasible(instance)
        assert isinstance(result, Separable)
        for k in (Fraction(2), Fraction(7, 3), Fraction(100)):
            scaled_weights = tuple(k * w for w in result.weights)
            scaled_quota = k * result.quota
            for w in instance.winning_constraints:
                assert sum(scaled_weights[m - 1] for m in w.members) >= scaled_quota
            for l in instance.losing_targets:
                assert sum(scaled_weights[m - 1] for m in l.members) <= scaled_quota - k

    def test_random_instances_witnesses_substitute(self):
        rng = random.Random(21)
        separable = not_separable = 0
        for _ in range(120):
            n = rng.randint(2, 7)
            winning = [Coalition(n, rng.randrange(1, 1 << n))
                       for _ in range(rng.randint(1, 5))]
            losing = [Coalition(n, rng.randrange(1 << n))
                      for _ in range(rng.randint(1, 3))]
            instance = SeparationInstance(n, winning, losing)
            result = lp_feasible(instance)
            if isinstance(result, Separable):
                substitute(result, instance)
                separable += 1
            else:
                not_separable += 1
        assert separable > 10 and not_separable > 10

    def test_random_verdicts_rechecked_by_the_test(self):
        # Balanced losing pairs and targets that contain a winning
        # constraint are never separable; random losing targets mostly are.
        rng = random.Random(1871)
        separable = not_separable = 0
        for _ in range(150):
            n = rng.randint(2, 7)
            game = random_monotone_game(rng, n)
            winning = minimal_winning(game)
            losing = [c for mask in range(1 << n)
                      if not game.contains(c := Coalition(n, mask))]
            if not winning or not losing:
                continue
            cert = find_balanced_pair_certificate(game, losing, rng, max_pairs=25)
            if cert is not None:
                targets = list(cert.losing)
            else:
                targets = rng.sample(losing, min(len(losing), rng.randint(1, 3)))
                if rng.random() < 0.25:
                    targets[0] = rng.choice(winning) | targets[0]
            instance = SeparationInstance(n, winning, targets)
            result = lp_feasible(instance)
            if isinstance(result, Separable):
                substitute(result, instance)
                separable += 1
            else:
                recombine(result, instance)
                not_separable += 1
        assert separable > 10 and not_separable > 10


class TestFormerBlowUps:
    """Instances on which Fourier-Motzkin elimination ran for 28 s to over 120 s."""

    def test_planted_pair_n8(self):
        game, instance = intersection_instance(*PLANTED_N8)
        result = lp_feasible(instance)
        assert isinstance(result, NotSeparable)
        recombine(result, instance)
        cert = BalanceCertificate(losing=instance.losing_targets,
                                  winning=[Coalition(8, 225), Coalition(8, 30)])
        assert verify_balance(cert, game)

    def test_declared_rung_n14(self):
        _, instance = intersection_instance(*DECLARED_N14)
        assert len(instance.winning_constraints) == 666
        result = lp_feasible(instance)
        assert isinstance(result, Separable)
        substitute(result, instance)


def check_phase_one(rows, rhs):
    """The packed solver returns the reference's verdict, vertex or row
    multipliers y, and D; a refutation's bound multipliers are y . rows;
    and the result holds."""
    k = len(rows[0])
    feasible, values, denom = phase_one(as_masks(rows), rhs, k)
    expected = reference_phase_one(rows, rhs)
    assert denom > 0 and all(v >= 0 for v in values)
    if feasible:
        assert (feasible, values, denom) == expected
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, values)) <= b * denom
    else:
        bounds, y = values[:k], values[k:]
        assert (feasible, y, denom) == expected
        assert bounds == [sum(yi * row[j] for yi, row in zip(y, rows)) for j in range(k)]
        assert sum(yi * b for yi, b in zip(y, rhs)) < 0
    return feasible


def random_system(rng, n):
    """Rows over (weights, quota) with entries and rhs in {-1, 0, 1}.

    Half the systems have the rows `lp_feasible` builds; the rest are
    arbitrary.  Some rows are repeated, which makes Bland's ratio test
    break ties.
    """
    rows, rhs = [], []
    lp_shaped = rng.random() < 0.5
    for _ in range(rng.randint(1, 2 * n + 4)):
        if lp_shaped:
            winning = rng.random() < 0.6
            bits = [rng.getrandbits(1) for _ in range(n)]
            rows.append([-b for b in bits] + [1] if winning else bits + [-1])
            rhs.append(0 if winning else -1)
        else:
            rows.append([rng.choice((-1, 0, 0, 1)) for _ in range(n + 1)])
            rhs.append(rng.choice((-1, 0, 0, 1)))
        if rng.random() < 0.2:
            rows.append(list(rows[-1]))
            rhs.append(rhs[-1])
    if min(rhs) >= 0:
        i = rng.randrange(len(rhs))
        rows.append(list(rows[i]))
        rhs.append(-1)
    return rows, rhs


def tall_system(rng):
    """`lp_feasible`'s rows for an n = 10-12 intersection of two weighted
    games: one per minimal winning coalition, 100-400 of them, then 1-3
    random losing targets."""
    while True:
        n = rng.randint(10, 12)
        parts = []
        for _ in range(2):
            weights = [rng.randint(1, 10) for _ in range(n)]
            parts.append(WeightedGame(n, weights, rng.randint(2 * sum(weights) // 5,
                                                              3 * sum(weights) // 5)))
        game = IntersectionGame(parts)
        winning = [c.mask for c in minimal_winning(game)]
        if 100 <= len(winning) <= 400:
            break
    losing, count = [], rng.randint(1, 3)
    while len(losing) < count:
        mask = rng.getrandbits(n) | rng.getrandbits(n)
        if not game.contains(Coalition(n, mask)):
            losing.append(mask)
    bits = [[m >> i & 1 for i in range(n)] for m in winning + losing]
    rows = ([[-b for b in row] + [1] for row in bits[:len(winning)]]
            + [row + [-1] for row in bits[len(winning):]])
    return rows, [0] * len(winning) + [-1] * count


@pytest.fixture
def phase_one_calls(monkeypatch):
    """Every (rows, rhs) that `lp_feasible` hands to `phase_one`, as entries."""
    calls = []

    def record(rows, rhs, k):
        calls.append((as_entries(rows, k), list(rhs)))
        return phase_one(rows, rhs, k)

    monkeypatch.setattr(separation, "phase_one", record)
    return calls


class TestPackedPhaseOne:
    """The packed-column solver against the list-of-rows reference."""

    def test_random_systems_match_reference(self):
        rng = random.Random(9053)
        outcomes = {True: 0, False: 0}
        for i in range(1000):
            outcomes[check_phase_one(*random_system(rng, 1 + i % 14))] += 1
        assert outcomes[True] > 100 and outcomes[False] > 100

    def test_lp_feasible_systems_match_reference(self, phase_one_calls):
        instances = [CROSSING, FIVE,
                     intersection_instance(*PLANTED_N8)[1],
                     intersection_instance(*DECLARED_N14)[1]]
        # Planted pairs: two losing coalitions balanced by two winning ones.
        rng = random.Random(640)
        while len(instances) < 24:
            n = rng.randint(3, 8)
            game = random_monotone_game(rng, n)
            winning = minimal_winning(game)
            losing = [c for mask in range(1 << n)
                      if not game.contains(c := Coalition(n, mask))]
            cert = find_balanced_pair_certificate(game, losing, rng, max_pairs=10)
            if winning and cert is not None:
                instances.append(SeparationInstance(n, winning, cert.losing))
        verdicts = [lp_feasible(instance) for instance in instances]
        assert isinstance(verdicts[0], NotSeparable)
        assert isinstance(verdicts[1], Separable)
        assert isinstance(verdicts[2], NotSeparable)
        assert isinstance(verdicts[3], Separable)
        assert all(isinstance(v, NotSeparable) for v in verdicts[4:])
        assert verdict_digest(verdicts) == (
            "cae2d023903c52a72101836765adbf6d5a390dd3757ce3480fe5b52387943de1")
        assert len(phase_one_calls) == len(instances)
        for rows, rhs in phase_one_calls:
            check_phase_one(rows, rhs)

    @pytest.mark.parametrize("k", range(8, 32))
    def test_every_field_width(self, k):
        # With x0, Phase I has k + 1 columns: the fields round up to 32 bits
        # from k = 8, to 64 from k = 14 and to two 64-bit words from k = 25.
        rng = random.Random(4111 + k)
        for _ in range(6):
            check_phase_one(*random_system(rng, k - 1))

    @pytest.mark.parametrize("order, bits", [(32, 76), (64, 187)])
    def test_entries_wider_than_64_bits(self, order, bits):
        rows = sylvester_minor(order)
        assert check_phase_one(rows, [-1] * len(rows)) is True
        assert phase_one(as_masks(rows), [-1] * len(rows), len(rows[0]))[2].bit_length() == bits

    def test_tall_tableaux_match_reference(self):
        # The random systems stop at 2n + 4 rows; these have 100-400.  Six
        # of each verdict, their raw outputs (verdict, values, D) pinned.
        rng = random.Random(3541)
        outcomes = {True: 0, False: 0}
        digest = hashlib.sha256()
        while min(outcomes.values()) < 6:
            rows, rhs = tall_system(rng)
            result = phase_one(as_masks(rows), rhs, len(rows[0]))
            if outcomes[result[0]] < 6:
                assert check_phase_one(rows, rhs) is result[0]
                outcomes[result[0]] += 1
                digest.update(f"{result!r}\n".encode())
        assert digest.hexdigest() == (
            "78095a9f1a085845f9cdcfbcf24ec593db907cb331d859f94f7cb673ab5b092b")

    def test_pivot_off_an_odd_denominator(self):
        assert check_phase_one(ODD_PIVOT_ROWS, ODD_PIVOT_RHS) is True

    def test_single_row(self):
        assert check_phase_one([[1]], [-1]) is False
        assert check_phase_one([[-1]], [-1]) is True


class TestCouncilSize:
    """n = 28, where the dictionary fields are 128 bits wide (two 64-bit words)."""

    @pytest.mark.parametrize("triple", NONSEPARABLE_TRIPLES)
    def test_triples_refuted_by_their_witnesses(self, triple):
        instance = SeparationInstance(
            28, WINNING_FAMILY, [LOSING_FAMILY[i - 1] for i in triple])
        result = lp_feasible(instance)
        assert isinstance(result, NotSeparable)
        recombine(result, instance)
        on_winning = {label: lam for lam, label in result.terms
                      if label.endswith(">= quota")}
        expected = {f"weight({WINNING_FAMILY[w - 1]}) >= quota"
                    for w in TRIPLE_WITNESSES[triple]}
        assert set(on_winning) == expected
        assert set(on_winning.values()) == {Fraction(1, 6)}

    def test_every_pair_pinned(self):
        # The witnesses and refutations of all 105 pairs over W1..W12, as
        # `gamedim separate` would print them.  These rows alone refute only
        # {L4, L6}; the other pairs need further winning coalitions.
        verdicts = [lp_feasible(SeparationInstance(28, WINNING_FAMILY, [li, lj]))
                    for li, lj in itertools.combinations(LOSING_FAMILY, 2)]
        assert sum(isinstance(v, NotSeparable) for v in verdicts) == 1
        assert verdict_digest(verdicts) == (
            "4f714f44e83d481b557dff43114ec012f5680d2655ce78f4db978274da4b8f5d")

    @pytest.mark.parametrize("pair", [(1, 3), (2, 9), (1, 2), (12, 14)])
    def test_separable_pairs_substitute(self, pair):
        instance = SeparationInstance(
            28, WINNING_FAMILY, [LOSING_FAMILY[i - 1] for i in pair])
        result = lp_feasible(instance)
        assert isinstance(result, Separable)
        substitute(result, instance)


def random_family(rng, n):
    """Masks from a small pool with random sub- and supersets, duplicates,
    and the empty and the full coalition."""
    full = (1 << n) - 1
    pool = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
    masks = []
    for _ in range(rng.randint(0, 40)):
        m = rng.choice(pool)
        roll = rng.random()
        if roll < 0.3:
            m |= rng.getrandbits(n)
        elif roll < 0.6:
            m &= rng.getrandbits(n)
        masks.append(m)
    masks += rng.sample([0, full, 0, full] + masks, rng.randint(0, 4))
    rng.shuffle(masks)
    return masks


def nested_family(rng, n):
    """Chains of nested masks, each mask listed up to three times, shuffled:
    every kept mask has listed duplicates, subsets and supersets."""
    masks = []
    for _ in range(rng.randint(1, 5)):
        m = rng.getrandbits(n)
        for _ in range(rng.randint(1, 6)):
            masks += [m] * rng.randint(1, 3)
            m = m | rng.getrandbits(n) if rng.random() < 0.5 else m & rng.getrandbits(n)
    rng.shuffle(masks)
    return masks


class TestInclusionFilters:
    def test_match_the_quadratic_oracle(self):
        rng = random.Random(3301)
        for n in (1, 1, 2, 3, 5, 8, 13, 28, 63, 64, 64):
            for _ in range(40):
                family = random_family(rng, n)
                assert _inclusion_minimal(family, n) == brute_inclusion_minimal(family)
                assert _inclusion_maximal(family, n) == brute_inclusion_maximal(family)

    @pytest.mark.parametrize("n", [1, 12, 28, 64])
    def test_duplicates_and_nested_masks(self, n):
        rng = random.Random(8100 + n)
        for _ in range(60):
            family = nested_family(rng, n)
            assert _inclusion_minimal(family, n) == brute_inclusion_minimal(family)
            assert _inclusion_maximal(family, n) == brute_inclusion_maximal(family)

    def test_minimal_winning_lists_stay_whole(self):
        # An antichain in order of size, as `minimal_winning` hands it over.
        rng = random.Random(8117)
        for n in (4, 9, 12):
            for _ in range(5):
                game = IntersectionGame([WeightedGame(n, [rng.randint(1, 10) for _ in range(n)],
                                                      rng.randint(n, 4 * n)) for _ in range(2)])
                masks = [c.mask for c in minimal_winning(game)]
                assert _inclusion_minimal(masks, n) == masks
                assert _inclusion_minimal(masks + masks[::-1], n) == masks

    def test_empty_and_full_coalitions(self):
        for n in (1, 64):
            empty, full = 0, (1 << n) - 1
            family = [full, empty, full, empty]
            assert _inclusion_minimal(family, n) == [empty]
            assert _inclusion_maximal(family, n) == [full]
            assert _inclusion_minimal([], n) == _inclusion_maximal([], n) == []


class TestNonSeparableOracle:
    def test_intersection_game_pairs(self):
        g = IntersectionGame([
            WeightedGame(4, [1, 1, 0, 0], 1),
            WeightedGame(4, [0, 0, 1, 1], 1),
        ])
        assert is_nonseparable_exhaustive(g, [C([1, 2], 4), C([3, 4], 4)])

    def test_weighted_game_separates_its_own_losers(self):
        g = WeightedGame(3, [1, 1, 1], 2)
        assert not is_nonseparable_exhaustive(g, [C([1], 3)])

    def test_resource_guard_at_council_size(self):
        g = WeightedGame(28, [1] * 28, 25)
        with pytest.raises(ValueError, match="so n must be in 1..14, got 28$"):
            is_nonseparable_exhaustive(g, [C([1], 28)])

    def test_no_targets_rejected(self):
        g = WeightedGame(3, [1, 1, 1], 2)
        with pytest.raises(ValueError, match="^no losing target given$"):
            is_nonseparable_exhaustive(g, [])

    def test_game_without_winners_separates_every_target(self):
        g = WeightedGame(3, [0, 0, 0], 1)  # no coalition reaches the quota
        assert not is_nonseparable_exhaustive(g, [C([1, 2], 3), C([3], 3)])

    def test_winning_target_rejected(self):
        g = WeightedGame(3, [1, 1, 1], 2)
        with pytest.raises(ValueError, match="winning"):
            is_nonseparable_exhaustive(g, [C([1, 2], 3)])

    def test_balance_certificates_imply_nonseparability(self):
        # Whenever a balance certificate verifies on a random monotone game,
        # the exhaustive oracle must agree that the losing set is
        # non-separable; the converse is not asserted.
        rng = random.Random(42)
        confirmed = 0
        for _ in range(150):
            n = rng.randint(3, 6)
            game = random_monotone_game(rng, n)
            losing = [c for mask in range(1 << n)
                      if not game.contains(c := Coalition(n, mask))]
            cert = find_balanced_pair_certificate(game, losing, rng)
            if cert is None:
                continue
            assert is_nonseparable_exhaustive(game, cert.losing)
            confirmed += 1
        assert confirmed >= 10


class TestInstanceJson:
    def test_round_trip(self):
        obj = {"n": 4, "winning_constraints": [[1, 3], [2, 4]],
               "losing_targets": [[1, 2], [3, 4]]}
        assert instance_from_json(obj) == CROSSING

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="^instance description needs 'n', "
                                             "'winning_constraints' and 'losing_targets'$"):
            instance_from_json({"n": 2, "winning_constraints": [[1]]})

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError):
            instance_from_json({"n": "two", "winning_constraints": [[1]],
                                "losing_targets": [[2]]})
