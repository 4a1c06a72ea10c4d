"""Repr, ==, hash, immutability and pickling of the value classes, per class.

Each case builds an instance, an equal twin built separately and a different
instance of the same class, and pins the ``Name(field=value, ...)`` repr.
"""

import pickle
from fractions import Fraction

import pytest

from gamedim import Coalition, DualWeightCertificate, Hypergraph, WeightedGame
from gamedim.certificates import BalanceCertificate, CertifiedFamily
from gamedim.cli import ProofTranscript, Step
from gamedim.cover import CoverSolution, Refutation
from gamedim.eu import MEMBERS_2014, EuGame, MemberTable, RuleReport
from gamedim.separation import NotSeparable, Separable, SeparationInstance

C = Coalition
TABLE_REPR = "MemberTable(entries=" + repr(MEMBERS_2014) + ")"


def other_table():
    return MemberTable(tuple((i, name, pop + (i == 28)) for i, name, pop in MEMBERS_2014))


def balance(winning_mask=3):
    return BalanceCertificate([C(2, 1), C(2, 2)], [C(2, winning_mask), C(2, 0)])


def family(node_mask=1):
    return CertifiedFamily((C(2, node_mask), C(2, 2)), Hypergraph(2, [(1, 2)]),
                           {frozenset({1, 2}): balance()})


# (make(variant) -> instance, field names, frozen, expected repr of make(0))
CASES = {
    "Coalition": (lambda v: C(4, 10 + v), ("n", "mask"), True,
                  "Coalition(n=4, mask=10)"),
    "WeightedGame": (lambda v: WeightedGame(3, [1, "1/2", 2], 3 + v), ("n", "weights", "quota"),
                     True,
                     "WeightedGame(n=3, weights=(Fraction(1, 1), Fraction(1, 2), "
                     "Fraction(2, 1)), quota=Fraction(3, 1))"),
    "Hypergraph": (lambda v: Hypergraph(3 + v, [(1, 2), (2, 3)]), ("node_count", "edges"), True,
                   "Hypergraph(node_count=3, edges=(frozenset({1, 2}), frozenset({2, 3})))"),
    "CoverSolution": (lambda v: CoverSolution([(2,), (1, 3 + v)]), ("parts",), True,
                      "CoverSolution(parts=(frozenset({1, 3}), frozenset({2})))"),
    "DualWeightCertificate": (lambda v: DualWeightCertificate([1, "1/2"], 1 + v, (1,)),
                              ("weights", "bound", "excluded_part"), True,
                              "DualWeightCertificate(weights=(Fraction(1, 1), Fraction(1, 2)), "
                              "bound=1, excluded_part=frozenset({1}))"),
    "Refutation": (lambda v: Refutation(k=1, exhaustive=bool(v),
                                        counterexample=CoverSolution([(1, 2)])),
                   ("k", "exhaustive", "counterexample"), True,
                   "Refutation(k=1, exhaustive=False, "
                   "counterexample=CoverSolution(parts=(frozenset({1, 2}),)))"),
    "MemberTable": (lambda v: other_table() if v else MemberTable(MEMBERS_2014), ("entries",),
                    True, TABLE_REPR),
    "RuleReport": (lambda v: RuleReport(False, True, False, False, 123 + v),
                   ("winning", "rule55", "rule65", "rule25", "population_sum"), True,
                   "RuleReport(winning=False, rule55=True, rule65=False, rule25=False, "
                   "population_sum=123)"),
    "EuGame": (lambda v: EuGame(other_table() if v else MemberTable(MEMBERS_2014)), ("table",),
               True, "EuGame(table=" + TABLE_REPR + ")"),
    "SeparationInstance": (lambda v: SeparationInstance(2, [C(2, 3)], [C(2, 1 + v)]),
                           ("n", "winning_constraints", "losing_targets"), True,
                           "SeparationInstance(n=2, winning_constraints=(Coalition(n=2, mask=3),), "
                           "losing_targets=(Coalition(n=2, mask=1),))"),
    "Separable": (lambda v: Separable((Fraction(1), Fraction(v)), Fraction(1)), ("weights", "quota"),
                  True, "Separable(weights=(Fraction(1, 1), Fraction(0, 1)), quota=Fraction(1, 1))"),
    "NotSeparable": (lambda v: NotSeparable(((Fraction(1, 2), "W1"),), Fraction(-1 - v, 2)),
                     ("terms", "total"), True,
                     "NotSeparable(terms=((Fraction(1, 2), 'W1'),), total=Fraction(-1, 2))"),
    "BalanceCertificate": (lambda v: balance(3 - v), ("losing", "winning"), True,
                           "BalanceCertificate(losing=(Coalition(n=2, mask=1), "
                           "Coalition(n=2, mask=2)), winning=(Coalition(n=2, mask=0), "
                           "Coalition(n=2, mask=3)))"),
    "CertifiedFamily": (lambda v: family(1 - v), ("nodes", "hypergraph", "certificates"), True,
                        "CertifiedFamily(nodes=(Coalition(n=2, mask=1), Coalition(n=2, mask=2)), "
                        "hypergraph=Hypergraph(node_count=2, edges=(frozenset({1, 2}),)), "
                        "certificates={frozenset({1, 2}): BalanceCertificate(losing=("
                        "Coalition(n=2, mask=1), Coalition(n=2, mask=2)), winning=("
                        "Coalition(n=2, mask=0), Coalition(n=2, mask=3)))})"),
    "Step": (lambda v: Step("s", "FAIL" if v else "PASS", "d"), ("name", "status", "detail"), False,
             "Step(name='s', status='PASS', detail='d')"),
    "ProofTranscript": (lambda v: ProofTranscript(["n"], [Step("s", "PASS", "d")], "c" * (1 + v)),
                        ("notes", "steps", "conclusion"), False,
                        "ProofTranscript(notes=['n'], steps=[Step(name='s', status='PASS', "
                        "detail='d')], conclusion='c')"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, fields, frozen, expected = CASES[request.param]
    return make(0), make(0), make(1), fields, frozen, expected


def test_repr(case):
    obj, _, _, _, _, expected = case
    assert repr(obj) == expected


def test_equality(case):
    obj, twin, other, _, _, _ = case
    assert obj is not twin
    assert obj == twin and not obj != twin
    assert obj != other and not obj == other
    assert obj != object()


def test_hash(case):
    obj, twin, _, fields, frozen, _ = case
    values = tuple(getattr(obj, name) for name in fields)
    if not frozen or any(isinstance(v, dict) for v in values):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == hash(values)


def test_assignment(case):
    obj, _, _, fields, frozen, _ = case
    if frozen:
        for name in fields + ("unlisted",):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, fields[0])
    else:
        setattr(obj, fields[0], "changed")
        assert getattr(obj, fields[0]) == "changed"


@pytest.mark.parametrize("obj", [C(28, 0b1011), WeightedGame(3, [1, "1/2", 2], "3/2")])
def test_pickle_round_trip(obj):
    copy = pickle.loads(pickle.dumps(obj))
    assert copy == obj and repr(copy) == repr(obj) and hash(copy) == hash(obj)


def test_unpickled_weighted_game_still_evaluates():
    game = WeightedGame(3, [1, "1/2", 2], "3/2")
    assert game.contains(C(3, 0b011))  # fills the byte tables before pickling
    copy = pickle.loads(pickle.dumps(game))
    assert [copy.contains(C(3, m)) for m in range(8)] == [game.contains(C(3, m)) for m in range(8)]


def test_coalition_validates_once_per_construction(monkeypatch):
    calls = []
    original = Coalition.__post_init__

    def counted(self):
        calls.append((self.n, self.mask))
        original(self)

    monkeypatch.setattr(Coalition, "__post_init__", counted)
    a = C(4, 0b0011)
    b = a | C(4, 0b0100)
    pickle.loads(pickle.dumps(b))
    assert calls == [(4, 0b0011), (4, 0b0100), (4, 0b0111), (4, 0b0111)]
    with pytest.raises(ValueError, match="out of range"):
        C(4, 16)


def test_coalitions_over_different_member_counts_differ():
    assert C(4, 10) != C(5, 10) and not C(4, 10) == C(5, 10)
    assert len({C(4, 10), C(5, 10), C(4, 10)}) == 2
