"""Repr, ==, hash, immutability and pickling of the value classes, per class.

Each case builds an instance, an equal twin built separately and a different
instance of the same class, and pins the ``Name(field=value, ...)`` repr.
"""

import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import gamedim
from gamedim import (
    Coalition, DualWeightCertificate, ExplicitGame, Hypergraph, IntersectionGame, UnionGame,
    WeightedGame,
)
from gamedim.certificates import BalanceCertificate, CertifiedFamily
from gamedim.cli import ProofTranscript, Step
from gamedim._record import Frozen, Record
from gamedim.cover import CoverSolution, Refutation
from gamedim.eu import MEMBERS_2014, EuGame, MemberTable, RuleReport
from gamedim.games import _coalition
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


def one_member(quota=1):
    return WeightedGame(1, [1], quota)


ONE_MEMBER_REPR = "WeightedGame(n=1, weights=(Fraction(1, 1),), quota=Fraction(1, 1))"


# (make(variant) -> instance, field names, frozen, expected repr of make(0))
CASES = {
    "Coalition": (lambda v: C(4, 10 + v), ("n", "mask"), True,
                  "Coalition(n=4, mask=10)"),
    "WeightedGame": (lambda v: WeightedGame(3, [1, "1/2", 2], 3 + v), ("n", "weights", "quota"),
                     True,
                     "WeightedGame(n=3, weights=(Fraction(1, 1), Fraction(1, 2), "
                     "Fraction(2, 1)), quota=Fraction(3, 1))"),
    "ExplicitGame": (lambda v: ExplicitGame(2, [C(2, 3), C(2, 1 + v), C(2, 3)]),
                     ("n", "declared_winning"), True,
                     "ExplicitGame(n=2, declared_winning=(Coalition(n=2, mask=1), "
                     "Coalition(n=2, mask=3)))"),
    "IntersectionGame": (lambda v: IntersectionGame([one_member(), one_member(1 + v)]),
                         ("parts",), True,
                         f"IntersectionGame(parts=({ONE_MEMBER_REPR}, {ONE_MEMBER_REPR}))"),
    "UnionGame": (lambda v: UnionGame([one_member(1 + v), ExplicitGame(1, [C(1, 1)])]),
                  ("parts",), True,
                  f"UnionGame(parts=({ONE_MEMBER_REPR}, "
                  "ExplicitGame(n=1, declared_winning=(Coalition(n=1, mask=1),))))"),
    "Hypergraph": (lambda v: Hypergraph(3 + v, [(1, 2), (2, 3)]), ("node_count", "edges"), True,
                   "Hypergraph(node_count=3, edges=(frozenset({1, 2}), frozenset({2, 3})))"),
    "CoverSolution": (lambda v: CoverSolution([(2,), (1, 3 + v)]), ("parts",), True,
                      "CoverSolution(parts=(frozenset({1, 3}), frozenset({2})))"),
    "DualWeightCertificate": (lambda v: DualWeightCertificate([1, "1/2"], 1 + v, (1,)),
                              ("weights", "bound", "excluded_part"), True,
                              "DualWeightCertificate(weights=(Fraction(1, 1), Fraction(1, 2)), "
                              "bound=1, excluded_part=frozenset({1}))"),
    "Refutation": (lambda v: Refutation(k=1 + v, counterexample=CoverSolution([(1, 2)])),
                   ("k", "counterexample"), True,
                   "Refutation(k=1, counterexample=CoverSolution(parts=(frozenset({1, 2}),)))"),
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


def test_fields_are_the_annotated_names(case):
    obj, _, _, fields, _, _ = case
    assert obj.__class__._fields == fields


def gamedim_classes():
    """Every class defined at the top level of a `gamedim` module."""
    for info in pkgutil.iter_modules(gamedim.__path__):
        module = importlib.import_module(f"gamedim.{info.name}")
        yield from (value for value in vars(module).values()
                    if isinstance(value, type) and value.__module__ == module.__name__)


def test_every_public_name_resolves():
    assert sorted(set(gamedim.__all__)) == sorted(gamedim.__all__)
    namespace = {}
    exec("from gamedim import *", namespace)  # raises on a name it cannot find
    assert all(namespace[name] is getattr(gamedim, name) for name in gamedim.__all__)


def test_every_value_class_has_a_case():
    found = {cls.__qualname__ for cls in gamedim_classes()
             if issubclass(cls, Record) and cls not in (Record, Frozen)}
    assert found == set(CASES)


def test_only_record_and_coalition_write_value_methods():
    # `_record` writes the one generic version of each.  Coalition reads its
    # two slots directly: the replay hashes coalitions inside every
    # BalanceCertificate, and the generic hash, == and construction took 4
    # to 10 times as long per coalition.
    writers = {cls.__qualname__ for cls in gamedim_classes()
               if {"__eq__", "__hash__", "__repr__"} & vars(cls).keys()}
    assert writers == {"Record", "Frozen", "Coalition"}


SHARED = sorted(name for name, (make, *_) in CASES.items()
                if make(0).__class__.__init__ is Record.__init__)


def test_shared_constructor_serves_the_classes_that_only_store():
    assert SHARED == ["CertifiedFamily", "EuGame", "NotSeparable", "ProofTranscript",
                      "Refutation", "RuleReport", "Separable", "Step"]


@pytest.mark.parametrize("name", SHARED)
def test_shared_constructor_binds_by_position_and_by_name(name):
    make, fields, _, _ = CASES[name]
    obj = make(0)
    values = [getattr(obj, field) for field in fields]
    cls = obj.__class__
    by_position = cls(*values)
    by_name = cls(**dict(zip(fields, values)))
    mixed = cls(values[0], **dict(zip(fields[1:], values[1:])))
    assert by_position == by_name == mixed == obj
    assert repr(by_position) == repr(by_name) == repr(obj)


@pytest.mark.parametrize("args, kwargs, message", [
    ((False, True, False, False), {}, "missing field 'population_sum'"),
    ((), {"winning": False}, "missing field 'rule55'; missing field 'rule65'"),
    ((False, True, False, False, 1, 2), {}, "6 values for 5 fields"),
    ((False, True, False, False, 1), {"quota": 1}, "unknown field 'quota'"),
    ((False, True, False, False, 1), {"winning": True}, "field 'winning' given twice"),
])
def test_shared_constructor_rejects_a_bad_binding(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^RuleReport\\(\\): .*{message}"):
        RuleReport(*args, **kwargs)


def test_subclass_fields_extend_the_parents():
    class Pair(Frozen):
        first: int
        second: int

    class SamePair(Pair):
        """Annotates nothing, so its fields are Pair's."""

    class Triple(Pair):
        second: int  # already a field: keeps its place
        third: int

    assert SamePair._fields == ("first", "second")
    assert repr(SamePair(1, second=2)).endswith(".SamePair(first=1, second=2)")
    assert Triple._fields == ("first", "second", "third")
    assert Triple(1, 2, 3)._values() == (1, 2, 3)
    assert Pair._fields == ("first", "second")


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


GAMES = [WeightedGame(3, [1, "1/2", 2], "3/2"), ExplicitGame(3, [C(3, 0b011), C(3, 0b110)]),
         IntersectionGame([WeightedGame(3, [1, 1, 1], 2), ExplicitGame(3, [C(3, 0b100)])]),
         UnionGame([WeightedGame(3, [1, 1, 0], 2), ExplicitGame(3, [C(3, 0b100)])])]


@pytest.mark.parametrize("obj", [C(28, 0b1011)] + GAMES)
def test_pickle_round_trip(obj):
    copy = pickle.loads(pickle.dumps(obj))
    assert copy == obj and repr(copy) == repr(obj) and hash(copy) == hash(obj)


@pytest.mark.parametrize("game", GAMES[1:], ids=lambda game: game.__class__.__name__)
def test_unpickled_game_still_evaluates(game):
    copy = pickle.loads(pickle.dumps(game))
    assert copy.n == 3
    assert [copy.contains(C(3, m)) for m in range(8)] == [game.contains(C(3, m)) for m in range(8)]


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
    b = _coalition(4, a.mask | 0b0100)  # mask arithmetic on a checked coalition: unchecked
    pickle.loads(pickle.dumps(b))  # unpickling checks
    assert calls == [(4, 0b0011), (4, 0b0111)]
    with pytest.raises(ValueError, match="^coalition mask must be in 0..15, got 16$"):
        C(4, 16)


def test_coalitions_over_different_member_counts_differ():
    assert C(4, 10) != C(5, 10) and not C(4, 10) == C(5, 10)
    assert len({C(4, 10), C(5, 10), C(4, 10)}) == 2
