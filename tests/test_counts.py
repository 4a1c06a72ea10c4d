"""One rule reads every count: `_packed.integer`.

Member and node counts, coalition masks, k, bounds, populations, cover
nodes and the sizes the resource guards allow are all plain ints in a
range; each site hands its value to that rule, and no module writes a
check of its own.  Likewise every JSON object is read by `_packed.fields`
and every list of coalitions or games by `_packed.of_kind`.
"""

import ast
import enum
from pathlib import Path

import pytest

import gamedim
from gamedim._packed import integer
from gamedim.certificates import BalanceCertificate
from gamedim.cover import (
    CoverSolution,
    DualWeightCertificate,
    Hypergraph,
    dual_refutation,
    enumerate_maximal_independent,
    no_k_cover,
)
from gamedim.games import (
    Coalition,
    ExplicitGame,
    WeightedGame,
    check_monotone,
    game_from_json,
    minimal_winning,
)
from gamedim.separation import (
    SeparationInstance,
    instance_from_json,
    is_nonseparable_exhaustive,
)

SINGLE_EDGE = Hypergraph(2, [(1, 2)])


def weighted(n):
    return WeightedGame(n, [1] * int(n), 1)


# Each site: (a good value, low, high, the call that reads the value).
SITES = {
    "Coalition n": (4, 1, 64, lambda n: Coalition(n, 0)),
    "Coalition mask": (3, 0, 15, lambda mask: Coalition(4, mask)),
    "WeightedGame n": (4, 1, 64, weighted),
    "ExplicitGame n": (4, 1, 64, lambda n: ExplicitGame(n, [])),
    "SeparationInstance n": (4, 1, 64, lambda n: SeparationInstance(
        n, [Coalition(4, 1)], [Coalition(4, 2)])),
    "game_from_json n": (4, 1, 64, lambda n: game_from_json(
        {"n": n, "kind": "explicit", "winning": [[1]]})),
    "instance_from_json n": (4, 1, 64, lambda n: instance_from_json(
        {"n": n, "winning_constraints": [[1]], "losing_targets": [[2]]})),
    "Hypergraph node count": (4, 0, 64, lambda t: Hypergraph(t, [])),
    "DualWeightCertificate bound": (2, 1, None, lambda b: DualWeightCertificate([1, 1], b)),
    "no_k_cover k": (1, 1, None, lambda k: no_k_cover(SINGLE_EDGE, k)),
    "dual_refutation k": (1, 1, None, lambda k: dual_refutation(SINGLE_EDGE, k)),
    "CoverSolution node": (1, 1, None, lambda v: CoverSolution([(v,)])),
}


def bad_values(good, low, high):
    """(bad value, the end of the message it must raise) for one site."""
    count = enum.IntEnum("Count", {"GOOD": good}).GOOD
    yield True, f"must be an int, got {True!r}"
    yield float(good), f"must be an int, got {float(good)!r}"
    yield str(good), f"must be an int, got {str(good)!r}"
    yield count, f"must be an int, got {count!r}"
    span = f"at least {low}" if high is None else f"in {low}..{high}"
    yield low - 1, f"must be {span}, got {low - 1}"
    if high is not None:
        yield high + 1, f"must be {span}, got {high + 1}"


@pytest.mark.parametrize("site", SITES)
def test_every_count_site_rejects_every_bad_count(site):
    good, low, high, read = SITES[site]
    read(good)  # the same call with a good count passes
    for bad, ending in bad_values(good, low, high):
        with pytest.raises(ValueError) as err:
            read(bad)
        assert str(err.value).endswith(ending), (bad, str(err.value))


# Each guard: (its limit, a call over a given size, the message one past the limit).
GUARDS = {
    "minimal_winning": (
        20, lambda n: minimal_winning(weighted(n)),
        "minimal_winning scans all 2^n coalitions, so n must be in 1..20, got 21"),
    "check_monotone": (
        20, lambda n: check_monotone(ExplicitGame(n, [])),
        "check_monotone scans all 2^n coalitions, so n must be in 1..20, got 21"),
    "is_nonseparable_exhaustive": (
        14, lambda n: is_nonseparable_exhaustive(weighted(n), [Coalition(n, 0)]),
        "the exhaustive non-separability check solves an LP over all minimal winning "
        "coalitions, so n must be in 1..14, got 15"),
    "maximal-set enumeration": (
        24, lambda t: enumerate_maximal_independent(Hypergraph(t, [])),
        "maximal-set enumeration branches on every node, so the node count must be in "
        "0..24, got 25"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_every_resource_guard_is_the_high_end_of_the_rule(guard):
    limit, run, message = GUARDS[guard]
    run(limit - 4)  # inside the guard, and small: the scans take 2^n steps
    with pytest.raises(ValueError) as err:
        run(limit + 1)
    assert str(err.value) == message


# Inputs the hand-written checks let through, with what each did before:
# (the call, the message it now raises).
DEFECTS = {
    # StopIteration from _packed.members, which reads at most 64 bits
    "70 dual weights": (lambda: DualWeightCertificate([0] * 70, 1, excluded_part=[70]),
                        "weight count must be in 0..64, got 70"),
    # "negative shift count"
    "ExplicitGame(-3)": (lambda: ExplicitGame(-3, []), "member count must be in 1..64, got -3"),
    # built with n=True, and lp_feasible answered it
    "SeparationInstance(True)": (
        lambda: SeparationInstance(True, [Coalition(1, 1)], [Coalition(1, 0)]),
        "member count must be an int, got True"),
    # built, over member counts no coalition can have
    "WeightedGame(0)": (lambda: WeightedGame(0, [], 0), "member count must be in 1..64, got 0"),
    "ExplicitGame(0)": (lambda: ExplicitGame(0, []), "member count must be in 1..64, got 0"),
    "WeightedGame(100)": (lambda: WeightedGame(100, [1] * 100, 1),
                          "member count must be in 1..64, got 100"),
    # AttributeError: 'int' object has no attribute 'n'
    "SeparationInstance of ints": (
        lambda: SeparationInstance(3, [1, 2], [Coalition(3, 1)]),
        "winning constraint 1 is not a Coalition"),
    "is_nonseparable_exhaustive of an int": (
        lambda: is_nonseparable_exhaustive(WeightedGame(3, [1, 1, 1], 2), [5]),
        "losing target 5 is not a Coalition"),
    # AttributeError from coalition_sort_key, which reads .mask
    "BalanceCertificate of ints": (lambda: BalanceCertificate([1], [2]),
                                   "losing coalition 1 is not a Coalition"),
    "BalanceCertificate with a string": (
        lambda: BalanceCertificate([Coalition(3, 1)], [Coalition(3, 3), "x"]),
        "winning coalition 'x' is not a Coalition"),
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_the_rule_closes_each_defect(defect):
    build, message = DEFECTS[defect]
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("value, low, high", [
    (0, 0, None), (7, 1, 7), (64, 0, 64), (10**30, 1, None),
])
def test_integer_returns_a_good_value_itself(value, low, high):
    assert integer(value, "count", low, high) is value


def type_checks(tree, names):
    """Line numbers of `type(x) is [not] N` and `isinstance(x, N)`, N in names."""
    def names_one(node):
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(n, ast.Name) and n.id in names for n in nodes)

    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(names_one(c) for c in node.comparators)):
            yield node.lineno
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and names_one(node.args[1])):
            yield node.lineno


def hand_checks(names):
    """Per module but `_packed`, the lines of its checks for the named types.

    Asserts that the detector finds the rule's own checks in `_packed`.
    """
    source = Path(gamedim.__file__).parent
    found = {path.name: list(type_checks(ast.parse(path.read_text(encoding="utf-8")), names))
             for path in sorted(source.glob("*.py"))}
    assert found.pop("_packed.py"), "the detector finds the rule's own checks"
    return {name: lines for name, lines in found.items() if lines}


def test_no_module_but_packed_checks_an_int_by_hand():
    assert hand_checks(("int", "bool")) == {}


def test_no_module_but_packed_checks_a_document_or_member_list_by_hand():
    assert hand_checks(("dict", "Coalition", "SimpleGame")) == {}
