"""One rule reads every count: `_packed.integer`.

Member and node counts, coalition masks, k, bounds, populations, cover
nodes and the sizes the resource guards allow are all plain ints in a
range; each site hands its value to that rule, and no module writes a
check of its own.  Likewise every JSON object is read by `_packed.fields`,
every single coalition, game or certificate by `_packed.instance` and
every list of them by `_packed.of_kind`.
"""

import ast
import enum
from pathlib import Path

import pytest

import gamedim
from gamedim._packed import integer
from gamedim.certificates import (
    BalanceCertificate,
    CertifiedFamily,
    build_anchor_certificate,
    build_pair_certificate,
    build_triple_certificate,
    lower_bound_dimension,
    nonseparable_family,
    transfer_split,
    verify_balance,
)
from gamedim.cover import (
    CoverSolution,
    DualWeightCertificate,
    Hypergraph,
    dual_refutation,
    enumerate_maximal_independent,
    hypergraph_to_json,
    is_independent,
    min_cover,
    no_k_cover,
    verify_dual_certificate,
)
from gamedim.eu import (
    LOSING_FAMILY,
    MEMBERS_2014,
    NONSEPARABLE_PAIRS,
    NONSEPARABLE_TRIPLES,
    EuGame,
    build_eu_game,
)
from gamedim.games import (
    Coalition,
    ExplicitGame,
    IntersectionGame,
    WeightedGame,
    minimal_winning,
)
from gamedim.separation import (
    SeparationInstance,
    instance_from_json,
    is_nonseparable_exhaustive,
    lp_feasible,
)

SINGLE_EDGE = Hypergraph(2, [(1, 2)])
ONE_ONE = BalanceCertificate([Coalition(3, 1)], [Coalition(3, 1)])
MAJORITY_28 = WeightedGame(28, [1] * 28, 14)  # over the council's members, not an EuGame
L1, L2, L5 = (LOSING_FAMILY[i - 1] for i in (1, 2, 5))
COUNCIL = Hypergraph(len(LOSING_FAMILY), NONSEPARABLE_PAIRS + NONSEPARABLE_TRIPLES)


def council_family(**fields):
    """The council's `CertifiedFamily` fields, some replaced, by keyword."""
    return CertifiedFamily(**{"nodes": LOSING_FAMILY, "hypergraph": COUNCIL,
                              "certificates": {}, **fields})


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
    # AttributeError: '...' object has no attribute 'n'
    "EuGame.contains(None)": (lambda: build_eu_game().contains(None),
                              "coalition None is not a Coalition"),
    "EuGame.is_winning of a list": (lambda: build_eu_game().is_winning([1, 2]),
                                    "coalition [1, 2] is not a Coalition"),
    "EuGame.classify(None)": (lambda: build_eu_game().classify(None),
                              "coalition None is not a Coalition"),
    "WeightedGame.contains of an int": (lambda: WeightedGame(3, [1, 1, 1], 2).contains(3),
                                        "coalition 3 is not a Coalition"),
    "IntersectionGame.contains of a string": (
        lambda: IntersectionGame([WeightedGame(3, [1, 1, 1], 2)]).contains("x"),
        "coalition 'x' is not a Coalition"),
    "verify_balance of a string game": (lambda: verify_balance(ONE_ONE, "g"),
                                        "game 'g' is not a SimpleGame"),
    "verify_balance of a string certificate": (
        lambda: verify_balance("c", WeightedGame(3, [1, 1, 1], 2)),
        "certificate 'c' is not a BalanceCertificate"),
    # "'int' object has no attribute '_check_same_ground'"
    "transfer_split of an int": (lambda: transfer_split(Coalition(3, 3), Coalition(3, 6), 0),
                                 "transfer 0 is not a Coalition"),
    # AttributeError: '...' object has no attribute '_rules', 'is_winning',
    # 'mask', 'check', '_maximal_sets', 'node_count', 'weights' or 'n'
    "build_pair_certificate of a weighted game": (
        lambda: build_pair_certificate(L1, L5, MAJORITY_28),
        f"game {MAJORITY_28!r} is not a EuGame"),
    "build_pair_certificate of a string game": (lambda: build_pair_certificate(L1, L5, "g"),
                                                "game 'g' is not a EuGame"),
    "build_anchor_certificate of a weighted game": (
        lambda: build_anchor_certificate(L1, MAJORITY_28),
        f"game {MAJORITY_28!r} is not a EuGame"),
    "nonseparable_family of a weighted game": (lambda: nonseparable_family(MAJORITY_28),
                                               f"game {MAJORITY_28!r} is not a EuGame"),
    "build_triple_certificate with a string": (
        lambda: build_triple_certificate([L1, L2, "x"], build_eu_game()),
        "losing coalition 'x' is not a Coalition"),
    "lower_bound_dimension of a string family": (
        lambda: lower_bound_dimension(MAJORITY_28, "fam"),
        "family 'fam' is not a CertifiedFamily"),
    # Built, then lower_bound_dimension raised AttributeError ('str' object
    # has no attribute 'edges'; 'NoneType' object has no attribute 'get')
    # or IndexError (a node label past the listed coalitions)
    "CertifiedFamily over a string hypergraph": (
        lambda: council_family(hypergraph="x"), "hypergraph 'x' is not a Hypergraph"),
    "CertifiedFamily with 3 of 15 nodes": (lambda: council_family(nodes=LOSING_FAMILY[:3]),
                                           "expected 15 node coalitions, got 3"),
    "CertifiedFamily with a node over another n": (
        lambda: council_family(nodes=LOSING_FAMILY[:14] + (Coalition(3, 1),)),
        "node coalition {1} is over 3 members, not 28"),
    "CertifiedFamily without certificates": (lambda: council_family(certificates=None),
                                             "certificates None is not a Mapping"),
    # Built, then contains raised AttributeError ('tuple' object has no
    # attribute '_byte_sums')
    "build_eu_game of the raw member rows": (
        lambda: build_eu_game(MEMBERS_2014),
        f"member table {MEMBERS_2014!r} is not a MemberTable"),
    "EuGame of a string": (lambda: EuGame("t"), "member table 't' is not a MemberTable"),
    "min_cover of a string": (lambda: min_cover("h", []), "hypergraph 'h' is not a Hypergraph"),
    "dual_refutation of a string": (lambda: dual_refutation("h", 2),
                                    "hypergraph 'h' is not a Hypergraph"),
    "no_k_cover of a string": (lambda: no_k_cover("h", 1), "hypergraph 'h' is not a Hypergraph"),
    "enumerate_maximal_independent of a string": (
        lambda: enumerate_maximal_independent("h"), "hypergraph 'h' is not a Hypergraph"),
    "is_independent in a string": (lambda: is_independent([1], "h"),
                                   "hypergraph 'h' is not a Hypergraph"),
    "hypergraph_to_json of a string": (lambda: hypergraph_to_json("h"),
                                       "hypergraph 'h' is not a Hypergraph"),
    "verify_dual_certificate against a string": (
        lambda: verify_dual_certificate(DualWeightCertificate([1, 1], 2), "h"),
        "hypergraph 'h' is not a Hypergraph"),
    "verify_dual_certificate of a string": (
        lambda: verify_dual_certificate("c", SINGLE_EDGE),
        "dual certificate 'c' is not a DualWeightCertificate"),
    "CoverSolution.verify against a string": (
        lambda: CoverSolution([[1], [2, 3]]).verify("h"), "hypergraph 'h' is not a Hypergraph"),
    "lp_feasible of a string": (lambda: lp_feasible("i"),
                                "separation instance 'i' is not a SeparationInstance"),
    "is_nonseparable_exhaustive of a string game": (
        lambda: is_nonseparable_exhaustive("g", []), "game 'g' is not a SimpleGame"),
    "minimal_winning of a string": (lambda: minimal_winning("g"), "game 'g' is not a SimpleGame"),
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


def count_compares(tree):
    """Line numbers of `a.n != b` and `a != b.n`: a member count compared."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and any(isinstance(op, ast.NotEq) for op in node.ops)
                and any(isinstance(side, ast.Attribute) and side.attr == "n"
                        for side in (node.left, *node.comparators))):
            yield node.lineno


def hand_checks(find, *args):
    """Per module but `_packed`, the lines that ``find(tree, *args)`` yields.

    Asserts that the detector finds the rule's own checks in `_packed`.
    """
    source = Path(gamedim.__file__).parent
    found = {path.name: list(find(ast.parse(path.read_text(encoding="utf-8")), *args))
             for path in sorted(source.glob("*.py"))}
    assert found.pop("_packed.py"), "the detector finds the rule's own checks"
    return {name: lines for name, lines in found.items() if lines}


def test_no_module_but_packed_checks_an_int_by_hand():
    assert hand_checks(type_checks, ("int", "bool")) == {}


def test_no_module_but_packed_checks_a_document_or_member_list_by_hand():
    assert hand_checks(type_checks, ("dict", "Coalition", "SimpleGame")) == {}


def test_no_module_but_packed_compares_a_member_count_by_hand():
    assert hand_checks(count_compares) == {}


def unused_imports(tree):
    """(line, name) of each name imported into a scope that never reads it.

    The scope is the function whose body holds the import, or the module;
    a name counts as read if it is loaded anywhere in that scope, nested
    functions and annotations included.  `__future__` imports are switches,
    not names.
    """
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"):
            continue
        scope = node
        while not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = parent[scope]
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read:
                yield node.lineno, name


def test_the_import_detector_finds_an_unused_name():
    tree = ast.parse("import os\nimport os.path as p\nfrom a import b as c, d\n\n"
                     "def f():\n    import json\n    return c(d)\n\njson = 1\n")
    assert list(unused_imports(tree)) == [(1, "os"), (2, "p"), (6, "json")]


def test_no_module_imports_a_name_it_never_reads():
    # `__init__` imports its names to export them.
    source = Path(gamedim.__file__).parent
    found = {path.name: list(unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(source.glob("*.py")) if path.name != "__init__.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
