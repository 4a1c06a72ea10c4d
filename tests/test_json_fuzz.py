"""Random JSON payloads through the four JSON readers raise only ValueError.

A payload is any value `json.load` can return.  Most are drawn in the
shape each reader expects, its keys present, with small counts and lists of
small index lists among the values, so that many get past the shape checks
to the member, node and count checks.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gamedim.certificates import certificate_from_json
from gamedim.cover import hypergraph_from_json
from gamedim.eu import N_MEMBERS
from gamedim.games import game_from_json
from gamedim.separation import instance_from_json

KEYS = ("n", "kind", "weights", "quota", "winning", "parts", "nodes", "edges", "losing",
        "winning_constraints", "losing_targets")
KINDS = ("weighted", "explicit", "intersection", "union")

scalars = (st.none() | st.booleans() | st.integers(-2, 70) | st.integers() | st.floats()
           | st.sampled_from(KINDS + ("1/2", "13/20", "-1", "1/0", "0.65", "1e999", "x"))
           | st.text(max_size=4))
index_lists = st.lists(st.lists(st.integers(-1, 30) | scalars, max_size=6), max_size=6)
values = st.recursive(
    scalars | index_lists,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                                     max_size=6)),
    max_leaves=12)


def mostly(likely):
    """``likely`` half the time, else a scalar or any value.

    Drawn by hand: `st.one_of` weighs the flattened alternatives equally,
    so ``likely`` would be one among the many of ``values``.
    """
    return st.integers(0, 3).flatmap(lambda i: (values, scalars, likely, likely)[i])


counts = mostly(st.integers(0, 12))
index_fields = mostly(index_lists)


def shaped(keys):
    """Objects holding the given keys, or any value."""
    return mostly(st.fixed_dictionaries(keys))


games = st.recursive(
    shaped({"n": counts, "kind": st.sampled_from(KINDS),
            "weights": mostly(st.lists(st.integers(0, 9) | scalars, max_size=8)),
            "quota": mostly(st.integers(0, 30)), "winning": index_fields}),
    lambda inner: st.fixed_dictionaries(
        {"n": counts, "kind": st.sampled_from(KINDS), "parts": st.lists(inner, max_size=3)}),
    max_leaves=4)

READERS = {
    "hypergraph": (hypergraph_from_json,
                   shaped({"nodes": counts, "edges": index_fields})),
    "game": (game_from_json, games),
    "certificate": (lambda obj: certificate_from_json(obj, N_MEMBERS),
                    shaped({"losing": index_fields, "winning": index_fields})),
    "instance": (instance_from_json,
                 shaped({"n": counts, "winning_constraints": index_fields,
                         "losing_targets": index_fields})),
}


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_readers_raise_only_value_error(name, data):
    reader, payloads = READERS[name]
    payload = data.draw(payloads)
    with warnings.catch_warnings():
        # a redundant hypergraph edge is dropped with a warning, not an error
        warnings.simplefilter("ignore")
        try:
            reader(payload)
        except ValueError:
            pass
