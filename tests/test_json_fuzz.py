"""Random JSON payloads through the three JSON readers raise only ValueError.

A payload is any value `json.load` can return.  Most are drawn in the
shape each reader expects, its keys present, with small counts and lists of
small index lists among the values, so that many get past the shape checks
to the member, node and count checks.  The same payloads, written to a
file, go through the commands that read one: each exits 0, 1 or 2, and
exit 2 comes with exactly one `error:` line.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gamedim.cli import main
from gamedim.certificates import certificate_from_json
from gamedim.cover import hypergraph_from_json
from gamedim.eu import N_MEMBERS
from gamedim.separation import instance_from_json

KEYS = ("n", "winning", "nodes", "edges", "losing", "winning_constraints", "losing_targets")

scalars = (st.none() | st.booleans() | st.integers(-2, 70) | st.integers() | st.floats()
           | st.sampled_from(("1/2", "13/20", "-1", "1/0", "0.65", "1e999", "x"))
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


READERS = {
    "hypergraph": (hypergraph_from_json,
                   shaped({"nodes": counts, "edges": index_fields})),
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


def well_formed(count, keys, high=8):
    """Objects holding a few index lists inside 1..c at each of ``keys``.

    c is drawn from 1..high, and written at the key ``count`` unless that is
    None.
    """
    def drawn(n):
        index_list = st.lists(st.integers(1, n), min_size=min(2, n), max_size=4, unique=True)
        lists = st.lists(index_list, min_size=1, max_size=4)
        return st.fixed_dictionaries(
            {**({} if count is None else {count: st.just(n)}), **{k: lists for k in keys}})
    return st.integers(1, high).flatmap(drawn)


def half(noisy, good):
    """A reader's noisy payload or a well-formed one, each half the time."""
    return st.booleans().flatmap(lambda pick: good if pick else noisy)


# Half the payloads are well formed, so that many reach the solvers and
# exit 0 or 1.
HYPERGRAPHS = half(READERS["hypergraph"][1], well_formed("nodes", ["edges"]))
COMMANDS = {
    "separate": (["separate"], half(READERS["instance"][1], well_formed(
        "n", ["winning_constraints", "losing_targets"]))),
    "certs check": (["certs", "check"], half(READERS["certificate"][1], well_formed(
        None, ["losing", "winning"], N_MEMBERS))),
    "cover solve": (["cover", "solve"], HYPERGRAPHS),
    "cover refute --k 2": (["cover", "refute", "--k", "2"], HYPERGRAPHS),
    "cover duals": (["cover", "duals"], HYPERGRAPHS),
}


@pytest.fixture(scope="module")
def payload_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "payload.json"


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_commands_exit_0_1_or_2_with_one_error_line(name, payload_path, data):
    argv, payloads = COMMANDS[name]
    payload_path.write_text(json.dumps(data.draw(payloads)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + [str(payload_path)])
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    assert code in (0, 1, 2)
    assert len(errors) == (code == 2), lines
    assert all(line.startswith(("error:", "warning:")) for line in lines), lines
