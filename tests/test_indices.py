"""One rule reads every list of 1-based member indices or nodes: `_packed.mask_of`."""

import enum

import pytest

from gamedim._packed import mask_of
from gamedim.cover import (
    CoverSolution, DualWeightCertificate, Hypergraph, is_independent, min_cover,
)
from gamedim.eu import MEMBERS_2014, N_MEMBERS, MemberTable
from gamedim.games import Coalition, coalitions_from_json


class Two(enum.IntEnum):
    TWO = 2


# Each bad value is the second index of ``[1, bad]`` over n members or nodes.
BAD_INDICES = {
    "bool": lambda n: True,
    "float": lambda n: 2.0,
    "str": lambda n: "2",
    "int-enum": lambda n: Two.TWO,
    "zero": lambda n: 0,
    "above-n": lambda n: n + 1,
    "repeated": lambda n: 1,
}


def member_table(indices):
    """The 2014 table with its first rows' indices replaced by ``indices``."""
    indices = list(indices) + list(range(len(indices) + 1, N_MEMBERS + 1))
    return MemberTable(tuple((i, name, pop) for i, (_, name, pop) in zip(indices, MEMBERS_2014)))


# Each entry point reads one index list over n members or nodes.
ENTRY_POINTS = {
    "from_indices": (4, lambda ix: Coalition.from_indices(ix, 4)),
    "coalitions_from_json": (4, lambda ix: coalitions_from_json([[3], ix], 4, "winning")),
    "Hypergraph": (4, lambda ix: Hypergraph(4, [(3, 4), ix])),
    "is_independent": (4, lambda ix: is_independent(ix, Hypergraph(4, [(3, 4)]))),
    "min_cover": (4, lambda ix: min_cover(Hypergraph(4, [(3, 4)]), [(2, 3), ix, (4,)])),
    "weight_of": (4, lambda ix: DualWeightCertificate([1, 2, 3, 4], 1).weight_of(ix)),
    "excluded_part": (4, lambda ix: DualWeightCertificate([1, 2, 3, 4], 1, excluded_part=ix)),
    "CoverSolution": (4, lambda ix: CoverSolution([(3,), ix, (4,)])
                      .verify(Hypergraph(4, [(3, 4)]))),
    "MemberTable": (N_MEMBERS, member_table),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", BAD_INDICES)
def test_every_entry_point_rejects_every_bad_index(entry, bad):
    n, read = ENTRY_POINTS[entry]
    read([1, 2])  # the same call with a good index list passes
    with pytest.raises(ValueError):
        read([1, BAD_INDICES[bad](n)])


@pytest.mark.parametrize("population", [True, 2.0, "2", Two.TWO, 425384.5, 0, -1], ids=repr)
def test_member_table_population_is_a_positive_int(population):
    entries = MEMBERS_2014[:27] + ((28, "Malta", population),)
    with pytest.raises(ValueError, match="'Malta'"):
        MemberTable(entries)


@pytest.mark.parametrize("indices, mask", [
    ([], 0), ([1], 0b1), ([3, 1], 0b101), (range(1, 5), 0b1111), (iter([4, 2]), 0b1010),
])
def test_mask_of_sets_one_bit_per_index(indices, mask):
    assert mask_of(indices, 4, "node") == mask


@pytest.mark.parametrize("indices, what, message", [
    ([True], "node", "node True is a bool, not a node in 1..4"),
    ([False], "member index", "member index False is a bool, not an index in 1..4"),
    ([1.0], "node", "node 1.0 is not an integer"),
    (["2"], "node", "node '2' is not an integer"),
    ([Two.TWO], "member index", "member index <Two.TWO: 2> is not an integer"),
    ([None], "node", "node None is not an integer"),
    ([0], "node", "node 0 out of range 1..4"),
    ([5], "edge node", "edge node 5 out of range 1..4"),
    ([-1], "member index", "member index -1 out of range 1..4"),
    ([2, 3, 2], "member index", "duplicate member index 2"),
])
def test_mask_of_names_the_first_bad_index(indices, what, message):
    with pytest.raises(ValueError) as err:
        mask_of(indices, 4, what)
    assert str(err.value) == message
