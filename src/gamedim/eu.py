"""The EU council voting rule on the 2014 member populations.

A coalition wins if it has at least 55% of the member states (16 of 28) and
at least 65% of the total population, or outright if it has at least 25
member states.  Percent thresholds are read as closed inequalities in exact
integer arithmetic: the population rule holds iff 20*pop(C) >= 13*T.
`EuGame` is this rule as a simple game, evaluated on the coalition's mask.

The module also bundles a reference family of 15 losing and 12 winning
coalitions (labels L1..L15 and W1..W12), the pair and triple label sets
claimed non-separable, whose certificates `certificates` derives, and the
21 maximal independent sets the replay expects of their hypergraph.
"""

from __future__ import annotations

import functools
import io
from fractions import Fraction

from ._packed import integer, mask_of
from ._record import Frozen
from .games import Coalition, SimpleGame, byte_tables, table_sum

N_MEMBERS = 28
MEMBER_QUOTA = 16  # smallest integer >= 55% of 28
POPULATION_NUM, POPULATION_DEN = 13, 20  # 65% of the total population
OUTRIGHT_QUOTA = 25

# (index, state, population on 01.01.2014)
MEMBERS_2014: tuple[tuple[int, str, int], ...] = (
    (1, "Germany", 80780000),
    (2, "France", 65856609),
    (3, "United Kingdom", 64308261),
    (4, "Italy", 60782668),
    (5, "Spain", 46507760),
    (6, "Poland", 38495659),
    (7, "Romania", 19942642),
    (8, "Netherlands", 16829289),
    (9, "Belgium", 11203992),
    (10, "Greece", 10992589),
    (11, "Czech Republic", 10512419),
    (12, "Portugal", 10427301),
    (13, "Hungary", 9879000),
    (14, "Sweden", 9644864),
    (15, "Austria", 8507786),
    (16, "Bulgaria", 7245677),
    (17, "Denmark", 5627235),
    (18, "Finland", 5451270),
    (19, "Slovakia", 5415949),
    (20, "Ireland", 4604029),
    (21, "Croatia", 4246700),
    (22, "Lithuania", 2943472),
    (23, "Slovenia", 2061085),
    (24, "Latvia", 2001468),
    (25, "Estonia", 1315819),
    (26, "Cyprus", 858000),
    (27, "Luxembourg", 549680),
    (28, "Malta", 425384),
)


class MemberTable(Frozen):
    """The 28 member states with their populations, indexed 1..28.

    Each index in 1..28 appears once (read by `mask_of`), and each
    population is a positive plain `int`.  The table keeps, in its instance
    `__dict__` but no field, `total_population` and `cheapest_first`: the
    (population, member bit) of every member, by population, then index.
    """

    entries: tuple[tuple[int, str, int], ...]

    def __init__(self, entries: tuple[tuple[int, str, int], ...]):
        super().__init__(entries)
        if len(self.entries) != N_MEMBERS:
            raise ValueError(f"wrong row count: expected {N_MEMBERS}, got {len(self.entries)}")
        mask_of((index for index, _, _ in self.entries), N_MEMBERS, "member index")
        for _, name, population in self.entries:
            integer(population, f"population of {name!r}", 1)
        # The populations by member bit, summed over a mask's bytes by
        # `table_sum`, and the population rule's right-hand side, 13*T.
        populations = [population for _, _, population in sorted(self.entries)]
        total = sum(populations)
        vars(self).update(
            _byte_sums=byte_tables(populations), _population_bar=POPULATION_NUM * total,
            total_population=total,
            cheapest_first=tuple(sorted(
                (population, 1 << (index - 1)) for index, _, population in self.entries)))

    @property
    def populations(self) -> dict[int, int]:
        return {index: population for index, _, population in self.entries}

    def population_of(self, coalition: Coalition) -> int:
        if coalition.n != N_MEMBERS:
            raise ValueError(f"coalition over {coalition.n} members, table over {N_MEMBERS}")
        return table_sum(self._byte_sums, coalition.mask)


@functools.cache
def default_members() -> MemberTable:
    """The bundled 2014 table, built once per process: a table is frozen."""
    return MemberTable(MEMBERS_2014)


def load_members(stream: io.TextIOBase | str) -> MemberTable:
    """Parse a member table from CSV with header ``index,name,population``."""
    import csv  # only a table given on the command line is CSV

    if isinstance(stream, str):
        stream = io.StringIO(stream)
    try:
        rows = list(csv.reader(stream))
    except csv.Error as err:  # say, a cell over the csv module's field limit
        raise ValueError(f"member table: {err}") from None
    if not rows:
        raise ValueError("empty member table")
    header = rows[0]
    if [h.strip().lower() for h in header] != ["index", "name", "population"]:
        raise ValueError(f"bad header {header!r}, expected index,name,population")
    entries = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"malformed row {row!r}")
        try:
            index = ascii_int(row[0].strip())
            population = ascii_int(row[2].strip())
        except ValueError:
            raise ValueError(f"malformed row {row!r}") from None
        entries.append((index, row[1].strip(), population))
    return MemberTable(tuple(entries))


class RuleReport(Frozen):
    """Per-rule evaluation of one coalition."""

    winning: bool
    rule55: bool
    rule65: bool
    rule25: bool
    population_sum: int


class EuGame(SimpleGame, Frozen):
    """The council rule as a simple game over the 28 members of a table.

    `contains` (alias `is_winning`) and `classify` share one evaluation of the
    mask, `_rules`: its `bit_count`, one `table_sum` over the table's byte
    tables, and integer compares against the quotas and the table's 13*T.
    """

    table: MemberTable
    n = N_MEMBERS
    member_quota = MEMBER_QUOTA

    @property
    def population_quota(self) -> Fraction:
        """The exact population threshold, 13/20 of the total population."""
        return Fraction(POPULATION_NUM * self.table.total_population, POPULATION_DEN)

    def _rules(self, coalition: Coalition) -> tuple[bool, bool, bool, bool, int]:
        """(winning, member rule, population rule, outright rule, population)."""
        if coalition.n != N_MEMBERS:
            raise ValueError(f"coalition over {coalition.n} members, table over {N_MEMBERS}")
        table = self.table
        population = table_sum(table._byte_sums, coalition.mask)
        members = coalition.mask.bit_count()
        rule55 = members >= MEMBER_QUOTA
        rule65 = POPULATION_DEN * population >= table._population_bar
        rule25 = members >= OUTRIGHT_QUOTA
        return (rule55 and rule65) or rule25, rule55, rule65, rule25, population

    def contains(self, coalition: Coalition) -> bool:
        return self._rules(coalition)[0]

    is_winning = contains

    def classify(self, coalition: Coalition) -> RuleReport:
        return RuleReport(*self._rules(coalition))


def build_eu_game(table: MemberTable | None = None) -> EuGame:
    """The council game on a member table (2014 data by default)."""
    return EuGame(default_members() if table is None else table)


# --- reference coalitions ----------------------------------------------------

_LOSING_INDICES: tuple[tuple[int, ...], ...] = (
    (2, 3, 5, 6, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (1, 4, 5, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27),
    (3, 4, 5, 6, 7, 8, 9, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 4, 5, 6, 7, 9, 10, 12, 13, 14, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (1, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 22, 23, 24, 25, 26, 27, 28),
    (2, 4, 5, 6, 7, 8, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (1, 2, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 23, 24, 25, 26, 27, 28),
    (1, 4, 5, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 27, 28),
    (1, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
)

_WINNING_INDICES: tuple[tuple[int, ...], ...] = (
    (1, 2, 4, 5, 6, 13, 14, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (1, 2, 5, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 3, 4, 5, 6, 7, 13, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (1, 3, 4, 5, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 3, 4, 5, 6, 10, 11, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (1, 2, 5, 6, 8, 10, 11, 12, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
    (2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
)

LOSING_FAMILY: tuple[Coalition, ...] = tuple(
    Coalition.from_indices(ix, N_MEMBERS) for ix in _LOSING_INDICES
)
WINNING_FAMILY: tuple[Coalition, ...] = tuple(
    Coalition.from_indices(ix, N_MEMBERS) for ix in _WINNING_INDICES
)


def reference_coalitions() -> tuple[tuple[Coalition, ...], tuple[Coalition, ...]]:
    """The bundled (losing L1..L15, winning W1..W12) coalitions."""
    return LOSING_FAMILY, WINNING_FAMILY


def ascii_int(text: str) -> int:
    """The number written in ``text``, which must be ASCII digits only.

    `int` alone also takes a sign, '_', surrounding spaces and other
    scripts' digits.  Raises ValueError otherwise, and, like `int`, for
    more digits than it converts.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(text)


def labeled_coalition(label: str) -> Coalition:
    """Look up a bundled coalition by its label, e.g. ``L15`` or ``W3``."""
    label = label.strip().upper()
    try:
        kind, num = label[:1], ascii_int(label[1:])
        if kind == "L" and 1 <= num <= len(LOSING_FAMILY):
            return LOSING_FAMILY[num - 1]
        if kind == "W" and 1 <= num <= len(WINNING_FAMILY):
            return WINNING_FAMILY[num - 1]
    except ValueError:
        pass
    raise ValueError(f"unknown coalition label {label!r}")


def _label_sets(sets) -> str:
    """Sets of losing-coalition labels as the replay writes them: ``{L1,L4} {L15}``."""
    return " ".join("{" + ",".join(f"L{v}" for v in sorted(s)) + "}" for s in sets)


# Non-separable label sets over L1..L15: 75 pairs and 5 triples.  Each pair
# {i, j} marks {Li, Lj} as non-separable; triples likewise.
NONSEPARABLE_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 5), (1, 8), (1, 9), (1, 10), (1, 11), (1, 13), (1, 14), (1, 15),
    (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 10), (2, 11), (2, 15),
    (3, 4), (3, 5), (3, 7), (3, 9), (3, 10), (3, 12), (3, 13), (3, 14), (3, 15),
    (4, 6), (4, 8), (4, 9), (4, 11), (4, 12), (4, 13), (4, 14), (4, 15),
    (5, 7), (5, 8), (5, 11), (5, 14), (5, 15),
    (6, 7), (6, 8), (6, 9), (6, 11), (6, 13), (6, 14), (6, 15),
    (7, 9), (7, 10), (7, 11), (7, 13), (7, 14), (7, 15),
    (8, 9), (8, 10), (8, 11), (8, 12), (8, 14), (8, 15),
    (9, 10), (9, 11), (9, 12), (9, 13), (9, 14), (9, 15),
    (10, 11), (10, 14), (10, 15),
    (11, 12), (11, 13), (11, 15),
    (12, 13), (12, 15),
    (13, 14), (13, 15),
    (14, 15),
)

NONSEPARABLE_TRIPLES: tuple[tuple[int, int, int], ...] = (
    (1, 2, 12),
    (1, 4, 7),
    (1, 6, 12),
    (4, 5, 10),
    (5, 10, 12),
)

ANCHOR_LABEL = 15  # L15, the one reference losing coalition failing the member rule

# The 21 maximal independent sets of the council family (nodes are L1..L15),
# the only candidate parts a cover ever needs.
COUNCIL_MAXIMAL_PARTS: tuple[frozenset[int], ...] = tuple(map(frozenset, (
    (1, 2), (1, 3, 6), (1, 4), (1, 7, 12), (2, 9), (2, 12, 14), (2, 13),
    (3, 8), (3, 11), (4, 5), (4, 7), (4, 10), (5, 6, 10), (5, 6, 12),
    (5, 9), (5, 10, 13), (6, 10, 12), (7, 8), (8, 13), (11, 14), (15,),
)))
