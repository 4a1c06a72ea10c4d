"""Exact simplex for rows . x <= rhs, x >= 0 with entries in {-1, 0, 1}.

Each row of A arrives as a pair (plus, minus) of bit masks over the
variables: bit j of plus (minus) set means the entry +1 (-1) in column j.
So a coalition or part mask is a row as it is.

`phase_one` maximizes -x0 over Chvatal's auxiliary problem A x - x0 <= r,
x0 >= 0: a forced pivot, x0 entering on the row with the most negative rhs,
makes the origin's dictionary feasible, and the system is feasible iff the
optimum 0 is reached.  If it is not, the final objective row holds a whole
Farkas certificate: minus the reduced costs of the x_j are y . A, the
multipliers of the bounds x >= 0, and minus those of the slacks are the
row multipliers y; `phase_one` returns the bounds' then the rows'.
`phase_two` maximizes c . x from the origin when every rhs is >= 0, and
returns y over the rows.  Both pivot by Bland's smallest-index rule,
which cannot cycle, numbering columns first, then slacks in row order.
All entries share one positive denominator D; a pivot on p = T[r][s] is
the integer-preserving (Edmonds/Bareiss) update

    T'[i][j] = (T[i][j] * p - T[i][s] * T[r][j]) / D,    D' = |p|,

with every entry negated when p < 0.

Packed columns.  Each dictionary column is one Python int: row i sits in
the W-bit field at bit W*i.  Every entry, and D, is up to sign a minor
of the {-1, 0, 1} matrix [rhs | -A] (A holding the x0 column in Phase I)
of order at most its column count q, so by Hadamard's bound at most
q**(q/2) in absolute value.  W is that bound's bit length plus a sign
bit, rounded up to 8, 16, 32 or 64 bits, and above 64 bits to a multiple
of 64: 64 bits at q = 16, 128 at q = 31.  So W >= 8 and W >= q, and a
row's mask fits in its field: per sign, one `int.to_bytes` per row
writes the rows' masks into one integer, which, shifted right by j and
masked by a 1 per field, puts a 1 in each field whose row has that sign
at j.  Columns are lifted: field i of column j holds T[i][j] + 2**(W-1),
in [0, 2**W), so the int is u_j = col_j + offsets, with col_j the signed
sum sum_i T[i][j] * 2**(W*i) and offsets a 2**(W-1) in every field.  No
field borrows from its neighbour, so a pivot-row entry is field r
shifted down and masked, less 2**(W-1).  Column j starts as offsets plus
-A's, minus's less plus's.  The update is linear in each signed column;
the new pivot-row entry, -sign(p) * T[r][j], belongs in field r, which
the plain update leaves at 0, and adding D to field r of col_s once per
pivot puts it there.  With folded = col_s + D * 2**(W*r) and
c = sign(p) * T[r][j], a pivot is

    u_j' = (|p| * u_j - c * folded + (D - |p|) * offsets) / D.

The numerator is |p| * col_j - c * folded, each of whose fields is a
multiple of D, plus D * offsets, so the division is exact: a right shift
by D's factors of 2, then a division by D's odd part only when that is
not 1 (a big-integer division costs one machine division per 30-bit
digit, a shift none).  When |p| == D, D * col_j - c * folded is a
multiple of D, so c * folded is one too and u_j' = u_j - c * folded / D:
one quotient per distinct value c of the pivot row serves every column
holding it, each such column costs one subtraction, and a column with
T[r][j] = 0 is not touched.  That holds at 636 of the 721 pivots of the
40 n = 12 LPs of a seed-4242 separation-ladder pass, at 57 of the 64 of
the council's three dual LPs, and at 613 of the 921 of its 105 pair LPs.
Otherwise c * folded less (D - |p|) * offsets is formed once per value,
and each column costs one multiply, subtract and divide.  Products may
overflow a field into its neighbours, but the whole numerator is a
multiple of D, and the quotient is again a lifted column within the
bound.  Flipping each field's top bit, u ^ offsets, leaves the field's
two's complement, so one `to_bytes` and one `memoryview.cast` to signed
machine words decode a whole column.  A field wider than 64 bits is its
top word, signed, shifted over the unsigned words below it.  The ratio
test reads signs from the top bits of the lifted columns: u_s & offsets
marks the rows where column s is >= 0, (u_0 - ones) & offsets those
where column 0 (>= 0 in a feasible dictionary) is > 0.  If some row has
neither, the least ratio is 0, and the least basic variable among those
rows leaves: one `compress` of the basic variables by the fields' top
bytes, with no column decoded.  Otherwise it decodes columns 0 and s and
compares the ratios at the negative rows, cross-multiplied.  The
objective row is a plain list.  Packing moves entries, not values, so
Bland's rule picks a row-by-row tableau's pivots.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from itertools import compress, repeat
from operator import itemgetter

if sys.byteorder != "little":
    raise ImportError("gamedim.simplex casts little-endian fields to machine words")

# memoryview.cast formats of signed machine words, by size in bytes
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}


def _solve(rows: Sequence[tuple[int, int]], rhs: Sequence[int], obj: list[int],
           auxiliary: bool = False
           ) -> tuple[Callable[[], list[int]], Callable[[], list[int]], int, int]:
    """Simplex on the dictionary slack_i = rhs[i] - sum_j A[i][j] x_j.

    Row i of A is rows[i] = (plus, minus): bit j of plus (minus) set means
    A[i][j] = 1 (-1).  obj[0] is the objective's constant and obj[1 + j]
    the coefficient of x_j, for the len(obj) - 1 columns.  With
    `auxiliary`, A gets Chvatal's x0 column first, the forced pivot brings
    x0 in on the row with the most negative rhs, and the solve stops once
    the objective reaches 0.  Dictionary row i reads
    basic[i] = (T[i][0] + sum_j T[i][j] * cols[j]) / D, with column j of T
    packed in table[j].  Returns (vertex, multipliers, D, value): readers of
    the vertex x / D and of the multipliers / D of the bounds x >= 0 (the
    x0 column's included), then of the rows, read off the objective row;
    and the objective value / D.  Raises RuntimeError when unbounded.
    """
    m, k = len(rhs), len(obj) - 1
    bits = math.isqrt((k + 1) ** (k + 1)).bit_length() + 1
    width = 1 << max(0, (bits - 1).bit_length() - 3) if bits <= 64 else 8 * -(-bits // 64)
    shift = 8 * width
    half = 1 << (shift - 1)
    field = (1 << shift) - 1
    size = width * m
    ones = int.from_bytes(b"\x01".ljust(width, b"\0") * m, "little")
    offsets = half * ones
    word = min(width, 8)
    words = width // word

    codes = {v: (v + half).to_bytes(width, "little") for v in (-1, 0, 1)}
    # Per sign, the rows' masks, row i's in field i: shifted right by j,
    # its fields' low bits mark the rows with that sign at column j.
    plus, minus = (int.from_bytes(b"".join(map(int.to_bytes, map(itemgetter(side), rows),
                                               repeat(width), repeat("little"))), "little")
                   for side in (0, 1))

    def decode(column: int) -> Sequence[int]:
        # The fields' values, read off their two's complement bytes.
        view = memoryview((column ^ offsets).to_bytes(size, "little"))
        values = view.cast(_SIGNED[word])[words - 1::words]
        for j in reversed(range(words - 1)):
            values = [v << 64 | w for v, w in zip(values, view.cast("Q")[j::words])]
        return values

    def selectors(tops: int) -> bytes:
        # Per row, its field's top byte in ``tops``: nonzero iff the top bit is set.
        return tops.to_bytes(size, "little")[width - 1::width]

    cols = [-1] + list(range(k))
    basic = list(range(k, k + m))
    table = ([int.from_bytes(b"".join(map(codes.__getitem__, rhs)), "little")]
             + [offsets + ones] * auxiliary
             + [offsets + (minus >> j & ones) - (plus >> j & ones)
                for j in range(k - auxiliary)])
    denom = 1
    r, s = (min(range(m), key=rhs.__getitem__), 1) if auxiliary else (-1, 0)
    while True:
        if r < 0:
            if auxiliary and obj[0] == 0:
                break
            entering = [(cols[j], j) for j in range(1, k + 1) if obj[j] > 0]
            if not entering:
                break
            s = min(entering)[1]
            # The top bits of the fields where column s is >= 0, and where
            # column 0 (>= 0 in a feasible dictionary) is > 0.
            nonnegative = table[s] & offsets
            positive = (table[0] - ones) & offsets
            zero = offsets ^ (nonnegative | positive)
            if zero:
                # Rows with ratio 0, the least: the least basic one leaves.
                r = basic.index(min(compress(basic, selectors(zero))))
            else:
                col_s, col_0 = decode(table[s]), decode(table[0])
                for i in compress(range(m), selectors(offsets ^ nonnegative)):
                    a, b = col_s[i], col_0[i]
                    if r < 0:
                        r, best_a, best_b = i, a, b
                        continue
                    # ratio b / -a against the best one, cross-multiplied
                    lhs, best = b * -best_a, best_b * -a
                    if lhs < best or (lhs == best and basic[i] < basic[r]):
                        r, best_a, best_b = i, a, b
                if r < 0:
                    raise RuntimeError("objective unbounded")

        at = shift * r
        prow = [(u >> at & field) - half for u in table]
        p = prow[s]
        sign = 1 if p > 0 else -1
        pa = abs(p)
        folded = table[s] - offsets + (denom << at)
        fs = obj[s] * sign
        # D = 2**twos * odd
        twos = (denom & -denom).bit_length() - 1
        odd = denom >> twos
        # Per value y = T[r][j] and c = sign * y, its columns' term: when
        # |p| == D, c * folded / D, which they lose; else c * folded less the
        # offsets' share, (D - |p|) * offsets, which the update divides by D.
        terms: dict[int, int] = {}
        if pa == denom:
            for j, y in enumerate(prow):
                if y and j != s:
                    term = terms.get(y)
                    if term is None:
                        term = sign * y * folded >> twos
                        term = terms[y] = term // odd if odd > 1 else term
                    table[j] -= term
        else:
            lift = (denom - pa) * offsets
            for j, y in enumerate(prow):
                if j != s:
                    term = terms.get(y)
                    if term is None:
                        term = terms[y] = sign * y * folded - lift
                    column = pa * table[j] - term >> twos
                    table[j] = column // odd if odd > 1 else column
        obj[:] = [(o * pa - fs * y) // denom for o, y in zip(obj, prow)]
        table[s] = sign * (folded - (p << at)) + offsets
        obj[s] = fs
        denom = pa
        basic[r], cols[s] = cols[s], basic[r]
        r = -1

    def vertex() -> list[int]:
        values = decode(table[0])
        nonbasic = set(cols)
        return [0 if v in nonbasic else values[basic.index(v)] for v in range(k)]

    def multipliers() -> list[int]:
        y = [0] * (k + m)
        for j in range(1, k + 1):
            y[cols[j]] = -obj[j]
        return y

    return vertex, multipliers, denom, obj[0]


def phase_one(rows: Sequence[tuple[int, int]], rhs: Sequence[int], k: int
              ) -> tuple[bool, list[int], int]:
    """Chvatal's auxiliary problem for A x <= rhs, x >= 0; some rhs < 0.

    A has k columns, and row i is rows[i] = (plus, minus), the masks of its
    entries +1 and -1.  Returns (True, x, D) with a feasible vertex x / D,
    or (False, z, D) with a Farkas certificate: multipliers z / D >= 0 of
    the k bounds x >= 0 and then of the rows, where the first k are y . A
    for the row multipliers y, and y . rhs < 0.  So z combines the bounds
    -x <= 0 and the rows into 0 <= y . rhs / D < 0.
    """
    vertex, multipliers, denom, value = _solve(rows, rhs, [0, -1] + [0] * k, auxiliary=True)
    if value == 0:
        return True, vertex()[1:], denom
    return False, multipliers()[1:], denom


def phase_two(rows: Sequence[tuple[int, int]], rhs: Sequence[int], objective: Sequence[int]
              ) -> tuple[list[int], list[int], int, int]:
    """Maximize objective . x subject to A x <= rhs, x >= 0; every rhs >= 0.

    A has len(objective) columns, and row i is rows[i] = (plus, minus), the
    masks of its entries +1 and -1.  Returns (x, y, D, value): an optimal
    vertex x / D, optimal multipliers y / D >= 0 over the rows
    (y . A >= objective componentwise and y . rhs = value / D), and the
    optimum value / D.  Raises RuntimeError when the objective is unbounded.
    """
    vertex, multipliers, denom, value = _solve(rows, rhs, [0] + list(objective))
    return vertex(), multipliers()[len(objective):], denom, value
