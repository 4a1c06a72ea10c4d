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
the W-bit field at bit W*i, as the signed sum sum_i T[i][j] * 2**(W*i).
Column j starts as -A's: per sign, one stepped slice of the rows' mask
bytes, one `bytes.translate` to bit j and one strided `bytearray`
assignment put a 1 in each field whose row has that sign at j.  Every
entry, and D, is up to sign a minor of the {-1, 0, 1} matrix
[rhs | -A] (A holding the x0 column in Phase I) of order at most its
column count q, so by Hadamard's bound at most q**(q/2) in absolute value.
W is that bound's bit length plus a sign bit, rounded up to 8, 16, 32 or
64 bits, and above 64 bits to a multiple of 64: 64 bits at q = 16, 128 at
q = 31.  The update is linear in each column, so a pivot is one multiply,
subtract and divide per column,

    col_j' = (|p| * col_j - sign(p) * T[r][j] * col_s) / D,

then the new pivot-row entry goes into field r, which the update leaves at
0.  Products may overflow a field into its neighbours, but each field's
numerator is a multiple of D, so the whole integer is too and the quotient
is again a signed sum within the bound.  Adding 2**(W-1) to every field
makes them nonnegative, and flipping that bit again leaves each field's
two's complement, so one `to_bytes` and one `memoryview.cast` to signed
machine words decode a whole column.  A field wider than 64 bits is its
top word, signed, shifted over the unsigned words below it.  The ratio test
decodes columns 0 and s once per pivot and compares them at the rows whose
field in column s is negative, found from the top bytes alone.  The
objective row is a plain list.  Packing moves entries, not values, so
Bland's rule picks a row-by-row tableau's pivots.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from itertools import compress

if sys.byteorder != "little":
    raise ImportError("gamedim.simplex casts little-endian fields to machine words")

# bytes.translate tables: _BIT[b][x] = 1 iff bit b of the byte x is set,
# so _BIT[7] marks the top byte of a negative field.
_BIT = [bytes(x >> b & 1 for x in range(256)) for b in range(8)]
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
    # the rows' masks, stride bytes each; pack(j) is dictionary column j
    stride = (k - auxiliary + 7) >> 3
    plus = b"".join(p.to_bytes(stride, "little") for p, _ in rows)
    minus = b"".join(q.to_bytes(stride, "little") for _, q in rows)
    spread = bytearray(size)

    def pack(j: int) -> int:
        bit = _BIT[j & 7]
        spread[::width] = minus[j >> 3::stride].translate(bit)
        value = int.from_bytes(spread, "little")
        spread[::width] = plus[j >> 3::stride].translate(bit)
        return value - int.from_bytes(spread, "little")

    def decode(column: int) -> tuple[bytes, Sequence[int]]:
        # The fields as two's complement bytes, and their values.
        raw = ((column + offsets) ^ offsets).to_bytes(size, "little")
        view = memoryview(raw)
        values = view.cast(_SIGNED[word])[words - 1::words]
        for j in reversed(range(words - 1)):
            values = [v << 64 | w for v, w in zip(values, view.cast("Q")[j::words])]
        return raw, values

    cols = [-1] + list(range(k))
    basic = list(range(k, k + m))
    table = ([int.from_bytes(b"".join(map(codes.__getitem__, rhs)), "little") - offsets]
             + [ones] * auxiliary + [pack(j) for j in range(k - auxiliary)])
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
            raw, col_s = decode(table[s])
            col_0 = decode(table[0])[1]
            for i in compress(range(m), raw[width - 1::width].translate(_BIT[7])):
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
        prow = [((c + offsets) >> at & field) - half for c in table]
        p = prow[s]
        sign = 1 if p > 0 else -1
        pa = abs(p)
        col_s = table[s]
        fs = obj[s] * sign
        for j, y in enumerate(prow):
            if j == s:
                continue
            c = sign * y
            if c:
                table[j] = (pa * table[j] - c * col_s) // denom - (c << at)
            elif pa != denom:
                table[j] = pa * table[j] // denom
            obj[j] = (obj[j] * pa - fs * y) // denom
        table[s] = sign * (col_s + ((denom - p) << at))
        obj[s] = fs
        denom = pa
        basic[r], cols[s] = cols[s], basic[r]
        r = -1

    def vertex() -> list[int]:
        values = decode(table[0])[1]
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
