"""Exact simplex for rows . x <= rhs, x >= 0 with entries in {-1, 0, 1}.

`phase_one` maximizes -x0 over Chvatal's auxiliary problem A x - x0 <= r,
x0 >= 0: a forced pivot, x0 entering on the row with the most negative rhs,
makes the origin's dictionary feasible, and the system is feasible iff the
optimum 0 is reached.  `phase_two` maximizes c . x from the origin when
every rhs is >= 0.  Both pivot by Bland's smallest-index rule, which cannot
cycle, numbering columns first, then slacks in row order.  All entries
share one positive denominator D; a pivot on p = T[r][s] is the
integer-preserving (Edmonds/Bareiss) update

    T'[i][j] = (T[i][j] * p - T[i][s] * T[r][j]) / D,    D' = |p|,

with every entry negated when p < 0.

Packed columns.  Each dictionary column is one Python int: row i sits in
the W-bit field at bit W*i, as the signed sum sum_i T[i][j] * 2**(W*i).
Every entry, and D, is up to sign a minor of the {-1, 0, 1} matrix
[rhs | -A] (A holding the x0 column in Phase I) of order at most its
column count q, so by Hadamard's bound at most q**(q/2) in absolute value.
W is that bound's bit length plus a sign bit, in whole bytes: 32 bits at
q = 15, 80 at q = 31.  The update is linear in each column, so a pivot is
one multiply, subtract and divide per column,

    col_j' = (|p| * col_j - sign(p) * T[r][j] * col_s) / D,

then the new pivot-row entry goes into field r, which the update leaves at
0.  Products may overflow a field into its neighbours, but each field's
numerator is a multiple of D, so the whole integer is too and the quotient
is again a signed sum within the bound.  Adding 2**(W-1) to every field
makes them nonnegative, and one `to_bytes` then reads a column as byte
slices; the ratio test reads only columns 0 and s, at the rows whose field
in column s is negative.  The objective row is a plain list.  Packing moves
entries, not values, so Bland's rule picks a row-by-row tableau's pivots.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Sequence

# bytes.translate table: 1 for the top byte of a negative offset field.
_NEGATIVE = bytes(b < 0x80 for b in range(256))


def _solve(columns: Sequence[Sequence[int]], rhs: Sequence[int], obj: list[int],
           first: tuple[int, int] | None = None) -> tuple[list[int], list[int], int, int]:
    """Simplex on the dictionary slack_i = rhs[i] - sum_j A[i][j] x_j.

    `columns` are the columns of A; obj[0] is the objective's constant and
    obj[1 + j] the coefficient of x_j.  Dictionary row i reads
    basic[i] = (T[i][0] + sum_j T[i][j] * cols[j]) / D, with column j of T
    packed in table[j].  With `first`, that Phase-I pivot comes first and
    the solve stops once the objective reaches 0.  Returns (x, y, D, value):
    the vertex x / D, the row multipliers y / D read off the objective row,
    and the objective value / D.  Raises RuntimeError when unbounded.
    """
    m, k = len(rhs), len(columns)
    width = (math.isqrt((k + 1) ** (k + 1)).bit_length() + 8) // 8
    shift = 8 * width
    half = 1 << (shift - 1)
    field = (1 << shift) - 1
    size = width * m
    offsets = half * int.from_bytes(b"\x01".ljust(width, b"\0") * m, "little")

    codes = {v: (v + half).to_bytes(width, "little") for v in (-1, 0, 1)}

    def pack(values) -> int:
        return int.from_bytes(b"".join(map(codes.__getitem__, values)), "little") - offsets

    def fields(column: int) -> bytes:
        return (column + offsets).to_bytes(size, "little")

    def entry(raw: bytes, i: int) -> int:
        return int.from_bytes(raw[i * width:(i + 1) * width], "little") - half

    cols = [-1] + list(range(k))
    basic = list(range(k, k + m))
    table = [pack(rhs)] + [-pack(col) for col in columns]
    denom = 1
    r, s = first if first is not None else (-1, 0)
    while True:
        if r < 0:
            if first is not None and obj[0] == 0:
                break
            entering = [(cols[j], j) for j in range(1, k + 1) if obj[j] > 0]
            if not entering:
                break
            s = min(entering)[1]
            raw_s, raw_0 = fields(table[s]), fields(table[0])
            # A field is negative iff its top byte, offset by half, is below 0x80.
            for i in compress(range(m), raw_s[width - 1::width].translate(_NEGATIVE)):
                a, b = entry(raw_s, i), entry(raw_0, i)
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

    x = [0] * k
    raw = fields(table[0])
    for i, v in enumerate(basic):
        if v < k:
            x[v] = entry(raw, i)
    y = [0] * m
    for j in range(1, k + 1):
        if cols[j] >= k:
            y[cols[j] - k] = -obj[j]
    return x, y, denom, obj[0]


def phase_one(rows: list[list[int]], rhs: list[int]) -> tuple[bool, list[int], int]:
    """Chvatal's auxiliary problem for rows . x <= rhs, x >= 0; some rhs < 0.

    Returns (True, x, D) with a feasible vertex x / D, or (False, y, D) with
    multipliers y / D >= 0 over the rows such that y . rows >= 0
    componentwise and y . rhs < 0.
    """
    m, k = len(rows), len(rows[0])
    x, y, denom, value = _solve(
        [(-1,) * m] + list(zip(*rows)), rhs, [0, -1] + [0] * k,
        first=(min(range(m), key=rhs.__getitem__), 1))
    if value == 0:
        return True, x[1:], denom
    return False, y, denom


def phase_two(rows: list[list[int]], rhs: list[int], objective: list[int]
              ) -> tuple[list[int], list[int], int, int]:
    """Maximize objective . x subject to rows . x <= rhs, x >= 0; every rhs >= 0.

    Returns (x, y, D, value): an optimal vertex x / D, optimal multipliers
    y / D >= 0 over the rows (y . rows >= objective componentwise and
    y . rhs = value / D), and the optimum value / D.  Raises RuntimeError
    when the objective is unbounded.
    """
    columns = [[row[j] for row in rows] for j in range(len(objective))]
    return _solve(columns, rhs, [0] + list(objective))
