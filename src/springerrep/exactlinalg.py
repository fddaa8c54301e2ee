"""Exact linear algebra over the integers and rationals.

Rank uses fraction-free (Bareiss) elimination on dense integer rows, so
integer matrices stay integer throughout.  Sparse reduced echelon forms
work on ``dict`` rows and stay in the integers while every pivot entry is
+-1; any other pivot turns its row into ``Fraction``s.  No floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Entry = int | Fraction


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, fraction-free."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pivot = mat[r][c]
        for i in range(r + 1, nrows):
            row_i, row_r = mat[i], mat[r]
            factor = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (pivot * row_i[j] - factor * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def subtract_row(row: dict[int, Entry], factor: Entry, other: Mapping[int, Entry]) -> None:
    """row -= factor * other, in place, dropping entries that cancel."""
    for c, x in other.items():
        value = row.get(c, 0) - factor * x
        if value:
            row[c] = value
        else:
            row.pop(c, None)


def sparse_rref(rows: Iterable[Mapping[int, Entry]]) -> dict[int, dict[int, Entry]]:
    """Reduced row echelon form of sparse rows (column -> entry), keyed by pivot.

    Each row is reduced against the pivots found so far; a nonzero rest makes
    its leftmost column a new pivot, scaled to 1.  Back-substitution in
    decreasing pivot order then clears each pivot column in the other rows.
    Row space and column order fix the reduced form, so this equals dense
    Gauss-Jordan row for row.
    """
    echelon: dict[int, dict[int, Entry]] = {}
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        lead = min(row, default=None)
        while lead in echelon:
            subtract_row(row, row[lead], echelon[lead])
            lead = min(row, default=None)
        if lead is None:
            continue
        scale = row[lead]
        if scale in (1, -1):
            echelon[lead] = {c: x * scale for c, x in row.items()}
        else:
            echelon[lead] = {c: Fraction(x) / scale for c, x in row.items()}
    for pivot in sorted(echelon, reverse=True):
        row = echelon[pivot]
        for c in [c for c in row if c != pivot and c in echelon]:
            subtract_row(row, row[c], echelon[c])
    return echelon
