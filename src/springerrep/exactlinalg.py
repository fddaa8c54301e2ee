"""Exact sparse linear algebra over the integers and rationals.

Rows are ``dict``s from column to entry.  Reduced echelon forms stay in the
integers while every pivot entry is +-1; any other pivot turns its row into
``Fraction``s.  No floating point anywhere, and no rank: the certificates
peel against unitriangular families instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Entry = int | Fraction


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
