"""Exact linear algebra over the integers and rationals.

Rank uses fraction-free (Bareiss) elimination, so integer matrices stay
integer throughout; reduced echelon forms and solves use ``Fraction``.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


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


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns (nonzero rows, pivot column indices); pivot entries are 1 and
    pivot columns are cleared above and below.
    """
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def solve_in_span(
    basis: Sequence[Sequence[int | Fraction]],
    targets: Sequence[Sequence[int | Fraction]],
) -> list[list[Fraction]]:
    """Coordinates of each target vector in the span of an independent basis.

    ``basis`` and ``targets`` are lists of vectors (rows of equal length).
    Raises ValueError if the basis is dependent or a target lies outside
    its span.
    """
    nb = len(basis)
    dim = len(basis[0]) if basis else 0
    augmented = [[Fraction(basis[b][d]) for b in range(nb)]
                 + [Fraction(t[d]) for t in targets]
                 for d in range(dim)]
    reduced, pivots = rref(augmented)
    if any(p >= nb for p in pivots):
        raise ValueError("target vector outside the span of the basis")
    if len(pivots) != nb:
        raise ValueError("basis vectors are linearly dependent")
    return [[reduced[r][nb + t] for r in range(nb)] for t in range(len(targets))]

