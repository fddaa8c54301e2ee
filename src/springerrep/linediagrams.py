"""Signed line-diagram expansions of standard dotted matchings.

A line diagram on n strands is determined by its undot set: the positions
of the undotted strands.  A standard matching M with k undotted arcs
expands into the sum L_M of 2^k diagrams, one for each choice of a single
endpoint per undotted arc, signed by the parity of how many left endpoints
were chosen.  This expansion is the homology image of the matching under
the component-wise antipodal embedding, and the choose-the-right-endpoint
term always carries coefficient +1 — which makes the expansion matrix
row-echelon once rows and columns are sorted by the undot-set order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .formal import FormalSum
from .matchings import DottedMatching, enumerate_standard, is_standard, subset_order_key


@dataclass(frozen=True)
class UndotSet:
    """The undotted-strand positions of a line diagram on n strands."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"repeated strand in {self.members}")
        if any(v < 1 or v > self.n for v in self.members):
            raise ValueError(f"strand out of range 1..{self.n}: {self.members}")

    def sort_key(self):
        return (self.n, len(self.members), subset_order_key(self.members))


def _require_standard(m: DottedMatching) -> None:
    if not is_standard(m):
        raise ValueError(f"matching {m.arcs} with dots {sorted(m.dotted)} is not standard")


def expansion_masks(m: DottedMatching) -> dict[int, int]:
    """L_M as {undot-set mask: ±1}, strand x at bit x-1: the one expansion rule,
    the product over undotted arcs (i, j) of (l_j - l_i) multiplied out in
    ``itertools.product`` order.  :func:`expand` checks that M is standard."""
    terms = {0: 1}
    for i, j in m.undotted_arcs:
        terms = {
            mask | bit: sign * coef
            for mask, coef in terms.items()
            for bit, sign in ((1 << (i - 1), -1), (1 << (j - 1), 1))
        }
    return terms


@cache
def expand(m: DottedMatching) -> FormalSum:
    """The signed expansion L_M, a sum of 2^k undot sets with coefficients ±1."""
    _require_standard(m)
    strands = range(1, m.n + 1)
    return FormalSum(
        (UndotSet(m.n, tuple(x for x in strands if mask >> (x - 1) & 1)), coef)
        for mask, coef in expansion_masks(m).items()
    )


def echelon_certificate(n: int, k: int) -> bool:
    """Is the matrix of M -> L_M in row-echelon form with pivots +1?

    Rows are the standard matchings and columns all k-subsets of {1..n},
    both arranged with the largest undot set first; each row must lead with
    coefficient +1 in the column of its own undot set U_M.
    """
    basis = enumerate_standard(n, k)
    columns = sorted(itertools.combinations(range(1, n + 1), k), key=subset_order_key, reverse=True)
    col_index = {c: idx for idx, c in enumerate(columns)}
    previous = -1
    for m in reversed(basis):
        row = expand(m)
        pivot = min(col_index[u.members] for u, _ in row)
        if pivot != col_index[m.right_undotted()]:
            return False
        if row.coefficient(UndotSet(n, m.right_undotted())) != 1:
            return False
        if pivot <= previous:
            return False
        previous = pivot
    return True
