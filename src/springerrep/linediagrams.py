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
from .perms import Permutation


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


def undot_sets(m: DottedMatching) -> list[UndotSet]:
    """The 2^k undot sets of M: one endpoint from each undotted arc."""
    _require_standard(m)
    out = [UndotSet(m.n, choice) for choice in itertools.product(*m.undotted_arcs)]
    out.sort(key=UndotSet.sort_key)
    return out


def left_count(m: DottedMatching, u: UndotSet) -> int:
    """Number of elements of u that are left endpoints of their arc in m."""
    _require_standard(m)
    undotted = m.undotted_arcs
    chosen = set(u.members)
    if u.n != m.n or len(chosen) != len(undotted):
        raise ValueError(f"{u.members} is not an undot set of the matching")
    lefts = 0
    for i, j in undotted:
        if (i in chosen) == (j in chosen):
            raise ValueError(f"{u.members} does not choose exactly one endpoint of arc ({i},{j})")
        if i in chosen:
            lefts += 1
    return lefts


@cache
def expand(m: DottedMatching) -> FormalSum:
    """The signed expansion L_M, a sum of 2^k undot sets with coefficients ±1."""
    _require_standard(m)
    terms = []
    for choice in itertools.product(*m.undotted_arcs):
        lefts = sum(1 for (i, _), v in zip(m.undotted_arcs, choice) if v == i)
        terms.append((UndotSet(m.n, choice), -1 if lefts % 2 else 1))
    return FormalSum(terms)


def permute_diagram(w: Permutation, v: FormalSum) -> FormalSum:
    """Relabel every strand of every diagram by w; coefficients unchanged."""
    return v.map_basis(
        lambda u: FormalSum.single(UndotSet(u.n, tuple(w(x) for x in u.members)))
    )


def _shift(x: int, i: int, j: int) -> int:
    """Old vertex x in 1..n renumbered in 1..n+2, with i and j left free."""
    return x + (x >= i) + (x >= j - 1)


def insert_arc(m: DottedMatching, position: tuple[int, int], dotted: bool) -> DottedMatching:
    """Insert a new arc at positions (i, j) of the enlarged vertex set 1..n+2.

    Old vertices keep their order; the result must be a valid standard
    matching or the insertion is rejected.
    """
    i, j = position
    if not 1 <= i < j <= m.n + 2:
        raise ValueError(f"insertion position ({i},{j}) out of range for n={m.n}")
    arcs = [(_shift(a, i, j), _shift(b, i, j)) for a, b in m.arcs] + [(i, j)]
    dots = {(_shift(a, i, j), _shift(b, i, j)) for a, b in m.dotted}
    if dotted:
        dots.add((i, j))
    inserted = DottedMatching.make(m.n + 2, arcs, dots)
    _require_standard(inserted)
    return inserted


def insert_arc_consistency(m: DottedMatching, position: tuple[int, int], dotted: bool) -> bool:
    """Does expanding after insertion agree with reindexing the expansion?

    Inserting a dotted arc reindexes every term; inserting an undotted arc
    (i, j) doubles the terms, +(old term with j added) - (old term with i
    added).  Compares that prediction with the direct expansion.
    """
    _require_standard(m)
    inserted = insert_arc(m, position, dotted)
    i, j = position
    predicted = []
    for u, coef in expand(m):
        shifted = tuple(_shift(x, i, j) for x in u.members)
        if dotted:
            predicted.append((UndotSet(inserted.n, shifted), coef))
        else:
            predicted.append((UndotSet(inserted.n, shifted + (j,)), coef))
            predicted.append((UndotSet(inserted.n, shifted + (i,)), -coef))
    return FormalSum(predicted) == expand(inserted)


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
