"""Signed line-diagram expansions of standard dotted matchings.

A line diagram on n strands is determined by its undot set: the positions
of the undotted strands.  A standard matching M with k undotted arcs
expands into the sum L_M of 2^k diagrams, one for each choice of a single
endpoint per undotted arc, signed by the parity of how many left endpoints
were chosen.  This expansion is the homology image of the matching under
the component-wise antipodal embedding, and the choose-the-right-endpoint
term always carries coefficient +1 — which makes the expansion matrix
row-echelon once rows and columns are sorted by the undot-set order.  The
certificates hold undot sets as bitmasks (strand x at bit x-1), on which
that order is integer order (:func:`~springerrep.matchings.subset_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .formal import FormalSum
from .matchings import DottedMatching, enumerate_standard, is_standard, subset_mask, subset_members


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
        return (self.n, len(self.members), subset_mask(self.members))


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


def expand(m: DottedMatching) -> FormalSum:
    """The signed expansion L_M, a sum of 2^k undot sets with coefficients ±1."""
    _require_standard(m)
    return FormalSum(
        (UndotSet(m.n, subset_members(mask)), coef) for mask, coef in expansion_masks(m).items()
    )


def _swap_strands(mask: int, i: int) -> int:
    """s_i on a subset mask, strand x at bit x-1: exchange strands i and i+1
    of a line diagram, or entries i and i+1 of a tabloid's bottom row."""
    pair = 0b11 << (i - 1)
    both = mask & pair
    return mask ^ pair if both and both != pair else mask


def echelon_certificate(n: int, k: int) -> bool:
    """Is the matrix of M -> L_M in row-echelon form with pivots +1?

    Rows are the standard matchings in canonical order and columns the
    undot-set masks, which on k-subsets are in undot-set order as integers.
    Each row must lead (its largest mask) with coefficient +1 at the mask of
    its own undot set U_M, and the leads must increase strictly down the rows.
    """
    previous = -1
    for m in enumerate_standard(n, k):
        row = expansion_masks(m)
        lead = max(row)
        if lead != subset_mask(m.right_undotted()) or row[lead] != 1 or lead <= previous:
            return False
        previous = lead
    return True
