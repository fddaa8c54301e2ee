"""Signed line-diagram expansions of standard dotted matchings.

A line diagram on n strands is determined by its undot set: the positions
of the undotted strands.  A standard matching M with k undotted arcs
expands into the sum L_M of 2^k diagrams, one for each choice of a single
endpoint per undotted arc, signed by the parity of how many left endpoints
were chosen.  With the sign (-1)^(sum of the right endpoints) it is E, the
homology image of any dotted matching under the component-wise antipodal
embedding, here :func:`antipodal_image`.  The choose-the-right-endpoint term
always carries coefficient +1 — which makes the expansion matrix row-echelon
once rows and columns are sorted by the undot-set order.  The certificates
read matchings as codes and hold undot sets as bitmasks (strand x at bit
x-1), on which that order is integer order (:func:`~springerrep.codes.subset_mask`).

A line diagram is its undot-set mask; only :func:`springerrep.matchings.expand`
decodes it to the :class:`~springerrep.matchings.Tabloid` whose bottom row is
the undot set: the paper's relabelling of line diagrams to tabloids is the identity.
"""

from __future__ import annotations

from collections.abc import Iterable

from .codes import code_undotted, decode, nesting, pair_product, standard_codes, undot_mask


def code_expansion_masks(opens: int, dots: int) -> dict[int, int]:
    """L_M as {undot-set mask: ±1}, strand x at bit x-1, for the matching with
    code ``(opens, dots)``: the expansion rule, the product over undotted arcs
    (i, j) of (l_j - l_i), multiplied out by :func:`~springerrep.codes.pair_product`."""
    return pair_product(code_undotted(opens, dots))


def antipodal_image(n: int, terms: Iterable[tuple[tuple[int, int], int]]) -> dict[int, int]:
    """E of ``((opens, dots), coef)`` terms, as {undot-set mask: coef}: each L_M
    times -1 to the number of undotted arcs that open at an even vertex."""
    even = (1 << n) // 3 << 1  # the bits of vertices 2, 4, ..., n
    out: dict[int, int] = {}
    for (opens, dots), coef in terms:
        sign = (-1) ** (opens & ~dots & even).bit_count()
        for mask, x in code_expansion_masks(opens, dots).items():
            out[mask] = out.get(mask, 0) + sign * coef * x
    return {mask: x for mask, x in out.items() if x}


def expand_code(opens: int, dots: int) -> dict[int, int]:
    """L_M of a code, as :func:`code_expansion_masks`; ValueError unless M is standard."""
    if nesting(opens, dots):
        matching = decode(opens, dots)
        raise ValueError(f"matching {matching['arcs']} with dots {matching['dotted']} is not standard")
    return code_expansion_masks(opens, dots)


def echelon_certificate(n: int, k: int) -> bool:
    """Is the matrix of M -> L_M in row-echelon form with pivots +1?

    Rows are the standard matching codes in canonical order and columns the
    undot-set masks, which on k-subsets are in undot-set order as integers.
    Each row must lead (its largest mask) with coefficient +1 at the mask of
    its own undot set U_M, and the leads must increase strictly down the rows.
    """
    previous = -1
    for code in standard_codes(n, k):
        row = code_expansion_masks(*code)
        lead = max(row, default=None)
        if lead != undot_mask(*code) or row[lead] != 1 or lead <= previous:
            return False
        previous = lead
    return True
