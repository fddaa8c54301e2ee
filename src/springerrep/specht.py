"""Two-row tabloids: the Specht module and the matching module coincide.

A tabloid of shape (n-k, k) is determined by its bottom-row set.  The
classical generators e_T are signed sums over the column group of a
standard tableau; the matching generators e_M are signed sums over the
group generated by the undotted arcs.  Relabelling line diagrams to
tabloids (undot set = bottom row) carries the expansion L_M to e_M, and
both generating sets span the same irreducible module in every degree —
that is the representation-theoretic content this package certifies.

The certificates build e_T and e_M directly as ``{bottom-row mask: +-1}``
(entry x at bit x-1) and never construct a tabloid.  ``expansion_masks``
keys undot sets the same way, so psi is the identity on masks, and integer
order on masks is the undot-set order
(:func:`~springerrep.matchings.subset_mask`).  :func:`polytabloid` and
:func:`matching_generator` decode the masks to :class:`Tabloid` sums for
output, as ``expand`` does over ``expansion_masks``.

No rank is computed.  The e_T are unitriangular in the undot-set order, so
independent; the e_M have pairwise distinct leading tabloids with
coefficient +-1, so independent too.  Each e_M peels to zero against the
e_T in integers, so span{e_M} lies in span{e_T}, and equal dimension makes
the spans equal.  The Specht characters come from Young's rule, not from
the action: no code is shared with the matching-module characters they
are paired with.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import VerificationError
from .exactlinalg import subtract_row
from .formal import FormalSum
from .linediagrams import expansion_masks
from .matchings import (
    DottedMatching,
    TwoRowTableau,
    _check_even,
    check_partition,
    enumerate_standard,
    partitions_of,
    phi,
    subset_mask,
    subset_members,
    syt_count,
)
from .snaction import character_table, class_inner_product, irreducibility_check


@dataclass(frozen=True)
class Tabloid:
    """A two-row tabloid, identified by its bottom-row set."""

    n: int
    bottom: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bottom", tuple(sorted(self.bottom)))
        if len(set(self.bottom)) != len(self.bottom):
            raise ValueError(f"repeated entry in bottom row {self.bottom}")
        if any(v < 1 or v > self.n for v in self.bottom):
            raise ValueError(f"entry out of range 1..{self.n} in {self.bottom}")
        if 2 * len(self.bottom) > self.n:
            raise ValueError(f"bottom row {self.bottom} longer than half of {self.n}")

    def sort_key(self):
        return (self.n, len(self.bottom), subset_mask(self.bottom))


def polytabloid_masks(t: TwoRowTableau) -> dict[int, int]:
    """e_T as {bottom-row mask: +-1}: the signed sum over the column group of
    the standard tableau T, the product over its height-two columns
    (top_c, bottom_c) of (bit(bottom_c) - bit(top_c)), multiplied out."""
    terms = {0: 1}
    for top, bottom in zip(t.top, t.bottom):
        terms = {
            mask | bit: sign * coef
            for mask, coef in terms.items()
            for bit, sign in ((1 << (bottom - 1), 1), (1 << (top - 1), -1))
        }
    return terms


def matching_generator_masks(m: DottedMatching) -> dict[int, int]:
    """e_M as {bottom-row mask: +-1}: the signed sum over the group generated
    by the undotted arcs of M, each transposition (i j) acting on the bottom
    row of phi(M) by exchanging i and j, signed by the subset's parity."""
    terms = {subset_mask(phi(m).bottom): 1}
    for i, j in m.undotted_arcs:
        pair = 1 << (i - 1) | 1 << (j - 1)
        acc: dict[int, int] = {}
        for mask, coef in terms.items():
            both = mask & pair
            swapped = mask ^ pair if both and both != pair else mask
            for image, c in ((mask, coef), (swapped, -coef)):
                acc[image] = acc.get(image, 0) + c
        terms = {mask: coef for mask, coef in acc.items() if coef}
    return terms


def _tabloids(n: int, masks: dict[int, int]) -> FormalSum:
    return FormalSum((Tabloid(n, subset_members(mask)), coef) for mask, coef in masks.items())


def polytabloid(t: TwoRowTableau) -> FormalSum:
    """e_T as a sum of tabloids, decoded from :func:`polytabloid_masks`."""
    return _tabloids(t.n, polytabloid_masks(t))


def matching_generator(m: DottedMatching) -> FormalSum:
    """e_M as a sum of tabloids, decoded from :func:`matching_generator_masks`."""
    return _tabloids(m.n, matching_generator_masks(m))


def psi(v: FormalSum) -> FormalSum:
    """Relabel line diagrams to tabloids: the undot set becomes the bottom row."""
    return FormalSum((Tabloid(u.n, u.members), coef) for u, coef in v)


def standard_tableaux(n: int, k: int) -> list[TwoRowTableau]:
    return [phi(m) for m in enumerate_standard(n, k)]


def _polytabloid_vectors(n: int, k: int) -> dict[int, dict[int, int]]:
    """Every e_T of degree (n, k), keyed by its lead {T}, in tableau order.

    By the dominance lemma for polytabloids (Sagan, *The Symmetric Group*),
    each e_T has leading tabloid {T} in the undot-set order, coefficient 1;
    this is checked, so the e_T are independent and peel in integers.
    """
    vectors = {}
    for t in standard_tableaux(n, k):
        lead = subset_mask(t.bottom)
        vector = polytabloid_masks(t)
        if vector.get(lead) != 1 or max(vector) != lead:
            raise VerificationError(
                "polytabloid is not unitriangular in the undot-set order",
                {"n": n, "k": k, "bottom": t.bottom},
            )
        vectors[lead] = vector
    return vectors


def _peel(vector: dict[int, int], basis) -> None:
    """Subtract multiples of the unitriangular ``basis`` (lead -> vector) from
    ``vector`` in place, largest lead first.  What is left in ``vector`` is
    zero exactly when it lay in the span."""
    while vector and (lead := max(vector)) in basis:
        subtract_row(vector, vector[lead], basis[lead])


def verify_module_equality(n: int, k: int) -> bool:
    """Certify span{e_T} = span{e_M}, both of the full dimension.

    The e_T are unitriangular and the e_M have distinct +-1 leads, so each
    family is independent; both have syt_count(n, k) members.  Every e_M
    peels to zero against the e_T, so containment and equal dimension give
    equality.  Also checks that relabelling the expansion of each standard
    matching yields its generator (on masks, ``expansion_masks(M) == e_M``),
    and the shared pivot generator (the unnested matching with its undotted
    arcs on the left gives e_M = e_T on the nose).
    """
    e_t = _polytabloid_vectors(n, k)
    leads = set()
    for m in enumerate_standard(n, k):
        vector = matching_generator_masks(m)
        lead = max(vector, default=None)
        witness = {"n": n, "k": k, "arcs": m.arcs, "dotted": sorted(m.dotted)}
        if lead in leads or vector.get(lead) not in (1, -1):
            raise VerificationError(
                "matching generators do not have distinct leading tabloids with coefficient +-1",
                {**witness, "tabloid": subset_members(lead or 0)},
            )
        leads.add(lead)
        if expansion_masks(m) != vector:
            raise VerificationError("relabelled expansion differs from matching generator", witness)
        _peel(vector, e_t)
        if vector:
            raise VerificationError("matching generator is not in the Specht span",
                                    {**witness, "tabloid": subset_members(max(vector))})
    expected = syt_count(n, k)
    if (len(e_t), len(leads)) != (expected, expected):
        raise VerificationError(
            "dimension mismatch between Specht and matching modules",
            {"n": n, "k": k, "specht": len(e_t), "matching": len(leads), "expected": expected},
        )
    witness_m = DottedMatching.make(
        n,
        [(2 * c - 1, 2 * c) for c in range(1, n // 2 + 1)],
        [(2 * c - 1, 2 * c) for c in range(k + 1, n // 2 + 1)],
    )
    witness_t = TwoRowTableau(n, tuple(range(2, 2 * k + 1, 2)))
    if (phi(witness_m) != witness_t
            or matching_generator_masks(witness_m) != polytabloid_masks(witness_t)):
        raise VerificationError(
            "pivot generator mismatch", {"n": n, "k": k, "bottom": witness_t.bottom}
        )
    return True


def emit_top_degree_basis(n: int) -> list[FormalSum]:
    """The e_M for the fully undotted matchings, in canonical order.

    The paper identifies this top-degree basis of the irreducible module for
    (n/2, n/2) with the Kazhdan-Lusztig basis.  That identification is not
    certified here (ROADMAP item 4): no canonical-basis computation happens,
    and the vectors are emitted for outside comparison.
    """
    _check_even(n)
    return [matching_generator(m) for m in enumerate_standard(n, n // 2)]


def specht_characters(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Character of the Specht module of shape (n-k, k), per cycle type.

    Young's rule for two-row shapes (James, *The Representation Theory of the
    Symmetric Groups*; Sagan, *The Symmetric Group*): chi = pi_k - pi_{k-1},
    where pi_j(sigma) counts the j-subsets of {1..n} that are unions of
    cycles of sigma, a subset-sum count over the cycle type.  The formula
    alone gives a virtual character off the two-row shapes, so n must be
    even and 0 <= k <= n/2, as for the matching basis.
    """
    _check_even(n)
    if not 0 <= k <= n // 2:
        raise ValueError(f"k={k} out of range for n={n}")
    out = {}
    for parts in partitions_of(n):
        unions = [1] + [0] * k  # unions[j]: j-subsets that are unions of the cycles so far
        for part in parts:
            for j in range(k, part - 1, -1):
                unions[j] += unions[j - part]
        out[parts] = unions[k] - (unions[k - 1] if k else 0)
    return out


def graded_decomposition(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Identify the irreducible carried by each homology degree.

    For each k the matching-module character must be irreducible and must
    pair to 1 with the Specht character of shape (n-k, k); the result lists
    (k, (n-k, k)) for k = 0..n/2.
    """
    _check_even(n)
    out = []
    for k in range(n // 2 + 1):
        if irreducibility_check(n, k) != 1:
            raise VerificationError("degree is not irreducible", {"n": n, "k": k})
        pairing = class_inner_product(character_table(n, k), specht_characters(n, k))
        if pairing != 1:
            raise VerificationError(
                "degree does not pair to 1 with its Specht module",
                {"n": n, "k": k, "pairing": str(pairing)},
            )
        out.append((k, check_partition((n - k, k))))
    return out
