"""Two-row tabloids: the Specht module and the matching module coincide.

A tabloid of shape (n-k, k) is determined by its bottom-row set.  The
classical generators e_T are signed sums over the column group of a
standard tableau; the matching generators e_M are signed sums over the
group generated by the undotted arcs.  Relabelling line diagrams to
tabloids (undot set = bottom row) carries the expansion L_M to e_M, and
both generating sets span the same irreducible module in every degree —
that is the representation-theoretic content this package certifies.

No rank is computed.  The e_T are unitriangular in the undot-set order, so
independent; the e_M have pairwise distinct leading tabloids with
coefficient +-1, so independent too.  Each e_M peels to zero against the
e_T in integers, so span{e_M} lies in span{e_T}, and equal dimension makes
the spans equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .errors import VerificationError
from .exactlinalg import subtract_row
from .formal import FormalSum
from .linediagrams import expand
from .matchings import (
    DottedMatching,
    TwoRowTableau,
    check_partition,
    enumerate_standard,
    phi,
    subset_order_key,
    syt_count,
)
from .snaction import (
    character_table,
    class_characters,
    class_inner_product,
    irreducibility_check,
)


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
        return (self.n, len(self.bottom), subset_order_key(self.bottom))


def polytabloid(t: TwoRowTableau) -> FormalSum:
    """e_T: signed sum over the column group of the standard tableau T.

    The height-two columns pair the first k top entries with the bottom
    entries; each subset of columns swaps its pairs, signed by parity.
    """
    top = t.top
    columns = list(zip(top[: t.k], t.bottom))
    terms = []
    for swap in itertools.product((False, True), repeat=len(columns)):
        bottom = tuple(a if s else b for s, (a, b) in zip(swap, columns))
        terms.append((Tabloid(t.n, bottom), -1 if sum(swap) % 2 else 1))
    return FormalSum(terms)


def matching_generator(m: DottedMatching) -> FormalSum:
    """e_M: signed sum over the group generated by the undotted arcs of M.

    Each subset of undotted arcs acts on phi(M) by swapping its endpoints,
    signed by the subset's parity.
    """
    base = set(phi(m).bottom)
    arcs = m.undotted_arcs
    terms = []
    for swap in itertools.product((False, True), repeat=len(arcs)):
        bottom = set(base)
        for s, (i, j) in zip(swap, arcs):
            if s:
                # each (i j) moves the right endpoint j out of the bottom row
                bottom.remove(j)
                bottom.add(i)
        terms.append((Tabloid(m.n, tuple(bottom)), -1 if sum(swap) % 2 else 1))
    return FormalSum(terms)


def psi(v: FormalSum) -> FormalSum:
    """Relabel line diagrams to tabloids: the undot set becomes the bottom row."""
    return v.map_basis(lambda u: FormalSum.single(Tabloid(u.n, u.members)))


def standard_tableaux(n: int, k: int) -> list[TwoRowTableau]:
    return [phi(m) for m in enumerate_standard(n, k)]


def _keyed(v: FormalSum) -> dict[tuple[int, ...], int]:
    """A tabloid vector as an integer dict keyed by ``subset_order_key``."""
    return {subset_order_key(t.bottom): coef for t, coef in v}


def _polytabloid_vectors(n: int, k: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Every e_T of degree (n, k), keyed by its lead {T}, in tableau order.

    By the dominance lemma for polytabloids (Sagan, *The Symmetric Group*),
    each e_T has leading tabloid {T} in the undot-set order, coefficient 1;
    this is checked, so the e_T are independent and peel in integers.
    """
    vectors = {}
    for t in standard_tableaux(n, k):
        lead = subset_order_key(t.bottom)
        vector = _keyed(polytabloid(t))
        if vector.get(lead) != 1 or max(vector) != lead:
            raise VerificationError(
                "polytabloid is not unitriangular in the undot-set order",
                {"n": n, "k": k, "bottom": t.bottom},
            )
        vectors[lead] = vector
    return vectors


def _peel(vector: dict[tuple[int, ...], int], basis) -> dict[tuple[int, ...], int]:
    """Subtract multiples of the unitriangular ``basis`` (lead -> vector) from
    ``vector`` in place, largest lead first; returns the multiples.  What is
    left in ``vector`` is zero exactly when it lay in the span."""
    coords = {}
    while vector and (lead := max(vector)) in basis:
        coords[lead] = coef = vector[lead]
        subtract_row(vector, coef, basis[lead])
    return coords


def verify_module_equality(n: int, k: int) -> bool:
    """Certify span{e_T} = span{e_M}, both of the full dimension.

    The e_T are unitriangular and the e_M have distinct +-1 leads, so each
    family is independent; both have syt_count(n, k) members.  Every e_M
    peels to zero against the e_T, so containment and equal dimension give
    equality.  Also checks the shared pivot generator (the unnested matching
    with its undotted arcs on the left gives e_M = e_T on the nose), and
    that relabelling the expansion of each standard matching yields its
    generator.
    """
    e_t = _polytabloid_vectors(n, k)
    leads = set()
    for m in enumerate_standard(n, k):
        vector = _keyed(matching_generator(m))
        lead = max(vector, default=None)
        witness = {"n": n, "k": k, "arcs": m.arcs, "dotted": sorted(m.dotted)}
        if lead in leads or vector.get(lead) not in (1, -1):
            raise VerificationError(
                "matching generators do not have distinct leading tabloids with coefficient +-1",
                {**witness, "tabloid": sorted(lead or ())},
            )
        leads.add(lead)
        _peel(vector, e_t)
        if vector:
            raise VerificationError("matching generator is not in the Specht span",
                                    {**witness, "tabloid": sorted(max(vector))})
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
    if phi(witness_m) != witness_t or matching_generator(witness_m) != polytabloid(witness_t):
        raise VerificationError(
            "pivot generator mismatch", {"n": n, "k": k, "bottom": witness_t.bottom}
        )
    for m in enumerate_standard(n, k):
        if psi(expand(m)) != matching_generator(m):
            raise VerificationError(
                "relabelled expansion differs from matching generator",
                {"n": n, "k": k, "arcs": m.arcs, "dotted": sorted(m.dotted)},
            )
    return True


def emit_top_degree_basis(n: int) -> list[FormalSum]:
    """The e_M for the fully undotted matchings, in canonical order.

    The paper identifies this top-degree basis of the irreducible module for
    (n/2, n/2) with the Kazhdan-Lusztig basis.  That identification is not
    certified here (ROADMAP item 2): no canonical-basis computation happens,
    and the vectors are emitted for outside comparison.
    """
    if n < 0 or n % 2:
        raise ValueError(f"vertex count must be even and nonnegative, got {n}")
    return [matching_generator(m) for m in enumerate_standard(n, n // 2)]


@cache
def specht_characters(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Character of the S_n action restricted to span{e_T}, per cycle type.

    For each s_i, each s_i.e_T is peeled against the unitriangular e_T in
    integers: the multiples are its column of the matrix of s_i, and a
    nonzero rest (outside the span) is reported.  Invariance under every s_i
    is invariance under S_n; the characters come from the class-tree walk
    that the matching module uses.
    """
    vectors = _polytabloid_vectors(n, k)
    row = {lead: r for r, lead in enumerate(vectors)}
    columns = []
    for i in range(1, n):
        swap = {i: i + 1, i + 1: i}
        generator = []
        for lead, vector in vectors.items():
            image = {subset_order_key([swap.get(x, x) for x in b]): c for b, c in vector.items()}
            coords = _peel(image, vectors)
            if image:
                raise VerificationError(
                    "Specht span is not S_n-invariant",
                    {"n": n, "k": k, "i": i, "bottom": tuple(sorted(lead)),
                     "tabloid": sorted(max(image))},
                )
            generator.append(tuple((row[b], c) for b, c in coords.items()))
        columns.append(tuple(generator))
    return class_characters(n, tuple(columns), len(vectors))


def graded_decomposition(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Identify the irreducible carried by each homology degree.

    For each k the matching-module character must be irreducible and must
    pair to 1 with the Specht character of shape (n-k, k); the result lists
    (k, (n-k, k)) for k = 0..n/2.
    """
    if n < 0 or n % 2:
        raise ValueError(f"vertex count must be even and nonnegative, got {n}")
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
