"""Two-row tabloids: the Specht module and the matching module coincide.

A tabloid of shape (n-k, k) is determined by its bottom-row set.  The
classical generators e_T are signed sums over the column group of a
standard tableau; the matching generators e_M are signed sums over the
group generated by the undotted arcs.  Relabelling line diagrams to
tabloids (undot set = bottom row) carries the expansion L_M to e_M, and
both generating sets span the same irreducible module in every degree —
that is the representation-theoretic content this package certifies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .errors import VerificationError
from .exactlinalg import rank, subtract_row
from .formal import FormalSum
from .linediagrams import expand
from .matchings import (
    DottedMatching,
    TwoRowTableau,
    check_partition,
    enumerate_standard,
    partitions_of,
    phi,
    subset_order_key,
    syt_count,
)
from .snaction import (
    character_table,
    class_inner_product,
    class_representative,
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


@cache
def tabloid_basis(n: int, k: int) -> tuple[Tabloid, ...]:
    """All tabloids of shape (n-k, k) in undot-set order."""
    sets = sorted(itertools.combinations(range(1, n + 1), k), key=subset_order_key)
    return tuple(Tabloid(n, b) for b in sets)


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


def _degree_of(vectors) -> tuple[int, int]:
    degrees = {(t.n, len(t.bottom)) for v in vectors for t, _ in v}
    if len(degrees) != 1:
        raise ValueError(f"vectors are not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop()


def _coordinate_rows(vectors, n: int, k: int) -> list[list[int]]:
    index = {t: c for c, t in enumerate(tabloid_basis(n, k))}
    rows = []
    for v in vectors:
        row = [0] * len(index)
        for t, coef in v:
            row[index[t]] = coef
        rows.append(row)
    return rows


def span_rank(vectors) -> int:
    """Rank of a family of tabloid vectors, by fraction-free elimination."""
    vectors = list(vectors)
    if not vectors:
        return 0
    n, k = _degree_of(vectors)
    return rank(_coordinate_rows(vectors, n, k))


def standard_tableaux(n: int, k: int) -> list[TwoRowTableau]:
    return [phi(m) for m in enumerate_standard(n, k)]


def verify_module_equality(n: int, k: int) -> bool:
    """Certify span{e_T} = span{e_M}, both of the full dimension.

    Checks the three ranks, the shared pivot generator (the unnested
    matching with its undotted arcs on the left gives e_M = e_T on the
    nose), and that relabelling the expansion of each standard matching
    yields its generator.
    """
    e_t = [polytabloid(t) for t in standard_tableaux(n, k)]
    e_m = [matching_generator(m) for m in enumerate_standard(n, k)]
    expected = syt_count(n, k)
    ranks = (span_rank(e_t), span_rank(e_m), span_rank(e_t + e_m))
    if ranks != (expected, expected, expected):
        raise VerificationError(
            "rank mismatch between Specht and matching modules",
            {"n": n, "k": k, "ranks": ranks, "expected": expected},
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

    In top degree this is the geometric (Kazhdan-Lusztig) basis of the
    irreducible module for (n/2, n/2); the vectors are emitted for outside
    comparison, no canonical-basis computation happens here.
    """
    if n < 0 or n % 2:
        raise ValueError(f"vertex count must be even and nonnegative, got {n}")
    return [matching_generator(m) for m in enumerate_standard(n, n // 2)]


@cache
def specht_characters(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Character of the S_n action restricted to span{e_T}, per cycle type.

    By the dominance lemma for polytabloids (Sagan, *The Symmetric Group*),
    each e_T has leading tabloid {T} in the undot-set order, coefficient 1;
    this is checked.  Each w.e_T is peeled in integers from the largest
    leading tabloid down: the multiples are its coordinates, the trace sums
    the diagonal ones, and a nonzero rest (outside the span) is reported.
    """
    tableaux = standard_tableaux(n, k)
    leads = [subset_order_key(t.bottom) for t in tableaux]
    vectors = []
    for t, lead in zip(tableaux, leads):
        vector = {subset_order_key(tab.bottom): coef for tab, coef in polytabloid(t)}
        if vector.get(lead) != 1 or max(vector) != lead:
            raise VerificationError(
                "polytabloid is not unitriangular in the undot-set order",
                {"n": n, "k": k, "bottom": t.bottom},
            )
        vectors.append(vector)
    order = sorted(range(len(leads)), key=leads.__getitem__, reverse=True)
    out = {}
    for cycle_type in partitions_of(n):
        images = (0,) + class_representative(n, cycle_type).images
        trace = 0
        for i, vector in enumerate(vectors):
            image = {subset_order_key([images[x] for x in b]): coef for b, coef in vector.items()}
            for j in order:
                coef = image.get(leads[j])
                if coef:
                    if j == i:
                        trace += coef
                    subtract_row(image, coef, vectors[j])
            if image:
                raise VerificationError(
                    "Specht span is not S_n-invariant",
                    {"n": n, "k": k, "type": cycle_type, "bottom": tableaux[i].bottom,
                     "tabloid": sorted(max(image))},
                )
        out[cycle_type] = trace
    return out


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
