"""Independent brute-force oracles used by the tests.

Everything here recomputes expected values from first principles — raw
enumeration, direct pattern filtering, fixed-point counting — without going
through the package's own shortcuts, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from springerrep import (
    DottedMatching,
    Tabloid,
    TwoRowTableau,
    UndotSet,
    act_permutation,
    expand,
    is_standard,
    phi,
)
from springerrep import snaction
from springerrep.errors import VerificationError
from springerrep.formal import FormalSum
from springerrep.matchings import (
    enumerate_noncrossing,
    enumerate_standard,
    partitions_of,
    subset_mask,
    subset_members,
)
from springerrep.perms import Permutation
from springerrep.rewriting import degree_generators, relation_vectors
from springerrep.snaction import class_representative
from springerrep.specht import standard_tableaux


def map_basis(v: FormalSum, f) -> FormalSum:
    """Linear extension of a basis map ``f: element -> FormalSum``."""
    return FormalSum((image, coef * c) for element, coef in v for image, c in f(element))


def perfect_matchings(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All (n-1)!! perfect matchings of {1..n} as sorted arc tuples."""
    if n == 0:
        return [()]
    out = []

    def rec(unmatched: tuple[int, ...], acc: tuple[tuple[int, int], ...]):
        if not unmatched:
            out.append(acc)
            return
        first, rest = unmatched[0], unmatched[1:]
        for idx, other in enumerate(rest):
            rec(rest[:idx] + rest[idx + 1:], acc + ((first, other),))

    rec(tuple(range(1, n + 1)), ())
    return out


def is_noncrossing(arcs) -> bool:
    return not any(
        (i < k < j < l) or (k < i < l < j)
        for (i, j), (k, l) in itertools.combinations(arcs, 2)
    )


def noncrossing_bruteforce(n: int) -> set[tuple[tuple[int, int], ...]]:
    return {m for m in perfect_matchings(n) if is_noncrossing(m)}


def standard_bruteforce(n: int, k: int) -> set[DottedMatching]:
    """All standard dotted matchings of degree k, by filtering everything."""
    out = set()
    for base in enumerate_noncrossing(n):
        for dots in itertools.combinations(base.arcs, n // 2 - k):
            m = DottedMatching(base, frozenset(dots))
            if is_standard(m):
                out.add(m)
    return out


def standard_bottoms_bruteforce(n: int, k: int) -> list[tuple[int, ...]]:
    """Bottom rows of standard (n-k, k) tableaux, straight from the definition:
    rows increase (automatic for sorted sets) and each column increases."""
    out = []
    for bottom in itertools.combinations(range(1, n + 1), k):
        top = [v for v in range(1, n + 1) if v not in bottom]
        if all(top[i] < bottom[i] for i in range(k)):
            out.append(bottom)
    return out


def kostka_bruteforce(mu, lam) -> int:
    """Count fillings of mu with lam_i copies of i, weakly increasing rows,
    strictly increasing columns, by trying every arrangement."""
    mu = tuple(p for p in mu if p)
    lam = tuple(p for p in lam if p)
    content = [value for value, count in enumerate(lam, start=1) for _ in range(count)]
    if sum(mu) != len(content):
        return 0
    count = 0
    for perm in set(itertools.permutations(content)):
        rows = []
        pos = 0
        for length in mu:
            rows.append(perm[pos:pos + length])
            pos += length
        if any(row[i] > row[i + 1] for row in rows for i in range(len(row) - 1)):
            continue
        if any(
            rows[r][c] >= rows[r + 1][c]
            for r in range(len(rows) - 1)
            for c in range(len(rows[r + 1]))
        ):
            continue
        count += 1
    return count


def fixed_subsets(w: Permutation, k: int) -> int:
    """Number of k-element subsets of {1..n} mapped to themselves by w."""
    return sum(
        1
        for s in itertools.combinations(range(1, w.n + 1), k)
        if set(w(x) for x in s) == set(s)
    )


def two_row_character_oracle(w: Permutation, k: int) -> int:
    """Character of the (n-k, k) irreducible at w, as a difference of
    permutation characters on subsets (Young's rule for two-row shapes)."""
    return fixed_subsets(w, k) - (fixed_subsets(w, k - 1) if k else 0)


def chart(i: int, m: DottedMatching) -> list[tuple[DottedMatching, int]]:
    """The four-case local rule for s_i on a standard matching, on objects:
    the reference for the code rule ``snaction._chart``."""
    arc_of = {v: arc for arc in m.arcs for v in arc}
    arc_left, arc_right = arc_of[i], arc_of[i + 1]
    if arc_left == arc_right:
        return [(m, 1 if m.is_dotted(arc_left) else -1)]
    if m.is_dotted(arc_left) and m.is_dotted(arc_right):
        return [(m, 1)]
    j = sum(arc_left) - i  # the partner of i
    k = sum(arc_right) - (i + 1)
    far_arc = (min(j, k), max(j, k))
    spectators = [a for a in m.arcs if a not in (arc_left, arc_right)]
    spectator_dots = [a for a in m.dotted if a not in (arc_left, arc_right)]
    one_dotted = m.is_dotted(arc_left) != m.is_dotted(arc_right)
    rewired = DottedMatching.make(
        m.n,
        spectators + [(i, i + 1), far_arc],
        spectator_dots + ([far_arc] if one_dotted else []),
    )
    return [(m, 1), (rewired, 1)]


def reduced_word_traces(n: int, columns, dim: int) -> dict[tuple[int, ...], int]:
    """Trace of every class on a representation of S_n given by sparse
    columns (``columns[i - 1][c]``: (row, coef) pairs of s_i on basis vector
    c), one class at a time: the bubble-sort reduced word of
    ``class_representative`` applied to each basis column, with no class
    tree and no shared work between classes."""
    out = {}
    for cycle_type in partitions_of(n):
        word = class_representative(n, cycle_type).reduced_word()
        trace = 0
        for c in range(dim):
            vec = {c: 1}
            for letter in reversed(word):
                image: dict[int, int] = {}
                for col, coef in vec.items():
                    for row, entry in columns[letter - 1][col]:
                        image[row] = image.get(row, 0) + coef * entry
                vec = image
            trace += vec.get(c, 0)
        out[cycle_type] = trace
    return out


def reduced_word_characters(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Trace of every class on degree (n, k), read off the chart tables by
    :func:`reduced_word_traces`."""
    tables = snaction._tables(n, k)
    return reduced_word_traces(n, tables.columns, len(tables.basis))


def conjugacy_class_size(n: int, cycle_type) -> int:
    """Number of permutations of {1..n} with the given cycle type, by counting."""
    wanted = tuple(sorted(cycle_type, reverse=True))
    return sum(
        1 for images in itertools.permutations(range(1, n + 1))
        if Permutation(images).cycle_type() == wanted
    )


def permutation_matrix(n: int, k: int, w: Permutation) -> list[list[int]]:
    """Matrix of w on the degree-(n, k) standard basis, one column per
    basis matching, read off the action on single matchings."""
    basis = enumerate_standard(n, k)
    columns = [act_permutation(w, FormalSum.single(m)) for m in basis]
    return [[column.coefficient(row) for column in columns] for row in basis]


def identity_matrix(size: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(size)] for i in range(size)]


def is_identity(rows) -> bool:
    return all(
        value == (1 if i == j else 0)
        for i, row in enumerate(rows)
        for j, value in enumerate(row)
    )


def mat_mul(a, b) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def tableau_from_obj(obj) -> TwoRowTableau:
    """Decode the tableau wire format ``{"n":6,"bottom":[3,6]}``."""
    bottom = obj["bottom"]
    if not isinstance(bottom, list) or not all(type(x) is int for x in bottom):
        raise ValueError("tableau: bottom must be a list of integers")
    return TwoRowTableau(obj["n"], tuple(bottom))


@dataclass(frozen=True)
class RewriteSite:
    """A relation instance inside a matching: arcs (i,l) over dotted (j,k)."""

    kind: str  # 'I' (outer arc undotted) or 'II' (outer arc dotted)
    i: int
    j: int
    k: int
    l: int

    def __post_init__(self):
        if self.kind not in ("I", "II"):
            raise ValueError(f"unknown site kind {self.kind!r}")
        if not self.i < self.j < self.k < self.l:
            raise ValueError(f"site vertices must increase: {(self.i, self.j, self.k, self.l)}")


def nesting_measure(m: DottedMatching) -> int:
    """Total number of (dotted arc, strictly enclosing arc) pairs."""
    return sum(len(m.matching.enclosers(arc)) for arc in m.dotted)


def find_sites(m: DottedMatching) -> list[RewriteSite]:
    """All rewritable positions: each nested dotted arc with its innermost
    enclosing arc.  Empty exactly when ``m`` is standard.

    Sites are ordered deepest-nested first, then leftmost; the package's
    kernel rewrites at the first one.
    """
    sites = []
    for inner in sorted(m.dotted):
        enclosing = m.matching.enclosers(inner)
        if not enclosing:
            continue
        outer = enclosing[-1]  # innermost encloser: the only rewirable partner
        kind = "II" if m.is_dotted(outer) else "I"
        sites.append((-len(enclosing), inner[0], RewriteSite(kind, outer[0], inner[0], inner[1], outer[1])))
    sites.sort(key=lambda entry: entry[:2])
    return [site for *_, site in sites]


def _site_arcs(m: DottedMatching, site: RewriteSite) -> tuple[tuple[int, int], tuple[int, int]]:
    outer, inner = (site.i, site.l), (site.j, site.k)
    if outer not in m.arcs or inner not in m.arcs:
        raise ValueError(f"site {site} does not name two arcs of the matching")
    if not m.is_dotted(inner):
        raise ValueError(f"inner arc {inner} is not dotted")
    if any(site.i < x < site.j and site.k < y < site.l for (x, y) in m.arcs):
        raise ValueError(f"an arc lies between {inner} and {outer}; site is not rewirable")
    return outer, inner


def _rewired(m: DottedMatching, site: RewriteSite, dotted_new: tuple[tuple[int, int], ...]) -> DottedMatching:
    outer, inner = (site.i, site.l), (site.j, site.k)
    arcs = [a for a in m.arcs if a not in (outer, inner)]
    spectator_dots = [a for a in m.dotted if a not in (outer, inner)]
    return DottedMatching.make(
        m.n, arcs + [(site.i, site.j), (site.k, site.l)], spectator_dots + list(dotted_new)
    )


def apply_type1(m: DottedMatching, site: RewriteSite) -> FormalSum:
    """Rewrite a dotted arc nested below an undotted one.

    Solving the Type I relation for the nested-dotted configuration gives
      - [same nest, dot moved to the outer arc]
      + [side by side, dot on (i,j)] + [side by side, dot on (k,l)].
    """
    if site.kind != "I":
        raise ValueError(f"site {site} is not a Type I site")
    outer, inner = _site_arcs(m, site)
    if m.is_dotted(outer):
        raise ValueError(f"outer arc {outer} must be undotted for a Type I rewrite")
    spectators = [a for a in m.dotted if a != inner]
    dot_on_outer = DottedMatching(m.matching, frozenset(spectators + [outer]))
    split_left = _rewired(m, site, ((site.i, site.j),))
    split_right = _rewired(m, site, ((site.k, site.l),))
    return FormalSum([(dot_on_outer, -1), (split_left, 1), (split_right, 1)])


def apply_type2(m: DottedMatching, site: RewriteSite) -> FormalSum:
    """Replace two nested dotted arcs by the side-by-side dotted pair."""
    if site.kind != "II":
        raise ValueError(f"site {site} is not a Type II site")
    outer, _ = _site_arcs(m, site)
    if not m.is_dotted(outer):
        raise ValueError(f"outer arc {outer} must be dotted for a Type II rewrite")
    return FormalSum.single(_rewired(m, site, ((site.i, site.j), (site.k, site.l))))


def apply_site(m: DottedMatching, site: RewriteSite) -> FormalSum:
    return apply_type2(m, site) if site.kind == "II" else apply_type1(m, site)


def reduce_picking(m: DottedMatching, pick) -> FormalSum:
    """Rewrite m to standard form, choosing each rewrite site with ``pick``
    from the sites ``find_sites`` lists; probes confluence."""
    sites = find_sites(m)
    if not sites:
        return FormalSum.single(m)
    site = pick(sites)
    return map_basis(apply_site(m, site), lambda term: reduce_picking(term, pick))


def subset_order_key(members) -> tuple[int, ...]:
    """The undot-set order on equal-size subsets of {1..n}, written out:
    subsets are compared from their largest element downward, and S < S'
    when at the first disagreement (scanning decreasingly) S has the smaller
    entry.  ``subset_mask`` must sort every k-subset the same way."""
    return tuple(sorted(members, reverse=True))


def compare_undot_sets(s, t) -> int:
    """-1/0/+1 under the largest-element-first order on equal-size subsets."""
    if len(s.members) != len(t.members):
        raise ValueError("cannot compare undot sets of different cardinality")
    a, b = subset_order_key(s.members), subset_order_key(t.members)
    return (a > b) - (a < b)


def negated_lead(rule):
    """A broken expansion rule: ``rule`` with the coefficient of its largest
    undot-set mask negated."""
    def broken(m: DottedMatching) -> dict[int, int]:
        terms = dict(rule(m))
        lead = max(terms)
        terms[lead] = -terms[lead]
        return terms
    return broken


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


def permute_diagram(w: Permutation, v: FormalSum) -> FormalSum:
    """Relabel every strand of every diagram by w; coefficients unchanged."""
    return map_basis(v, lambda u: FormalSum.single(UndotSet(u.n, tuple(w(x) for x in u.members))))


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


def permute_tabloids(w: Permutation, v: FormalSum) -> FormalSum:
    """The S_n action on tabloids: w relabels every entry."""
    return map_basis(v, lambda t: FormalSum.single(Tabloid(t.n, tuple(w(x) for x in t.bottom))))


def polytabloid_by_columns(t: TwoRowTableau) -> FormalSum:
    """e_T on objects: the signed sum over the column group of T.  The
    height-two columns pair the first k top entries with the bottom entries;
    each subset of columns swaps its pairs, signed by parity."""
    columns = list(zip(t.top[: t.k], t.bottom))
    terms = []
    for swap in itertools.product((False, True), repeat=len(columns)):
        bottom = tuple(a if s else b for s, (a, b) in zip(swap, columns))
        terms.append((Tabloid(t.n, bottom), -1 if sum(swap) % 2 else 1))
    return FormalSum(terms)


def generator_by_arc_swaps(m: DottedMatching) -> FormalSum:
    """e_M on objects: each subset of undotted arcs acts on phi(M) by moving
    the right endpoint j of each of its arcs (i, j) out of the bottom row
    and i in, signed by the subset's parity."""
    base = set(phi(m).bottom)
    terms = []
    for swap in itertools.product((False, True), repeat=len(m.undotted_arcs)):
        bottom = set(base)
        for s, (i, j) in zip(swap, m.undotted_arcs):
            if s:
                bottom.remove(j)
                bottom.add(i)
        terms.append((Tabloid(m.n, tuple(bottom)), -1 if sum(swap) % 2 else 1))
    return FormalSum(terms)


def peeled_specht_characters(n: int, k: int, polytabloid=polytabloid_by_columns):
    """Character of S_n on span{e_T}, from the matrices of the s_i: each
    s_i.e_T, by relabelling tabloids, is peeled against the e_T, which must
    be unitriangular in the undot-set order; a nonzero rest (outside the
    span) is reported."""
    tableaux = standard_tableaux(n, k)
    basis = [polytabloid(t) for t in tableaux]
    vectors = {}
    for t, e_t in zip(tableaux, basis):
        vector = {subset_mask(u.bottom): coef for u, coef in e_t}
        lead = max(vector)
        if lead != subset_mask(t.bottom) or vector[lead] != 1:
            raise ValueError(f"polytabloid of {t.bottom} is not unitriangular")
        vectors[lead] = vector
    row = {lead: r for r, lead in enumerate(vectors)}
    columns = []
    for i in range(1, n):
        generator = []
        for t, e_t in zip(tableaux, basis):
            moved = permute_tabloids(Permutation.simple(n, i), e_t)
            image = {subset_mask(u.bottom): coef for u, coef in moved}
            column = []
            while image and (top := max(image)) in vectors:
                coef = image[top]
                column.append((row[top], coef))
                for b, c in vectors[top].items():
                    image[b] = image.get(b, 0) - coef * c
                    if not image[b]:
                        del image[b]
            if image:
                raise VerificationError(
                    "Specht span is not S_n-invariant",
                    {"n": n, "k": k, "i": i, "bottom": t.bottom,
                     "tabloid": subset_members(max(image))},
                )
            generator.append(tuple(column))
        columns.append(tuple(generator))
    return reduced_word_traces(n, columns, len(vectors))


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Dense Gauss-Jordan over ``Fraction``: (nonzero rows, pivot columns);
    pivot entries are 1 and pivot columns are cleared above and below."""
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


def solve_in_span(basis, targets) -> list[list[Fraction]]:
    """Coordinates of each target row in the span of independent basis rows,
    by dense ``rref``; ValueError if the basis is dependent or a target lies
    outside its span."""
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


def rank(rows) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    (Bareiss) elimination: integer rows stay integer throughout."""
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


@cache
def tabloid_basis(n: int, k: int) -> tuple[Tabloid, ...]:
    """All tabloids of shape (n-k, k) in undot-set order."""
    sets = sorted(itertools.combinations(range(1, n + 1), k), key=subset_order_key)
    return tuple(Tabloid(n, b) for b in sets)


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
    """Rank of a family of tabloid vectors over all C(n, k) tabloid columns,
    by dense ``rank``: the reference for the peeling certificate."""
    vectors = list(vectors)
    if not vectors:
        return 0
    n, k = _degree_of(vectors)
    return rank(_coordinate_rows(vectors, n, k))


def dense_quotient_table(n: int, k: int) -> dict[DottedMatching, FormalSum]:
    """Normal form of every degree-k generator: dense ``rref`` of the relation
    matrix with the standard matchings as its last columns."""
    generators = degree_generators(n, k)
    standard = [g for g in generators if is_standard(g)]
    columns = [g for g in generators if not is_standard(g)] + standard
    index = {g: c for c, g in enumerate(columns)}
    rows = []
    for relation in relation_vectors(n, k):
        row = [0] * len(columns)
        for term, coef in relation:
            row[index[term]] = coef
        rows.append(row)
    reduced, pivots = rref(rows)
    table = {m: FormalSum.single(m) for m in standard}
    for row, pivot in zip(reduced, pivots):
        if columns[pivot] in table:
            raise ValueError("standard matchings are dependent modulo the relations")
        terms = [(columns[c], -row[c]) for c in range(len(columns)) if c != pivot and row[c]]
        if any(x.denominator != 1 for _, x in terms):
            raise ValueError("non-integer coordinate")
        table[columns[pivot]] = FormalSum((g, int(x)) for g, x in terms)
    return table


def dense_specht_characters(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Trace of each class representative on span{e_T}, from the coordinates
    that ``solve_in_span`` gives for every permuted e_T."""
    position = {t: c for c, t in enumerate(tabloid_basis(n, k))}

    def row(v: FormalSum) -> list[int]:
        out = [0] * len(position)
        for t, coef in v:
            out[position[t]] = coef
        return out

    basis = [polytabloid_by_columns(t) for t in standard_tableaux(n, k)]
    out = {}
    for cycle_type in partitions_of(n):
        w = class_representative(n, cycle_type)
        coords = solve_in_span([row(v) for v in basis],
                               [row(permute_tabloids(w, v)) for v in basis])
        trace = sum(coords[c][c] for c in range(len(basis)))
        if trace.denominator != 1:
            raise ValueError(f"non-integer trace {trace}")
        out[cycle_type] = int(trace)
    return out
