"""Independent brute-force oracles used by the tests, and the few helpers
they share (``m_``, ``single``, ``cap_memory``, ``standard_tableaux``).

Everything here recomputes expected values from first principles — raw
enumeration, direct pattern filtering, fixed-point counting — without going
through the package's own shortcuts, so agreement is meaningful.  The one
exception is :func:`encoded_tables`, which builds slot arrays through the
package encoder so that the property tests drive the code the tables use.
"""

from __future__ import annotations

import itertools
import resource
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from springerrep import (
    DottedMatching,
    NoncrossingMatching,
    Tabloid,
    TwoRowTableau,
    act_permutation,
    expand,
    phi,
)
from springerrep import rewriting as rw
from springerrep import snaction
from springerrep.errors import VerificationError
from springerrep.formal import FormalSum
from springerrep.linediagrams import code_expansion_masks
from springerrep.codes import (
    partitions_of,
    standard_bottom_sets,
    subset_mask,
    subset_members,
    syt_count,
    transpose_mask,
)
from springerrep.matchings import (
    encode,
    enumerate_noncrossing,
    enumerate_standard,
)
from springerrep.perms import Permutation


def m_(n, arcs, dotted=()) -> DottedMatching:
    return DottedMatching.make(n, arcs, dotted)


def single(m) -> FormalSum:
    return FormalSum({m: 1})


def cap_memory() -> None:
    """Cap a subprocess's address space at 1 GB: a missing bound or check must
    fail fast, not exhaust the machine."""
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def standard_tableaux(n: int, k: int) -> list[TwoRowTableau]:
    """The standard (n-k, k) tableaux, in undot-set order of their bottom rows."""
    return [TwoRowTableau(n, b) for b in standard_bottom_sets(n, k)]


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


def partners_by_stack(n: int, opens: int) -> list[int]:
    """The partner array of a Dyck word by a stack scan of its bits: bit v is
    joined to bit partner[v]."""
    stack, partner = [], [0] * n
    for v in range(n):
        if opens >> v & 1:
            stack.append(v)
        else:
            partner[v] = u = stack.pop()
            partner[u] = v
    return partner


def enclosers(m: NoncrossingMatching, arc: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """Arcs of ``m`` strictly enclosing ``arc``, innermost last."""
    i, j = arc
    return tuple(sorted((x, y) for (x, y) in m.arcs if x < i and j < y))


def standard_by_enclosers(m: DottedMatching) -> bool:
    """The definition of standard, on arc sets: no dotted arc has an
    encloser.  The reference for ``matchings.is_standard``, which reads the
    nesting measure of the code."""
    return all(not enclosers(m, arc) for arc in m.dotted)


def theta_by_sets(t: TwoRowTableau) -> DottedMatching:
    """theta on vertex sets, the reference for ``codes.theta_code``:
    bottom-row entries are matched left to right, each to the nearest
    unmatched vertex on its left, by undotted arcs; what remains is swept up
    into dotted arcs between neighbouring unmatched vertices."""
    unmatched = set(range(1, t.n + 1))
    undotted = []
    for j in t.bottom:
        i = max(v for v in unmatched if v < j)
        undotted.append((i, j))
        unmatched -= {i, j}
    dotted = []
    while unmatched:
        i = min(unmatched)
        j = min(v for v in unmatched if v > i)
        dotted.append((i, j))
        unmatched -= {i, j}
    return DottedMatching.make(t.n, undotted + dotted, dotted)


def standard_bruteforce(n: int, k: int) -> set[DottedMatching]:
    """All standard dotted matchings of degree k, by filtering everything."""
    out = set()
    for base in enumerate_noncrossing(n):
        for dots in itertools.combinations(base.arcs, n // 2 - k):
            m = DottedMatching(base.n, base.arcs, frozenset(dots))
            if standard_by_enclosers(m):
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
        return [(m, 1 if arc_left in m.dotted else -1)]
    if arc_left in m.dotted and arc_right in m.dotted:
        return [(m, 1)]
    j = sum(arc_left) - i  # the partner of i
    k = sum(arc_right) - (i + 1)
    far_arc = (min(j, k), max(j, k))
    spectators = [a for a in m.arcs if a not in (arc_left, arc_right)]
    spectator_dots = [a for a in m.dotted if a not in (arc_left, arc_right)]
    one_dotted = (arc_left in m.dotted) != (arc_right in m.dotted)
    rewired = DottedMatching.make(
        m.n,
        spectators + [(i, i + 1), far_arc],
        spectator_dots + ([far_arc] if one_dotted else []),
    )
    return [(m, 1), (rewired, 1)]


def class_representative(n: int, cycle_type) -> Permutation:
    """Cycles on consecutive blocks: type (3,2) gives (1 2 3)(4 5)."""
    images = list(range(1, n + 1))
    start = 1
    for part in snaction._cycle_type(n, cycle_type):
        for x in range(start, start + part - 1):
            images[x - 1] = x + 1
        images[start + part - 2] = start
        start += part
    return Permutation(tuple(images))


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
    return reduced_word_traces(n, chart_columns(tables), len(tables.codes))


def sparse_columns(generator) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The sparse (row, coefficient) columns of a ``snaction._Generator``,
    read slot by slot from its layers: slot r below the dimension is the
    entry (r, 1), slot dim no term, and slot dim + 1 + j the j-th entry
    whose coefficient is not 1.  A slot out of range, or such an entry not
    used exactly once in column order, is refused."""
    dim = len(generator.layers[0])
    targets = [(r, 1) for r in range(dim)] + [None] + list(zip(generator.rows, generator.coefs))
    columns, extras = [], []
    for c in range(dim):
        slots = [layer[c] for layer in generator.layers]
        if not all(0 <= slot < len(targets) for slot in slots):
            raise ValueError(f"slot out of range in column {c}: {slots}")
        extras += [slot for slot in slots if slot > dim]
        columns.append(tuple(targets[slot] for slot in slots if slot != dim))
    if extras != list(range(dim + 1, len(targets))):
        raise ValueError(f"extra slots {extras} are not each used once in order")
    return tuple(columns)


def chart_columns(tables):
    """Sparse columns of every generator of a table, ``[i - 1][c]`` the
    image of basis vector c under s_i."""
    return tuple(sparse_columns(g) for g in tables.generators)


def encoded_tables(n: int, generators):
    """A ``snaction._Tables`` on n strands whose s_i has the sparse columns
    ``generators[i - 1]``, each written by the package encoder
    ``snaction._encode``; its codes are placeholders, one per column."""
    dim = len(generators[0]) if generators else 0
    return snaction._Tables(n, (None,) * dim, {}, tuple(snaction._encode(dim, g) for g in generators))


def column_product(left, right):
    """Sparse columns of the matrix product left * right, each sorted by row
    with zeros dropped; columns are tuples of (row, coefficient) pairs."""
    out = []
    for column in right:
        acc: dict[int, int] = {}
        for c, coef in column:
            for r, entry in left[c]:
                acc[r] = acc.get(r, 0) + coef * entry
        out.append(tuple(sorted((r, coef) for r, coef in acc.items() if coef)))
    return tuple(out)


def unpack_columns(packed, w: int, dim: int):
    """Sparse columns of a dim-row matrix packed one integer per column, digit
    r the entry of row r in balanced w-bit digits, |digit| < 2^(w-1).  The
    lowest nonzero digit is the one whose w-bit slot holds the lowest set bit.
    Whatever is left past the last row is returned as one more entry."""
    half = 1 << w - 1
    columns = []
    for x in packed:
        column = []
        while x:
            r = ((x & -x).bit_length() - 1) // w
            if r >= dim:
                column.append((r, x))
                break
            digit = ((x >> w * r) + half & 2 * half - 1) - half
            column.append((r, digit))
            x -= digit << w * r
        columns.append(tuple(column))
    return tuple(columns)


def consistency_failure(n: int, k: int) -> tuple[int, int] | None:
    """The least basis index c, then the least i, at which column c of
    E * s_i differs from column c of P_i * E, or None: E * s_i summed over
    the chart columns on {undot mask: coefficient} dicts from
    ``code_expansion_masks``, and P_i * E by ``transpose_mask`` on those dicts."""
    tables = snaction._tables(n, k)
    expansions = [code_expansion_masks(*code) for code in tables.codes]
    failures = []
    for i, generator in enumerate(chart_columns(tables), 1):
        for c, column in enumerate(generator):
            image: dict[int, int] = {}
            for r, entry in column:
                for u, coef in expansions[r].items():
                    image[u] = image.get(u, 0) + entry * coef
            swapped = {transpose_mask(u, 0b11 << (i - 1)): coef for u, coef in expansions[c].items()}
            if {u: coef for u, coef in image.items() if coef} != swapped:
                failures.append((c, i))
    return min(failures, default=None)


def walked_characters(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Trace of every class on degree (n, k) from one walk of ``class_tree``
    per basis column on dict vectors: each tree edge applies its letter on
    the left, s * parent, to the parent's vector."""
    tables = snaction._tables(n, k)
    columns = chart_columns(tables)
    tree = snaction.class_tree(n)
    traces = dict.fromkeys((parts for parts, _, _ in tree), 0)
    for c in range(len(tables.codes)):
        vectors = {}
        for parts, parent, letter in tree:
            if parent is None:
                vec = {c: 1}
            else:
                vec = {}
                for col, coef in vectors[parent].items():
                    for row, entry in columns[letter - 1][col]:
                        vec[row] = vec.get(row, 0) + coef * entry
                vec = {row: coef for row, coef in vec.items() if coef}
            vectors[parts] = vec
            traces[parts] += vec.get(c, 0)
    return traces


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
    columns = [act_permutation(w, FormalSum({m: 1})) for m in basis]
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


def is_pair_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in value)


def matching_from_obj(obj) -> DottedMatching:
    """Decode the matching wire format from its definition, without the package's
    decoder: an int n, arcs that are int pairs forming a perfect noncrossing
    matching of 1..n, and optional dotted pairs, each an arc; pairs may come in
    either order.  Anything else is refused with a ValueError."""
    if not isinstance(obj, dict) or "n" not in obj or "arcs" not in obj:
        raise ValueError("matching: n or arcs missing")
    n, pairs, dotted = obj["n"], obj["arcs"], obj.get("dotted", [])
    if type(n) is not int or not is_pair_list(pairs) or not is_pair_list(dotted):
        raise ValueError("matching: n and every pair must be integers")
    arcs = {(min(p), max(p)) for p in pairs}
    if n < 0 or 2 * len(pairs) != n or sorted(v for p in pairs for v in p) != list(range(1, n + 1)):
        raise ValueError("matching: not a perfect matching of 1..n")
    if not is_noncrossing(arcs):
        raise ValueError("matching: arcs cross")
    dots = {(min(p), max(p)) for p in dotted}
    if not dots <= arcs:
        raise ValueError("matching: a dotted pair is not an arc")
    return DottedMatching(n, tuple(sorted(arcs)), frozenset(dots))


def matching_sum_from_obj(obj) -> FormalSum:
    """Decode a wire formal sum to matching objects, term by term through the
    decoder above: the reference that ``jsonio.matching_codes_from_obj`` must
    agree with, refusal for refusal and code for code."""
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ValueError("formal sum: missing key 'terms'")
    if not isinstance(obj["terms"], list):
        raise ValueError("formal sum: terms must be a list")
    parsed = []
    for entry in obj["terms"]:
        if not isinstance(entry, dict) or "coef" not in entry:
            raise ValueError("formal sum term: missing key 'coef'")
        if type(entry["coef"]) is not int:
            raise ValueError("formal sum: coef must be an integer")
        if "matching" not in entry:
            raise ValueError("formal sum term: missing key 'matching'")
        parsed.append((matching_from_obj(entry["matching"]), entry["coef"]))
    return FormalSum(parsed)


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
    return sum(len(enclosers(m, arc)) for arc in m.dotted)


def find_sites(m: DottedMatching) -> list[RewriteSite]:
    """All rewritable positions: each nested dotted arc with its innermost
    enclosing arc.  Empty exactly when ``m`` is standard.

    Sites are ordered deepest-nested first, then leftmost; the package's
    kernel rewrites at the first one.
    """
    sites = []
    for inner in sorted(m.dotted):
        enclosing = enclosers(m, inner)
        if not enclosing:
            continue
        outer = enclosing[-1]  # innermost encloser: the only rewirable partner
        kind = "II" if outer in m.dotted else "I"
        sites.append((-len(enclosing), inner[0], RewriteSite(kind, outer[0], inner[0], inner[1], outer[1])))
    sites.sort(key=lambda entry: entry[:2])
    return [site for *_, site in sites]


def scan_site(n: int, opens: int, dots: int) -> tuple[int, int, int, int] | None:
    """The kernel's rewrite site by one stack scan of the code: bit positions
    (i, j, k, l) with (j,k) the deepest nested dotted arc, leftmost among
    equals, under its innermost encloser (i,l); None on a standard code.
    The reference for the site of ``rewriting._step``."""
    stack, close = [], {}
    depth, site = 0, None
    for v in range(n):
        if opens >> v & 1:
            if dots >> v & 1 and len(stack) > depth:
                depth, site = len(stack), (stack[-1], v)
            stack.append(v)
        else:
            close[stack.pop()] = v
    if site is None:
        return None
    i, j = site
    return i, j, close[j], close[i]


def _site_arcs(m: DottedMatching, site: RewriteSite) -> tuple[tuple[int, int], tuple[int, int]]:
    outer, inner = (site.i, site.l), (site.j, site.k)
    if outer not in m.arcs or inner not in m.arcs:
        raise ValueError(f"site {site} does not name two arcs of the matching")
    if inner not in m.dotted:
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
    if outer in m.dotted:
        raise ValueError(f"outer arc {outer} must be undotted for a Type I rewrite")
    spectators = [a for a in m.dotted if a != inner]
    dot_on_outer = DottedMatching(m.n, m.arcs, frozenset(spectators + [outer]))
    split_left = _rewired(m, site, ((site.i, site.j),))
    split_right = _rewired(m, site, ((site.k, site.l),))
    return FormalSum([(dot_on_outer, -1), (split_left, 1), (split_right, 1)])


def apply_type2(m: DottedMatching, site: RewriteSite) -> FormalSum:
    """Replace two nested dotted arcs by the side-by-side dotted pair."""
    if site.kind != "II":
        raise ValueError(f"site {site} is not a Type II site")
    outer, _ = _site_arcs(m, site)
    if outer not in m.dotted:
        raise ValueError(f"outer arc {outer} must be dotted for a Type II rewrite")
    return FormalSum({_rewired(m, site, ((site.i, site.j), (site.k, site.l))): 1})


def apply_site(m: DottedMatching, site: RewriteSite) -> FormalSum:
    return apply_type2(m, site) if site.kind == "II" else apply_type1(m, site)


def reduce_picking(m: DottedMatching, pick) -> FormalSum:
    """Rewrite m to standard form, choosing each rewrite site with ``pick``
    from the sites ``find_sites`` lists; probes confluence."""
    sites = find_sites(m)
    if not sites:
        return FormalSum({m: 1})
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
    if len(s.bottom) != len(t.bottom):
        raise ValueError("cannot compare undot sets of different cardinality")
    a, b = subset_order_key(s.bottom), subset_order_key(t.bottom)
    return (a > b) - (a < b)


def negated_lead(rule):
    """A broken expansion rule: ``rule`` with the coefficient of its largest
    undot-set mask negated."""
    def broken(*matching) -> dict[int, int]:
        terms = dict(rule(*matching))
        lead = max(terms)
        terms[lead] = -terms[lead]
        return terms
    return broken


def _require_standard(m: DottedMatching) -> None:
    if not standard_by_enclosers(m):
        raise ValueError(f"matching {m.arcs} with dots {sorted(m.dotted)} is not standard")


def undot_sets(m: DottedMatching) -> list[Tabloid]:
    """The 2^k undot sets of M: one endpoint from each undotted arc."""
    _require_standard(m)
    out = [Tabloid(m.n, choice) for choice in itertools.product(*m.undotted_arcs)]
    out.sort(key=Tabloid.sort_key)
    return out


def left_count(m: DottedMatching, u: Tabloid) -> int:
    """Number of elements of u that are left endpoints of their arc in m."""
    _require_standard(m)
    undotted = m.undotted_arcs
    chosen = set(u.bottom)
    if u.n != m.n or len(chosen) != len(undotted):
        raise ValueError(f"{u.bottom} is not an undot set of the matching")
    lefts = 0
    for i, j in undotted:
        if (i in chosen) == (j in chosen):
            raise ValueError(f"{u.bottom} does not choose exactly one endpoint of arc ({i},{j})")
        if i in chosen:
            lefts += 1
    return lefts


def permute_diagram(w: Permutation, v: FormalSum) -> FormalSum:
    """Relabel every strand of every diagram by w; coefficients unchanged."""
    return map_basis(v, lambda u: FormalSum({Tabloid(u.n, tuple(w(x) for x in u.bottom)): 1}))


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
        shifted = tuple(_shift(x, i, j) for x in u.bottom)
        if dotted:
            predicted.append((Tabloid(inserted.n, shifted), coef))
        else:
            predicted.append((Tabloid(inserted.n, shifted + (j,)), coef))
            predicted.append((Tabloid(inserted.n, shifted + (i,)), -coef))
    return FormalSum(predicted) == expand(inserted)


def permute_tabloids(w: Permutation, v: FormalSum) -> FormalSum:
    """The S_n action on tabloids: w relabels every entry."""
    return map_basis(v, lambda t: FormalSum({Tabloid(t.n, tuple(w(x) for x in t.bottom)): 1}))


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


def peel(vector: dict[int, int], basis) -> None:
    """Subtract multiples of the unitriangular ``basis`` (lead -> vector) from
    ``vector`` in place, largest lead first.  What is left in ``vector`` is
    zero exactly when it lay in the span."""
    while vector and (lead := max(vector)) in basis:
        factor = vector[lead]
        for c, x in basis[lead].items():
            value = vector.get(c, 0) - factor * x
            if value:
                vector[c] = value
            else:
                vector.pop(c, None)


def peel_rests(n: int, k: int, polytabloid=polytabloid_by_columns) -> dict[DottedMatching, dict[int, int]]:
    """The elimination reference for module equality: each standard M's e_M,
    by arc swaps, peeled against the e_T that ``polytabloid`` builds (which
    must be unitriangular), as {M: the rest on masks}.  A rest is nonzero
    exactly when its e_M lies outside span{e_T}."""
    e_t = {}
    for t in standard_tableaux(n, k):
        vector, lead = {subset_mask(u.bottom): coef for u, coef in polytabloid(t)}, subset_mask(t.bottom)
        if max(vector) != lead or vector[lead] != 1:
            raise ValueError(f"polytabloid of {t.bottom} is not unitriangular")
        e_t[lead] = vector
    rests = {}
    for m in enumerate_standard(n, k):
        rests[m] = {subset_mask(u.bottom): coef for u, coef in generator_by_arc_swaps(m)}
        peel(rests[m], e_t)
    return rests


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
        pivot_row = mat[r] = [x * inv for x in mat[r]]
        # a column where the pivot row is 0 (every column left of c) does not change
        support = [j for j in range(c, ncols) if pivot_row[j]]
        for i in range(len(mat)):
            row = mat[i]
            if i != r and row[c]:
                factor = row[c]
                for j in support:
                    row[j] -= factor * pivot_row[j]
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


def subtract_row(row: dict, factor, other: dict) -> None:
    """row -= factor * other, in place, dropping entries that cancel."""
    for c, x in other.items():
        value = row.get(c, 0) - factor * x
        if value:
            row[c] = value
        else:
            row.pop(c, None)


def sparse_rref(rows) -> dict[int, dict]:
    """Reduced row echelon form of sparse rows (column -> entry), keyed by pivot.

    Each row is reduced against the pivots found so far; a nonzero rest makes
    its leftmost column a new pivot, scaled to 1.  Back-substitution in
    decreasing pivot order then clears each pivot column in the other rows.
    Rows stay integer while every pivot entry is +-1; any other pivot turns
    its row into ``Fraction``s.  Row space and column order fix the reduced
    form, so this equals dense ``rref`` row for row.
    """
    echelon: dict[int, dict] = {}
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


def rref_quotient_codes(n: int, k: int) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """Normal forms of every degree-k generator, as codes, by exact elimination:
    the reference for the rewriting kernel's drain of each generator.

    Row-reduces the Type I/II rows of :func:`relation_vectors`, encoded, over
    all dotted matchings of degree k, the nonstandard ones by increasing
    nesting and the standard ones (from :func:`theta_by_sets`) last, and
    reads off each generator's coordinates in the standard basis.  Raises
    ``VerificationError`` if the standard matchings are dependent modulo the
    relations or the quotient dimension is not the standard-tableau count.
    Never calls the rewriting kernel; the helpers, ``relation_vectors``
    included, are looked up on their modules, so a test can patch them.
    """
    standard = [encode(theta_by_sets(t)) for t in standard_tableaux(n, k)]
    known = set(standard)
    nonstandard = sorted((g for g in rw._generator_codes(n, k) if g not in known),
                         key=lambda g: rw._nesting(*g))
    columns = nonstandard + standard
    index = {g: c for c, g in enumerate(columns)}
    reduced = sparse_rref(
        {index[encode(m)]: coef for m, coef in relation} for relation in relation_vectors(n, k)
    )
    pivots = sorted(reduced)
    if any(p >= len(nonstandard) for p in pivots):
        raise VerificationError(
            "standard matchings are dependent modulo the relations",
            {"n": n, "k": k, "pivots": pivots},
        )
    dimension = len(columns) - len(pivots)
    if dimension != syt_count(n, k) or len(pivots) != len(nonstandard):
        raise VerificationError(
            "quotient dimension does not match the standard-tableau count",
            {"n": n, "k": k, "dimension": dimension, "expected": syt_count(n, k)},
        )
    table = {g: {g: 1} for g in standard}
    for pivot in pivots:
        # every other nonstandard column is cleared, so the rest are standard
        row = {columns[c]: -x for c, x in reduced[pivot].items() if c != pivot}
        if any(x.denominator != 1 for x in row.values()):
            raise ValueError("non-integer coordinate in quotient projection")
        table[columns[pivot]] = {c: int(x) for c, x in row.items()}
    return table


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


def degree_generators(n: int, k: int) -> list[DottedMatching]:
    """Every dotted matching on n vertices with exactly k undotted arcs."""
    if not 0 <= k <= n // 2:
        raise ValueError(f"k={k} out of range for n={n}")
    gens = [
        DottedMatching(base.n, base.arcs, frozenset(dots))
        for base in enumerate_noncrossing(n)
        for dots in itertools.combinations(base.arcs, n // 2 - k)
    ]
    gens.sort(key=DottedMatching.sort_key)
    return gens


def relation_vectors(n: int, k: int) -> list[FormalSum]:
    """All Type I and Type II relation vectors in degree k, as formal sums:
    for each arc with an encloser, rewire it with the innermost encloser and
    dot the spectator arcs in every way that stays in degree k."""
    out = []
    for base in enumerate_noncrossing(n):
        for inner in base.arcs:
            enclosing = enclosers(base, inner)
            if not enclosing:
                continue
            outer = enclosing[-1]
            i, l = outer
            j, kk = inner
            spectators = tuple(a for a in base.arcs if a not in (outer, inner))
            rewired = NoncrossingMatching(n, spectators + ((i, j), (kk, l)))
            for dots in itertools.chain.from_iterable(
                itertools.combinations(spectators, r) for r in range(len(spectators) + 1)
            ):
                undotted_spectators = len(spectators) - len(dots)
                if undotted_spectators + 1 == k:
                    out.append(FormalSum([
                        (DottedMatching(rewired.n, rewired.arcs, frozenset(dots + ((i, j),))), 1),
                        (DottedMatching(rewired.n, rewired.arcs, frozenset(dots + ((kk, l),))), 1),
                        (DottedMatching(base.n, base.arcs, frozenset(dots + (outer,))), -1),
                        (DottedMatching(base.n, base.arcs, frozenset(dots + (inner,))), -1),
                    ]))
                if undotted_spectators == k:
                    out.append(FormalSum([
                        (DottedMatching(rewired.n, rewired.arcs, frozenset(dots + ((i, j), (kk, l)))), 1),
                        (DottedMatching(base.n, base.arcs, frozenset(dots + (outer, inner))), -1),
                    ]))
    return out


def dense_quotient_table(n: int, k: int) -> dict[DottedMatching, FormalSum]:
    """Normal form of every degree-k generator: dense ``rref`` of the relation
    matrix with the standard matchings as its last columns."""
    generators = degree_generators(n, k)
    standard = [g for g in generators if standard_by_enclosers(g)]
    columns = [g for g in generators if not standard_by_enclosers(g)] + standard
    index = {g: c for c, g in enumerate(columns)}
    rows = []
    for relation in relation_vectors(n, k):
        row = [0] * len(columns)
        for term, coef in relation:
            row[index[term]] = coef
        rows.append(row)
    reduced, pivots = rref(rows)
    table = {m: FormalSum({m: 1}) for m in standard}
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
