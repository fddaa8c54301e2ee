"""Local rewriting of dotted matchings down to the standard basis.

Two local relations identify the direct sum of component homologies with
the homology of the whole space.  With vertices i < j < k < l, arcs
(i,j),(k,l) side by side versus (i,l),(j,k) nested, and all other arcs and
dots fixed:

  Type I:  [side by side, dot on (i,j)] + [side by side, dot on (k,l)]
             = [nested, dot on (i,l)] + [nested, dot on (j,k)]
  Type II: [side by side, dots on both] = [nested, dots on both]

Oriented so as to eliminate a dotted arc nested below another arc, the
relations rewrite any dotted matching into a combination of standard ones.
Every step strictly decreases the total nesting depth of the dotted arcs,
so rewriting terminates.  An independent linear-algebra oracle recomputes
the same normal forms by exact elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .errors import VerificationError
from .exactlinalg import sparse_rref
from .formal import FormalSum
from .matchings import (
    DottedMatching,
    NoncrossingMatching,
    enumerate_noncrossing,
    enumerate_standard,
    is_standard,
    syt_count,
)

ORACLE_MAX_N = 10  # every suite at --max-n 12 runs in under 15 s on 2 vCPUs


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

    Sites are ordered deepest-nested first, then leftmost.
    """
    sites = []
    for inner in m.dotted_arcs:
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
    dot_on_outer = m.with_dots(spectators + [outer])
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


def _rewrite_once(m: DottedMatching, site: RewriteSite) -> FormalSum:
    step = apply_type2(m, site) if site.kind == "II" else apply_type1(m, site)
    before = nesting_measure(m)
    if any(nesting_measure(term) >= before for term, _ in step):
        raise VerificationError(
            "rewrite did not decrease nesting",
            {"n": m.n, "arcs": m.arcs, "dotted": sorted(m.dotted),
             "site": [site.kind, site.i, site.j, site.k, site.l]},
        )
    return step


@cache
def _reduce_cached(m: DottedMatching) -> FormalSum:
    sites = find_sites(m)
    if not sites:
        return FormalSum.single(m)
    step = _rewrite_once(m, sites[0])
    return step.map_basis(_reduce_cached)


def _check_homogeneous(v: FormalSum) -> None:
    degrees = {(m.n, m.k) for m, _ in v}
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous sum: degrees {sorted(degrees)}")


def reduce_to_standard(v: FormalSum) -> FormalSum:
    """Rewrite a sum of dotted matchings into the standard basis.

    The result represents the same class modulo the Type I/II relations;
    already-standard sums come back unchanged.
    """
    _check_homogeneous(v)
    return v.map_basis(_reduce_cached)


def _all_dottings(matching: NoncrossingMatching, k: int) -> list[DottedMatching]:
    dots_needed = matching.n // 2 - k
    return [
        DottedMatching(matching, frozenset(dots))
        for dots in itertools.combinations(matching.arcs, dots_needed)
    ]


def degree_generators(n: int, k: int) -> list[DottedMatching]:
    """Every dotted matching on n vertices with exactly k undotted arcs."""
    if not 0 <= k <= n // 2:
        raise ValueError(f"k={k} out of range for n={n}")
    gens = [m for base in enumerate_noncrossing(n) for m in _all_dottings(base, k)]
    gens.sort(key=DottedMatching.sort_key)
    return gens


def relation_vectors(n: int, k: int) -> list[FormalSum]:
    """All Type I and Type II relation vectors in degree k, as formal sums."""
    out = []
    for base in enumerate_noncrossing(n):
        for inner in base.arcs:
            enclosing = base.enclosers(inner)
            if not enclosing:
                continue
            outer = enclosing[-1]
            i, l = outer
            j, kk = inner
            rewired = NoncrossingMatching(
                n, tuple(a for a in base.arcs if a not in (outer, inner)) + ((i, j), (kk, l))
            )
            spectators = tuple(a for a in base.arcs if a not in (outer, inner))
            for dots in itertools.chain.from_iterable(
                itertools.combinations(spectators, r) for r in range(len(spectators) + 1)
            ):
                undotted_spectators = len(spectators) - len(dots)
                if undotted_spectators + 1 == k:
                    out.append(FormalSum([
                        (DottedMatching(rewired, frozenset(dots + ((i, j),))), 1),
                        (DottedMatching(rewired, frozenset(dots + ((kk, l),))), 1),
                        (DottedMatching(base, frozenset(dots + (outer,))), -1),
                        (DottedMatching(base, frozenset(dots + (inner,))), -1),
                    ]))
                if undotted_spectators == k:
                    out.append(FormalSum([
                        (DottedMatching(rewired, frozenset(dots + ((i, j), (kk, l)))), 1),
                        (DottedMatching(base, frozenset(dots + (outer, inner))), -1),
                    ]))
    return out


def quotient_project_oracle(n: int, k: int) -> dict[DottedMatching, FormalSum]:
    """Normal forms of every degree-k generator, by exact elimination.

    Builds the full relation subspace on all dotted matchings of degree k,
    row-reduces its sparse rows (at most four entries, each +-1) with the
    standard matchings ordered last, and reads off each generator's
    coordinates in the standard basis.  Verifies that the
    standard matchings are independent modulo the relations and that the
    quotient dimension matches the standard-tableau count.
    """
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle bound exceeded: n={n} > {ORACLE_MAX_N}")
    generators = degree_generators(n, k)
    standard = list(enumerate_standard(n, k))
    nonstandard = [g for g in generators if not is_standard(g)]
    columns = nonstandard + standard
    index = {g: c for c, g in enumerate(columns)}

    reduced = sparse_rref(
        {index[term]: coef for term, coef in relation} for relation in relation_vectors(n, k)
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

    table: dict[DottedMatching, FormalSum] = {m: FormalSum.single(m) for m in standard}
    for pivot in pivots:
        terms = []
        # the pivot entry sorts first; every other nonstandard column is cleared
        for c, entry in sorted(reduced[pivot].items())[1:]:
            value = -entry
            if value.denominator != 1:
                raise VerificationError(
                    "non-integer coordinate in quotient projection",
                    {"n": n, "k": k, "value": str(value)},
                )
            terms.append((columns[c], int(value)))
        table[columns[pivot]] = FormalSum(terms)
    return table
