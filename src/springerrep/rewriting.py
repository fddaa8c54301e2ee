"""Local rewriting of dotted matchings down to the standard basis.

Two local relations identify the direct sum of component homologies with
the homology of the whole space.  With vertices i < j < k < l, arcs
(i,j),(k,l) side by side versus (i,l),(j,k) nested, and all other arcs and
dots fixed:

  Type I:  [side by side, dot on (i,j)] + [side by side, dot on (k,l)]
             = [nested, dot on (i,l)] + [nested, dot on (j,k)]
  Type II: [side by side, dots on both] = [nested, dots on both]

Rewriting runs on integers.  A dotted matching on 1..n is a pair of n-bit
masks ``(opens, dots)``: bit v-1 of ``opens`` is set when v is a left
endpoint (a Dyck word, which determines the matching), and of ``dots`` when
v opens a dotted arc.  The arc opened at a lies below
2*popcount(opens below a) - (a-1) arcs; the nesting measure, that depth
summed over the dotted arcs, is 0 exactly on standard matchings.

The rewrite site is the deepest nested dotted arc (j,k), leftmost among
equals, under its innermost encloser (i,l); one stack scan finds it.
Oriented to eliminate (j,k), the relations are bit flips (x is the bit of
vertex x):

  Type II, (i,l) dotted:   (opens^j^k, dots^j^k)
  Type I,  (i,l) undotted: -(opens, dots^j^i) + (opens^j^k, dots^j^i)
                             + (opens^j^k, dots^j^k)

Every term on the right has a smaller measure, so a reduction files the
coefficients in buckets by measure and drains them deepest level first:
each matching is rewritten once per call, after all its contributions have
arrived, and no rewrite memo outlives the call.  A term whose measure is not below
its bucket raises :class:`VerificationError` (the termination guard).

``reduce`` feeds the kernel :func:`_reduce_codes` the codes that
:func:`springerrep.jsonio.matching_codes_from_obj` decodes from the wire;
:func:`reduce_to_standard` encodes a :class:`FormalSum` into the same
kernel.  Only the codes left at measure 0 become objects, each checked on
its masks (degree k, measure 0) and decoded once per process, so the cost
follows the input and the output: no standard basis is enumerated.

:func:`quotient_project_oracle` recomputes the normal forms by elimination
over the object-level :func:`relation_vectors`, independently of the kernel.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
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
    opens_mask,
    syt_count,
)

# Largest n of the verify suites and of quotient_project_oracle.  Budget: all
# of ``verify --suite all --max-n 12`` (252 checks) takes about 6 s on 2 vCPUs,
# and must stay under 15 s.
MAX_VERIFY_N = 12


def _encode(m: DottedMatching) -> tuple[int, int]:
    return opens_mask(m.arcs), opens_mask(m.dotted)


def _decode(n: int, opens: int, dots: int) -> dict:
    """The matching of a code as a witness: n, arcs and dotted arcs."""
    stack, arcs = [], []
    for v in range(1, n + 1):
        if opens >> (v - 1) & 1:
            stack.append(v)
        else:
            arcs.append((stack.pop(), v))
    arcs.sort()
    return {"n": n, "arcs": tuple(arcs), "dotted": [(i, j) for i, j in arcs if dots >> (i - 1) & 1]}


def _nesting(opens: int, dots: int) -> int:
    """The nesting measure: the depths of the dotted arcs, summed."""
    total = 0
    while dots:
        low = dots & -dots
        total += 2 * (opens & (low - 1)).bit_count() - low.bit_length() + 1
        dots ^= low
    return total


def _find_site(n: int, opens: int, dots: int) -> tuple[int, int, int, int]:
    """Bit positions (i, j, k, l): (j,k) is the deepest nested dotted arc,
    leftmost among equals, and (i,l) its innermost encloser."""
    stack, close = [], {}
    depth = 0
    for v in range(n):
        if opens >> v & 1:
            if dots >> v & 1 and len(stack) > depth:
                depth, i, j = len(stack), stack[-1], v
            stack.append(v)
        else:
            close[stack.pop()] = v
    return i, j, close[j], close[i]


def _rewrite(opens: int, dots: int, site: tuple[int, int, int, int]) -> list[tuple[int, int, int]]:
    """The relation at ``site`` solved for the matching, as (opens, dots, coef) terms."""
    i, j, k, _ = site
    jk = 1 << j | 1 << k
    if dots >> i & 1:
        return [(opens ^ jk, dots ^ jk, 1)]
    ji = 1 << j | 1 << i
    return [(opens, dots ^ ji, -1), (opens ^ jk, dots ^ ji, 1), (opens ^ jk, dots ^ jk, 1)]


@cache
def _basis_matching(n: int, k: int, opens: int, dots: int) -> DottedMatching | None:
    """The standard matching of degree k with this code, or None if there is
    none; the check is on the masks, the decode goes through the matching rules."""
    if n // 2 - dots.bit_count() != k or _nesting(opens, dots):
        return None
    witness = _decode(n, opens, dots)
    return DottedMatching.make(n, witness["arcs"], witness["dotted"])


def _reduce_codes(terms: Iterable[tuple[tuple[int, int, int], int]]) -> FormalSum:
    """The kernel: ``((n, opens, dots), coef)`` terms in, their class in the
    standard basis out.  Equal codes merge before the degree check, as in a
    :class:`FormalSum`, so terms that cancel do not count towards it."""
    merged: dict[tuple[int, int, int], int] = {}
    for code, coef in terms:
        merged[code] = merged.get(code, 0) + coef
    degrees = {(n, n // 2 - dots.bit_count()) for (n, _, dots), coef in merged.items() if coef}
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous sum: degrees {sorted(degrees)}")
    if not degrees:
        return FormalSum.zero()
    [(n, k)] = degrees
    levels: dict[int, dict[tuple[int, int], int]] = {0: {}}
    for (_, opens, dots), coef in merged.items():
        if coef:
            levels.setdefault(_nesting(opens, dots), {})[opens, dots] = coef
    for level in range(max(levels), 0, -1):
        for (opens, dots), coef in levels.pop(level, {}).items():
            if not coef:
                continue
            site = _find_site(n, opens, dots)
            for child_opens, child_dots, sign in _rewrite(opens, dots, site):
                child_level = _nesting(child_opens, child_dots)
                if child_level >= level:
                    kind = "II" if dots >> site[0] & 1 else "I"
                    raise VerificationError(
                        "rewrite did not decrease nesting",
                        {**_decode(n, opens, dots), "site": [kind, *(x + 1 for x in site)]},
                    )
                bucket = levels.setdefault(child_level, {})
                code = (child_opens, child_dots)
                bucket[code] = bucket.get(code, 0) + coef * sign
    out = []
    for code, coef in levels[0].items():
        m = _basis_matching(n, k, *code)
        if m is None:
            raise VerificationError(
                "rewriting ended outside the standard basis", {**_decode(n, *code), "k": k}
            )
        out.append((m, coef))
    return FormalSum(out)


def reduce_to_standard(v: FormalSum) -> FormalSum:
    """Rewrite a sum of dotted matchings into the standard basis.

    The result represents the same class modulo the Type I/II relations;
    already-standard sums come back unchanged.
    """
    return _reduce_codes(((m.n, *_encode(m)), coef) for m, coef in v)


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
    if n > MAX_VERIFY_N:
        raise ValueError(f"oracle bound exceeded: n={n} > {MAX_VERIFY_N}")
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
