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
equals, under its innermost encloser (i,l).  A table per Dyck word, built
by one stack scan and cached for the process (at most Catalan(n/2) words
per n), lists the nested arcs in that order, and a step takes the first
one whose dot bit is set.  Oriented to eliminate (j,k), the relations are
bit flips (x is the bit of vertex x):

  Type II, (i,l) dotted:   (opens^j^k, dots^j^k)
  Type I,  (i,l) undotted: -(opens, dots^j^i) + (opens^j^k, dots^j^i)
                             + (opens^j^k, dots^j^k)

Every term on the right has a smaller measure, so a reduction files the
coefficients in buckets by measure and drains them deepest level first:
each matching is rewritten once per call, after all its contributions have
arrived, and measured once per call, when its code is first seen; no memo
outlives the call (the site table depends on the Dyck word alone, not on
any sum).  A term whose measure is not below its bucket raises
:class:`VerificationError`, memo hit or miss (the termination guard).

``reduce`` and ``act`` share one path from the ``(n, opens, dots)`` codes
that :func:`springerrep.jsonio.matching_codes_from_obj` decodes from the
wire (a :class:`FormalSum` is encoded into them).  :func:`_merge` merges
equal codes, drops zeros and lists the degrees; :func:`_standard` drains a
degree through the kernel :func:`_reduce_codes`, which takes and returns
``(opens, dots)`` terms, and checks each survivor on its masks (degree k,
measure 0).  ``act`` looks the survivors up in its tables; ``reduce``
decodes them to objects, so it enumerates no standard basis.

:func:`quotient_project_oracle` certifies that the standard matchings are a
basis of the quotient by the linear diamond lemma (Bergman, "The diamond
lemma for ring theory", 1978), with the Type I/II rows built on codes, read
off each nested arc and its innermost encloser.  Per degree, in one pass by
increasing nesting: (1) each nonstandard g takes its one kernel step, to
children of lower measure, and g minus the signed children is +- a row;
(2) the normal forms N(s) = s for standard s and N(g) = the signed sum of
its children's otherwise; (3) every row r has N(r) = 0; (4) there are
syt_count(n, k) standard codes.  By (1) and induction every g - N(g) lies
in the row span R, so V = span(standard) + R; N is linear, kills R by (3)
and fixes the standard span, so the sum is direct.  Hence the standard
matchings are a basis of V/R, its dimension is the tableau count by (4),
and N is the quotient projection: the table an elimination of the rows
would give, decoded to matchings.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import cache

from .errors import VerificationError
from .formal import FormalSum
from .matchings import DottedMatching, enumerate_noncrossing, opens_mask, syt_count

# Largest n of the verify suites and of quotient_project_oracle.  Budget: all
# of ``verify --suite all --max-n 12`` (252 checks) takes about 1.0 s on 2 vCPUs
# (median of 8 fresh processes, 0.80-1.29 s, Python 3.11; 0.99 s under -O), and must stay under 15 s.
MAX_VERIFY_N = 12

Code = tuple[int, int]  # (opens, dots)
Wire = tuple[int, int, int]  # (n, opens, dots)


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


@cache
def _sites(n: int, opens: int) -> tuple[tuple[int, tuple[int, int, int, int]], ...]:
    """Every nested arc (j,k) of a Dyck word under its innermost encloser (i,l),
    as (bit of j, bit positions (i, j, k, l)), deepest first and leftmost among
    equals: the order in which :func:`_find_site` tries them."""
    stack, close, nested = [], {}, []
    for v in range(n):
        if opens >> v & 1:
            if stack:
                nested.append((-len(stack), v, stack[-1]))
            stack.append(v)
        else:
            close[stack.pop()] = v
    return tuple((1 << j, (i, j, close[j], close[i])) for _, j, i in sorted(nested))


def _find_site(n: int, opens: int, dots: int) -> tuple[int, int, int, int]:
    """Bit positions (i, j, k, l): (j,k) is the deepest nested dotted arc,
    leftmost among equals, and (i,l) its innermost encloser."""
    for bit, site in _sites(n, opens):
        if dots & bit:
            return site
    raise ValueError("a standard matching has no rewrite site")


def _rewrite(opens: int, dots: int, site: tuple[int, int, int, int]) -> list[tuple[int, int, int]]:
    """The relation at ``site`` solved for the matching, as (opens, dots, coef) terms."""
    i, j, k, _ = site
    jk = 1 << j | 1 << k
    if dots >> i & 1:
        return [(opens ^ jk, dots ^ jk, 1)]
    ji = 1 << j | 1 << i
    return [(opens, dots ^ ji, -1), (opens ^ jk, dots ^ ji, 1), (opens ^ jk, dots ^ jk, 1)]


def _matching(n: int, opens: int, dots: int) -> DottedMatching:
    witness = _decode(n, opens, dots)
    return DottedMatching.make(n, witness["arcs"], witness["dotted"])


def _no_descent(n: int, opens: int, dots: int, site: tuple[int, int, int, int]) -> VerificationError:
    kind = "II" if dots >> site[0] & 1 else "I"
    return VerificationError("rewrite did not decrease nesting",
                             {**_decode(n, opens, dots), "site": [kind, *(x + 1 for x in site)]})


def _reduce_codes(n: int, terms: Iterable[tuple[Code, int]]) -> dict[Code, int]:
    """The kernel: ``((opens, dots), coef)`` terms on n vertices in, the
    nonzero ``{(opens, dots): coef}`` left at measure 0 out."""
    levels: dict[int, dict[Code, int]] = {0: {}}
    measures: dict[Code, int] = {}
    for code, coef in terms:
        if (level := measures.get(code)) is None:
            level = measures[code] = _nesting(*code)
        bucket = levels.setdefault(level, {})
        bucket[code] = bucket.get(code, 0) + coef
    for level in range(max(levels), 0, -1):
        for (opens, dots), coef in levels.pop(level, {}).items():
            if not coef:
                continue
            site = _find_site(n, opens, dots)
            for child_opens, child_dots, sign in _rewrite(opens, dots, site):
                code = (child_opens, child_dots)
                if (child_level := measures.get(code)) is None:
                    child_level = measures[code] = _nesting(child_opens, child_dots)
                if child_level >= level:
                    raise _no_descent(n, opens, dots, site)
                bucket = levels.setdefault(child_level, {})
                bucket[code] = bucket.get(code, 0) + coef * sign
    return {code: coef for code, coef in levels[0].items() if coef}


def _merge(terms: Iterable[tuple[Wire, int]]) -> tuple[dict[Wire, int], list[tuple[int, int]]]:
    """``((n, opens, dots), coef)`` terms merged as in a :class:`FormalSum`
    (a code whose coefficient reaches 0 drops out), and the degrees (n, k) of
    the merged codes in order of their first term."""
    merged: dict[Wire, int] = {}
    for code, coef in terms:
        if total := merged.get(code, 0) + coef:
            merged[code] = total
        elif code in merged:
            del merged[code]
    return merged, list(dict.fromkeys((n, n // 2 - dots.bit_count()) for n, _, dots in merged))


def _standard(merged: dict[Wire, int], n: int, k: int) -> dict[Code, int]:
    """The degree-(n, k) codes of a merged sum drained through the kernel,
    each survivor checked on its masks: k undotted arcs, measure 0."""
    out = _reduce_codes(n, (((o, d), c) for (m, o, d), c in merged.items()
                            if m == n and n // 2 - d.bit_count() == k))
    for opens, dots in out:
        if n // 2 - dots.bit_count() != k or _nesting(opens, dots):
            raise VerificationError(
                "rewriting ended outside the standard basis", {**_decode(n, opens, dots), "k": k}
            )
    return out


def _reduce_sum(terms: Iterable[tuple[Wire, int]]) -> FormalSum:
    """``((n, opens, dots), coef)`` terms in, their class in the standard basis
    out.  Equal codes merge before the degree check, so terms that cancel do
    not count towards it."""
    merged, degrees = _merge(terms)
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous sum: degrees {sorted(degrees)}")
    return FormalSum((_matching(n, *code), coef)
                     for n, k in degrees for code, coef in _standard(merged, n, k).items())


def reduce_to_standard(v: FormalSum) -> FormalSum:
    """Rewrite a sum of dotted matchings into the standard basis.

    The result represents the same class modulo the Type I/II relations;
    already-standard sums come back unchanged.
    """
    return _reduce_sum(((m.n, *_encode(m)), coef) for m, coef in v)


def _dot_masks(mask: int, r: int) -> list[int]:
    """Every r-bit submask of ``mask``: the dots of r of the arcs opening there."""
    bits = [1 << v for v in range(mask.bit_length()) if mask >> v & 1]
    return [sum(chosen) for chosen in itertools.combinations(bits, r)] if r >= 0 else []


def _generator_codes(n: int, k: int) -> list[Code]:
    """Every dotted matching on n vertices with exactly k undotted arcs, as codes."""
    words = [opens_mask(base.arcs) for base in enumerate_noncrossing(n)]
    return [(opens, dots) for opens in words for dots in _dot_masks(opens, n // 2 - k)]


def _relation_rows(n: int, k: int) -> list[dict[Code, int]]:
    """Every Type I and Type II relation of degree k, as ``{(opens, dots): +-1}``:
    one family per nested arc (j,k) under its innermost encloser (i,l), the
    side-by-side word flipping the bits of j and k, with every dotting of the
    spectator arcs that leaves degree k."""
    rows = []
    for base in enumerate_noncrossing(n):
        nested = opens_mask(base.arcs)
        for inner in base.arcs:
            enclosing = base.enclosers(inner)
            if not enclosing:
                continue
            i, j, kk = (1 << (v - 1) for v in (enclosing[-1][0], *inner))
            side, spectators = nested ^ j ^ kk, nested ^ i ^ j
            for s in _dot_masks(spectators, n // 2 - 1 - k):
                rows.append({(side, s | i): 1, (side, s | kk): 1,
                             (nested, s | i): -1, (nested, s | j): -1})
            for s in _dot_masks(spectators, n // 2 - 2 - k):
                rows.append({(side, s | i | kk): 1, (nested, s | i | j): -1})
    return rows


def _combine(table: dict[Code, dict[Code, int]], terms: Iterable[tuple[Code, int]]) -> dict[Code, int]:
    """The sum of coef * table[code] over the terms, zeros dropped; a code
    missing from the table counts as 0."""
    out: dict[Code, int] = {}
    for code, coef in terms:
        for c, x in table.get(code, {}).items():
            out[c] = out.get(c, 0) + coef * x
    return {c: x for c, x in out.items() if x}


def _normal_forms(n: int, k: int) -> tuple[dict[Code, dict[Code, int]], int]:
    """The certificate of the module docstring in degree k: every generator's
    normal form, and the number of generators whose kernel step is not +- a
    relation row.  A step that does not descend, a standard count that is not
    the tableau count, and (once every step is a relation) a row that survives
    raise :class:`VerificationError`."""
    rows = _relation_rows(n, k)
    relations = {frozenset(row.items()) for row in rows}
    levels = {g: _nesting(*g) for g in _generator_codes(n, k)}
    table: dict[Code, dict[Code, int]] = {}
    unmatched = 0
    for g in sorted(levels, key=levels.get):
        if not levels[g]:
            table[g] = {g: 1}
            continue
        site = _find_site(n, *g)
        children = [((opens, dots), sign) for opens, dots, sign in _rewrite(*g, site)]
        if any(_nesting(*child) >= levels[g] for child, _ in children):
            raise _no_descent(n, *g, site)
        step = frozenset([(g, 1), *((child, -sign) for child, sign in children)])
        if step not in relations and frozenset((c, -x) for c, x in step) not in relations:
            unmatched += 1
        table[g] = _combine(table, children)

    dimension = sum(not level for level in levels.values())
    if dimension != syt_count(n, k):
        raise VerificationError(
            "quotient dimension does not match the standard-tableau count",
            {"n": n, "k": k, "dimension": dimension, "expected": syt_count(n, k)},
        )
    for row in () if unmatched else rows:
        if rest := _combine(table, row.items()):
            raise VerificationError(
                "standard matchings are dependent modulo the relations",
                {"n": n, "k": k, "standard": [{**_decode(n, *c), "coef": x} for c, x in rest.items()]},
            )
    return table, unmatched


def quotient_project_oracle(n: int, k: int) -> dict[DottedMatching, FormalSum]:
    """Normal forms of every degree-k generator in the standard basis, as
    matchings, certified as in the module docstring; refused if a kernel step
    is not a relation."""
    if n > MAX_VERIFY_N:
        raise ValueError(f"oracle bound exceeded: n={n} > {MAX_VERIFY_N}")
    table, unmatched = _normal_forms(n, k)
    if unmatched:
        raise VerificationError("rewrite steps are not relations", {"n": n, "k": k, "generators": unmatched})
    return {
        _matching(n, *g): FormalSum((_matching(n, *c), coef) for c, coef in row.items())
        for g, row in table.items()
    }
