"""Local rewriting of dotted matchings down to the standard basis.

Two local relations identify the direct sum of component homologies with
the homology of the whole space.  With vertices i < j < k < l, arcs
(i,j),(k,l) side by side versus (i,l),(j,k) nested, and all other arcs and
dots fixed:

  Type I:  [side by side, dot on (i,j)] + [side by side, dot on (k,l)]
             = [nested, dot on (i,l)] + [nested, dot on (j,k)]
  Type II: [side by side, dots on both] = [nested, dots on both]

Rewriting runs on the ``(opens, dots)`` codes of :mod:`~springerrep.codes`
and descends its nesting measure (:func:`~springerrep.codes.nesting`),
which is 0 exactly on standard matchings.

The rewrite site is the deepest nested dotted arc (j,k), leftmost among
equals, under its innermost encloser (i,l).  A table per Dyck word
(:func:`_steps`, cached for the process: at most Catalan(n/2) words per n)
lists the nested arcs in that order, each with its bits and flip masks, and
the one step (:func:`_step`, read by the kernel and by :func:`_certify`)
takes the first whose dot bit is set.  Oriented to eliminate (j,k), the
relations are bit flips (x is the bit of vertex x):

  Type II, (i,l) dotted:   (opens^j^k, dots^j^k)
  Type I,  (i,l) undotted: -(opens, dots^j^i) + (opens^j^k, dots^j^i)
                             + (opens^j^k, dots^j^k)

Every term on the right has a smaller measure, so a reduction files the
coefficients in buckets by measure and drains them deepest level first:
each matching is rewritten once per call, after all its contributions have
arrived, and measured once per call, when its code is first seen; no memo
outlives the call.  A term whose measure is not below its bucket raises
:class:`VerificationError`, memo hit or miss (the termination guard).

``reduce`` and ``act`` run from wire to wire on codes: the wire sum decodes
and merges in one pass (:func:`springerrep.jsonio.matching_codes_from_obj`)
into one ``{(opens, dots): coef}``, which :func:`_by_degree` files under the
degree (n, k) each code names; :func:`_standard` drains one degree through the
kernel :func:`_reduce_codes`, checks each survivor on its masks (degree k,
measure 0), and the CLI renders the survivors from their codes.  Only
:func:`reduce_to_standard` reaches the object layer, through one import when called.

:func:`_certify` and the ``rewriting`` verify suite show, per degree, that
the standard matchings are a basis of the quotient V/R by the relations.
(1) Each nonstandard code's one kernel step descends and is +- the Type
I/II row at its own site, read off the arcs, so by induction on the
measure the standard codes span V/R.  (2) They number syt_count(n, k).
(3) E, the image under the antipodal embedding, the product over the
undotted arcs (a,b) of (-1)^a l_a + (-1)^b l_b, kills every row: a row's
terms share their spectator factor, Type I's sides are then (-1)^i l_i +
(-1)^j l_j + (-1)^k l_k + (-1)^l l_l, and Type II leaves no undotted arc at
the site (``tests/test_local_lemmas.py``).  As b - a is odd, E is L_M
times (-1)^(sum of the b).  (4) ``echelon_certificate`` shows that L_M, the
rule :func:`_image` reads, is injective on the standard span, whose image is
then the kernel of the down operator (the argument of :mod:`springerrep.specht`,
by L8, L9 and the ballot count).  By (3) and
(4) the standard codes are independent in V/R, so they are a basis.  (5) A
drain that keeps its input's image under E ends, by (4), at its class.
The spanning half is the linear diamond lemma (Bergman, 1978); E replaces
its check that every row vanishes under the normal forms, so no normal
form or row is kept.  The signs are the paper's antipodal hypothesis: with
the unsigned (l_b - l_a), the sides of Type I at vertices 1..4 are
l4 - l3 + l2 - l1 and l3 - l2 + l4 - l1.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import cache

from .codes import decode as _decode, decode_word, dyck_words, nesting as _nesting, syt_count
from .errors import VerificationError
from .linediagrams import code_expansion_masks

Code = tuple[int, int]  # (opens, dots), on 2 * popcount(opens) vertices
Degrees = dict[tuple[int, int], dict[Code, int]]  # (n, k) -> {(opens, dots): coef}


@cache
def _steps(opens: int) -> tuple[tuple[int, int, int, int, tuple[int, int, int, int]], ...]:
    """Every nested arc (j,k) of a Dyck word under its innermost encloser (i,l),
    deepest first and leftmost among equals, as (bit of j, bit of i, flip j|k,
    flip j|i, bit positions (i, j, k, l)), from one scan with the open arcs on a stack."""
    partner, stack, nested = decode_word(opens)[1], [], []
    for v in range(len(partner)):
        if opens >> v & 1:
            nested += [(-len(stack), v, stack[-1])] if stack else []
            stack.append(v)
        else:
            stack.pop()
    nested.sort()
    return tuple((1 << j, 1 << i, 1 << j | 1 << partner[j], 1 << j | 1 << i, (i, j, partner[j], partner[i]))
                 for _, j, i in nested)


def _step(opens: int, dots: int) -> tuple[tuple[int, int, int, int], tuple[tuple[Code, int], ...]]:
    """The rewrite step of a code: its site (i, j, k, l), from the first entry of
    :func:`_steps` with j dotted, and the relation there solved for the matching."""
    for j, i, jk, ji, site in _steps(opens):
        if dots & j:
            if dots & i:
                return site, (((opens ^ jk, dots ^ jk), 1),)
            return site, (((opens, dots ^ ji), -1), ((opens ^ jk, dots ^ ji), 1), ((opens ^ jk, dots ^ jk), 1))
    raise ValueError("a standard matching has no rewrite site")


def _no_descent(opens: int, dots: int, site: tuple[int, int, int, int]) -> VerificationError:
    kind = "II" if dots >> site[0] & 1 else "I"
    return VerificationError("rewrite did not decrease nesting",
                             {**_decode(opens, dots), "site": [kind, *(x + 1 for x in site)]})


def _reduce_codes(terms: Iterable[tuple[Code, int]]) -> dict[Code, int]:
    """The kernel: ``((opens, dots), coef)`` terms in, the nonzero
    ``{(opens, dots): coef}`` left at measure 0 out."""
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
            site, children = _step(opens, dots)
            for code, sign in children:
                if (child_level := measures.get(code)) is None:
                    child_level = measures[code] = _nesting(*code)
                if child_level >= level:
                    raise _no_descent(opens, dots, site)
                bucket = levels.setdefault(child_level, {})
                bucket[code] = bucket.get(code, 0) + coef * sign
    return {code: coef for code, coef in levels[0].items() if coef}


def _by_degree(merged: Iterable[tuple[Code, int]]) -> Degrees:
    """Merged ``((opens, dots), coef)`` terms split into one ``{(opens, dots): coef}`` per
    degree (n, k) read off the code, in order of first codes."""
    degrees: Degrees = {}
    for code, coef in merged:
        opens, dots = code
        half = opens.bit_count()
        degrees.setdefault((2 * half, half - dots.bit_count()), {})[code] = coef
    return degrees


def _standard(codes: dict[Code, int], n: int, k: int) -> dict[Code, int]:
    """One degree's codes, split by :func:`_by_degree`, drained through the kernel,
    each survivor checked on its masks: k undotted arcs, measure 0."""
    out = _reduce_codes(codes.items())
    for opens, dots in out:
        if n // 2 - dots.bit_count() != k or _nesting(opens, dots):
            raise VerificationError(
                "rewriting ended outside the standard basis", {**_decode(opens, dots), "k": k}
            )
    return out


def _reduce_sum(degrees: Degrees) -> dict[Code, int]:
    """A sum split by :func:`_by_degree` in, its class in the standard basis out as codes.
    Codes merge before the degree check, so terms that cancel do not count towards it."""
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous sum: degrees {sorted(degrees)}")
    return next((_standard(codes, *degree) for degree, codes in degrees.items()), {})


def reduce_to_standard(v: FormalSum) -> FormalSum:
    """Rewrite a sum of dotted matchings into the standard basis.

    The result represents the same class modulo the Type I/II relations;
    already-standard sums come back unchanged.
    """
    # the kernel's one object import: the benchmark harness imports and traces this name
    # here, and it moves to matchings when that pin goes (ROADMAP item 2)
    from .matchings import encode_sum, matching_sum

    return matching_sum(_reduce_sum(_by_degree(encode_sum(v))).items())


def _generator_codes(n: int, k: int) -> list[Code]:
    """Every dotted matching on n vertices with exactly k undotted arcs, as codes:
    each Dyck word with the dots of every n/2 - k of its arcs."""
    words = dyck_words(n) if k <= n // 2 else ()
    return [(opens, sum(dots)) for opens in words
            for dots in itertools.combinations([1 << v for v in range(n) if opens >> v & 1], n // 2 - k)]


def _site_row(nested: int, dots: int, j: int) -> dict[Code, int] | None:
    """The Type I or II row, as ``{(opens, dots): +-1}``, at the dotted arc (j,k)
    that opens at bit j, read off the arcs: (i,l) is its innermost encloser and
    s the spectator dots.  None if no arc opens there or it has no encloser."""
    right, v = dict(decode_word(nested)[0]), j + 1
    enclosers = [a for a, b in right.items() if a < v < b] if v in right else []
    if not enclosers:
        return None
    i, j, k = (1 << (x - 1) for x in (max(enclosers), v, right[v]))
    side, s = nested ^ j ^ k, dots & ~(i | j)
    if dots & i:
        return {(side, s | i | k): 1, (nested, s | i | j): -1}
    return {(side, s | i): 1, (side, s | k): 1, (nested, s | i): -1, (nested, s | j): -1}


def _certify(n: int, k: int) -> tuple[list[Code], int]:
    """Facts (1) and (2) of the module docstring in degree k: the generators,
    and how many of them take a kernel step that is not +- the row at its
    site.  A step that does not descend, and a standard count that is not
    the tableau count, raise :class:`VerificationError`."""
    generators = _generator_codes(n, k)
    standard = unmatched = 0
    for g in generators:
        if not (level := _nesting(*g)):
            standard += 1
            continue
        site, children = _step(*g)
        step = {g: 1}
        for code, sign in children:
            if _nesting(*code) >= level:
                raise _no_descent(*g, site)
            step[code] = step.get(code, 0) - sign
        row = _site_row(*g, site[1])
        if row is None or (step != row and step != {c: -x for c, x in row.items()}):
            unmatched += 1
    if standard != syt_count(n, k):
        raise VerificationError("quotient dimension does not match the standard-tableau count",
                                {"n": n, "k": k, "dimension": standard, "expected": syt_count(n, k)})
    return generators, unmatched


def _image(n: int, terms: Iterable[tuple[Code, int]]) -> dict[int, int]:
    """E of ``((opens, dots), coef)`` terms, as {undot-set mask: coef}: each L_M
    times -1 to the number of undotted arcs that open at an even vertex."""
    even = (1 << n) // 3 << 1  # the bits of vertices 2, 4, ..., n
    out: dict[int, int] = {}
    for (opens, dots), coef in terms:
        sign = (-1) ** (opens & ~dots & even).bit_count()
        for mask, x in code_expansion_masks(opens, dots).items():
            out[mask] = out.get(mask, 0) + sign * coef * x
    return {mask: x for mask, x in out.items() if x}

