"""Matchings, tableaux and subsets as integers: the format every kernel runs on.

Vertices are the integers ``1..n`` on a line.  A matching pairs them with
``n/2`` disjoint arcs, none of which interleave; a dotting marks a subset of
the arcs.  Matchings whose dotted arcs are never nested below another arc
are called standard; they index the homology basis in each degree, and
theta identifies them with standard two-row tableaux.

A matching is a code ``(opens, dots)`` of two n-bit masks: bit v-1 of
``opens`` is set when v is a left endpoint (a Dyck word, which determines
the matching), and of ``dots`` when v opens a dotted arc.  A word on n
vertices has n/2 openers, so a code names its own size n and degree k:
n = 2 * popcount(opens), k = popcount(opens) - popcount(dots).  A tableau,
tabloid or line diagram is its bottom row or undot set, sorted or as a
:func:`subset_mask`.  This module owns the format and both rules on it.
The arc opened at a lies below 2*popcount(opens below a) - (a-1) arcs; the
nesting measure, that depth summed over the dotted arcs (:func:`nesting`),
is 0 exactly on standard matchings.  :func:`theta_code` is theta on
bitmasks, the one implementation of the bijection, which
:func:`standard_codes` enumerates the basis with and
:func:`theta_round_trip` checks both ways.  The arc rules and the column
condition here are shared by the wire decoder and the object constructors
of :mod:`springerrep.matchings`, the one module that turns codes into
objects.  This module imports only the standard library, and its caches
hold codes, arcs and counts.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb


def subset_mask(members) -> int:
    """The subset ``members`` of {1..n} as a bitmask, vertex v at bit v-1.

    On subsets of equal size, integer order of the masks is the undot-set
    order: subsets are compared from their largest element downward, and S
    is below S' when at the first disagreement S has the smaller entry.  That
    first disagreement is the highest bit in which the masks differ, and the
    subset holding it has the larger mask.
    """
    return sum([1 << (v - 1) for v in members])


def subset_members(mask: int) -> list[int]:
    """The sorted members of a subset mask: the inverse of :func:`subset_mask`."""
    return [v + 1 for v in range(mask.bit_length()) if mask >> v & 1]


def pair_product(pairs) -> dict[int, int]:
    """The product over ``pairs`` (a, b) of (bit b - bit a), multiplied out in
    ``itertools.product`` order, as {subset mask: +-1}.  Over the undotted arcs
    (i, j) of a standard matching this is the expansion L_M; over the columns
    (top, bottom) of a standard tableau, the polytabloid e_T."""
    terms = {0: 1}
    for a, b in pairs:
        terms = {
            mask | bit: sign * coef
            for mask, coef in terms.items()
            for bit, sign in ((1 << (a - 1), -1), (1 << (b - 1), 1))
        }
    return terms


def transpose_mask(mask: int, pair: int) -> int:
    """The transposition of the two vertices in ``pair`` (a mask of two bits)
    on a subset mask: it exchanges them when exactly one is in the subset."""
    both = mask & pair
    return mask ^ pair if both and both != pair else mask


def check_integers(what: str, values) -> None:
    """ValueError unless every value is an ``int`` proper: floats, bools and
    strings are refused, not truncated or parsed, whatever they compare equal to."""
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} {x!r} is not an integer")


def column_condition(bottom) -> bool:
    """True when the sorted bottom row ``bottom`` makes a standard tableau: its
    i-th entry exceeds the i-th top entry, equivalently is at least 2i."""
    return all(v >= 2 * i for i, v in enumerate(bottom, 1))


def noncrossing_arcs(n: int, arcs) -> tuple[tuple[int, int], ...]:
    """The rules of :class:`~springerrep.matchings.NoncrossingMatching`, which
    the wire decoder to codes applies too: n and every vertex must be ints, and
    ``arcs``, pairs in either order, a perfect noncrossing matching of 1..n.
    Returns them as (left, right) pairs sorted by left endpoint.  The ValueError
    names the first rule broken: an integer, the vertex count, the partition
    (the arc count first, before anything of size n is built), then a crossing,
    as the innermost open arc and the new one.
    """
    arcs = tuple(sorted([(a, b) if a < b else (b, a) for a, b in arcs]))
    check_integers("vertex count", [n])
    check_integers("vertex", itertools.chain.from_iterable(arcs))
    _check_even(n)
    if 2 * len(arcs) != n or sorted(itertools.chain.from_iterable(arcs)) != list(range(1, n + 1)):
        raise ValueError(f"arcs {arcs} do not partition 1..{n}")
    # open arcs, innermost last, above a sentinel that encloses them all; each new arc
    # must close inside the top one (so every arc encloses a perfect matching)
    stack = [(0, n + 1)]
    for i, j in arcs:
        while stack[-1][1] < i:
            stack.pop()
        if stack[-1][1] < j:
            raise ValueError(f"arcs ({stack[-1][0]},{stack[-1][1]}) and ({i},{j}) cross")
        stack.append((i, j))
    return arcs


def dotted_arcs(arcs: tuple[tuple[int, int], ...], dotted) -> frozenset[tuple[int, int]]:
    """The dotted pairs as (left, right) arcs; ValueError unless each is one of
    ``arcs``, with int vertices (``(1.0, 2.0)`` equals the arc (1, 2))."""
    dotted = frozenset([(a, b) if a < b else (b, a) for a, b in dotted])
    check_integers("vertex", itertools.chain.from_iterable(dotted))
    if not dotted <= set(arcs):
        raise ValueError(f"dotted arcs {sorted(dotted - set(arcs))} are not arcs of the matching")
    return dotted


def opens_mask(arcs) -> int:
    """The left endpoints of ``arcs``, vertex v at bit v-1: the Dyck word of a
    matching, or the dot mask of its dotted arcs."""
    return sum([1 << (i - 1) for i, _ in arcs])


def check_partition(parts) -> tuple[int, ...]:
    """Normalize a partition: weakly decreasing, nonnegative, zeros stripped.
    Every part must be an ``int`` proper: floats, bools and strings are
    refused, not truncated or parsed."""
    parts = tuple(parts)
    check_integers("partition part", parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in partition {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition {parts} is not weakly decreasing")
    return tuple(p for p in parts if p > 0)


@cache
def _partitions(remaining: int, largest: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of ``remaining`` with no part above ``largest``, in
    reverse lexicographic order, cached for the process."""
    if remaining == 0:
        return ((),)
    return tuple((first, *rest) for first in range(min(remaining, largest), 0, -1)
                 for rest in _partitions(remaining - first, first))


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, in reverse lexicographic order ((n,) first), as a new list."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partitions(n, n))


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _check_even(n: int) -> None:
    if n < 0 or n % 2:
        raise ValueError(f"vertex count must be even and nonnegative, got {n}")


def check_degree(n: int, k: int) -> None:
    """ValueError unless n is even and nonnegative and 0 <= k <= n/2."""
    _check_even(n)
    if not 0 <= k <= n // 2:
        raise ValueError(f"k={k} out of range for n={n}")


@cache
def dyck_words(n: int) -> tuple[int, ...]:
    """The Catalan(n/2) Dyck words on n vertices, as ``opens`` masks, in
    lexicographic order of their sorted arcs: by the arc (1, mid), then the
    word inside it, then the word right of it."""
    _check_even(n)
    if not n:
        return (0,)
    return tuple(1 | inner << 1 | outer << mid
                 for mid in range(2, n + 1, 2)
                 for inner in dyck_words(mid - 2) for outer in dyck_words(n - mid))


@cache
def decode_word(opens: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """A Dyck word on 2 * popcount(opens) vertices decoded, cached per word: its
    arcs as (left, right) pairs sorted by left endpoint, and its partner array,
    bit v joined to bit partner[v]."""
    n = 2 * opens.bit_count()
    stack, partner = [], [0] * n
    for v in range(n):
        if opens >> v & 1:
            stack.append(v)
        else:
            partner[v] = u = stack.pop()
            partner[u] = v
    return tuple((v + 1, partner[v] + 1) for v in range(n) if opens >> v & 1), tuple(partner)


def code_undotted(opens: int, dots: int) -> list[tuple[int, int]]:
    """The undotted arcs of the matching with code ``(opens, dots)``, sorted."""
    return [(a, b) for a, b in decode_word(opens)[0] if not dots >> (a - 1) & 1]


def undot_mask(opens: int, dots: int) -> int:
    """U_M, the right endpoints of the undotted arcs, as a subset mask."""
    return sum([1 << (b - 1) for a, b in decode_word(opens)[0] if not dots >> (a - 1) & 1])


def nesting(opens: int, dots: int) -> int:
    """The nesting measure of a code: the depths of the dotted arcs, summed."""
    total = 0
    while dots:
        low = dots & -dots
        total += 2 * (opens & (low - 1)).bit_count() - low.bit_length() + 1
        dots ^= low
    return total


def decode(opens: int, dots: int) -> dict:
    """The matching of a code as a witness: n, arcs and dotted arcs."""
    arcs, partner = decode_word(opens)
    return {"n": len(partner), "arcs": arcs, "dotted": [(i, j) for i, j in arcs if dots >> (i - 1) & 1]}


def standard_bottom_sets(n: int, k: int) -> list[tuple[int, ...]]:
    """Bottom rows of the standard (n-k, k) tableaux, in undot-set order: the
    k-subsets that pass :func:`column_condition`, after :func:`check_degree`."""
    check_degree(n, k)
    sets = [b for b in itertools.combinations(range(1, n + 1), k) if column_condition(b)]
    sets.sort(key=subset_mask)
    return sets


def theta_code(n: int, bottom) -> tuple[int, int]:
    """theta on bitmasks: the code of the standard matching of the standard
    tableau on n vertices with sorted bottom row ``bottom``.

    Bottom-row entries are matched left to right, each to the nearest
    unmatched vertex on its left, by undotted arcs; what remains is swept up
    into dotted arcs between neighbouring unmatched vertices, lowest first.
    The unmatched vertices are the bits of ``free``, vertex v at bit v-1.
    """
    free, opens = (1 << n) - 1, 0
    for j in bottom:
        i = 1 << (free & (1 << (j - 1)) - 1).bit_length() - 1  # nearest unmatched left of j
        opens |= i
        free ^= i | 1 << (j - 1)
    dots = 0
    while free:
        low = free & -free
        free ^= low
        dots |= low
        free &= free - 1
    return opens | dots, dots


@cache
def standard_codes(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """The standard matchings of degree (n, k) as ``(opens, dots)`` codes:
    :func:`theta_code` of each standard tableau, in undot-set order of their
    bottom rows.  Cached per degree."""
    return tuple(theta_code(n, bottom) for bottom in standard_bottom_sets(n, k))


def theta_round_trip(n: int, k: int) -> bool:
    """Is theta a bijection from the standard tableaux of degree (n, k) onto the
    basis codes?  theta(T) and the basis codes must be Dyck words on n vertices
    with dots among their openers, of degree k and nesting 0; phi(theta(T)) = T,
    as phi reads U_M, and theta(phi(M)) = M."""
    bottoms, codes, words = standard_bottom_sets(n, k), standard_codes(n, k), set(dyck_words(n))
    images = [theta_code(n, b) for b in bottoms]
    ok = all(opens in words and not dots & ~opens and opens.bit_count() - dots.bit_count() == k
             and not nesting(opens, dots) for opens, dots in images + list(codes))
    ok = ok and [subset_mask(b) for b in bottoms] == [undot_mask(*code) for code in images]
    return ok and all(theta_code(n, subset_members(undot_mask(*code))) == code for code in codes)


def syt_count(n: int, k: int) -> int:
    """Number of standard tableaux of shape (n-k, k): C(n,k) - C(n,k-1)."""
    if k < 0 or 2 * k > n:
        raise ValueError(f"k={k} out of range for n={n}")
    return comb(n, k) - (comb(n, k - 1) if k > 0 else 0)


def springer_dimension(partition) -> int:
    """Complex dimension of the fiber for a nilpotent of the given Jordan type."""
    parts = check_partition(partition)
    return sum(i * p for i, p in enumerate(parts))


def kostka_two_row(mu, lam) -> int:
    """Fillings of mu with content lam (weakly increasing rows, strictly
    increasing columns), for lam with at most two rows.

    For such lam the count is 0 or 1: it is 1 exactly when mu is a (at most)
    two-row partition of the same number with mu_1 >= lam_1.
    """
    mu = check_partition(mu)
    lam = check_partition(lam)
    if len(lam) > 2:
        raise ValueError(f"content partition {lam} has more than two rows")
    if sum(mu) != sum(lam):
        return 0
    if len(mu) > 2:
        return 0
    mu2 = mu[1] if len(mu) > 1 else 0
    lam2 = lam[1] if len(lam) > 1 else 0
    return 1 if mu2 <= lam2 else 0
