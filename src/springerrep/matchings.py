"""Dotted noncrossing matchings, two-row tableaux, and their bijection.

Vertices are the integers ``1..n`` on a line.  A matching pairs them with
``n/2`` disjoint arcs, none of which interleave; a dotting marks a subset of
the arcs.  Matchings whose dotted arcs are never nested below another arc
are called standard; they index the homology basis in each degree, and the
maps :func:`phi` / :func:`theta` identify them with standard two-row
tableaux.

Inside the package a matching is a code ``(opens, dots)`` of two n-bit
masks: bit v-1 of ``opens`` is set when v is a left endpoint (a Dyck word,
which determines the matching), and of ``dots`` when v opens a dotted arc.
A word on n vertices has n/2 openers, so a code names its own size n and
degree k: n = 2 * popcount(opens), k = popcount(opens) - popcount(dots).
This module owns the format and both rules on it.  The arc opened at a lies
below 2*popcount(opens below a) - (a-1) arcs; the nesting measure, that
depth summed over the dotted arcs (:func:`nesting`), is 0 exactly on
standard matchings, and :func:`is_standard` reads it.  :func:`theta_code`
is theta on bitmasks, the one implementation of the bijection:
:func:`standard_codes` enumerates the basis with it, and :func:`theta` and
:func:`enumerate_standard` decode its codes, so every suite reads one basis.
:func:`dyck_words` enumerates words, :func:`decode_word` is the one decoder
of a word and reader of its size, and :func:`encode` / :func:`code_matching`
are the edge between codes and objects.  Objects are built only by the
object enumerators and the public functions documented to return them; the
caches here hold codes and arcs, never a matching or tableau object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb

from .formal import FormalSum


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


@dataclass(frozen=True)
class Tabloid:
    """A two-row tabloid, identified by its bottom-row set; equally a line
    diagram on n strands, identified by its undot set (the relabelling psi)."""

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

    @property
    def k(self) -> int:
        return len(self.bottom)

    @property
    def top(self) -> tuple[int, ...]:
        bottom = set(self.bottom)
        return tuple(v for v in range(1, self.n + 1) if v not in bottom)

    def sort_key(self):
        return (self.n, self.k, subset_mask(self.bottom))


def column_condition(bottom) -> bool:
    """True when the sorted bottom row ``bottom`` makes a standard tableau: its
    i-th entry exceeds the i-th top entry, equivalently is at least 2i."""
    return all(v >= 2 * i for i, v in enumerate(bottom, 1))


@dataclass(frozen=True)
class TwoRowTableau(Tabloid):
    """A standard tableau of shape (n-k, k): a tabloid on an even number of
    vertices whose rows pass the column condition."""

    def __post_init__(self):
        _check_even(self.n)
        super().__post_init__()
        if not column_condition(self.bottom):
            raise ValueError(f"tableau with bottom row {self.bottom} is not standard")


def tabloid_sum(n: int, masks: dict[int, int]) -> FormalSum:
    """A {subset mask: coef} vector decoded to a sum of :class:`Tabloid`."""
    return FormalSum((Tabloid(n, subset_members(mask)), coef) for mask, coef in masks.items())


def noncrossing_arcs(n: int, arcs) -> tuple[tuple[int, int], ...]:
    """The rules of :class:`NoncrossingMatching`, which the wire decoder to
    codes applies too: ``arcs``, pairs in either order, must be a perfect
    noncrossing matching of 1..n.  Returns them as (left, right) pairs sorted
    by left endpoint.  The ValueError names the first rule broken: the vertex
    count, the partition (the arc count first, before anything of size n is
    built), then a crossing, as the innermost open arc and the new one.
    """
    arcs = tuple(sorted([(a, b) if a < b else (b, a) for a, b in arcs]))
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
    """The dotted pairs as (left, right) arcs; ValueError unless each is one of ``arcs``."""
    dotted = frozenset([(a, b) if a < b else (b, a) for a, b in dotted])
    if not dotted <= set(arcs):
        raise ValueError(f"dotted arcs {sorted(dotted - set(arcs))} are not arcs of the matching")
    return dotted


def opens_mask(arcs) -> int:
    """The left endpoints of ``arcs``, vertex v at bit v-1: the Dyck word of a
    matching, or the dot mask of its dotted arcs."""
    return sum([1 << (i - 1) for i, _ in arcs])


@dataclass(frozen=True)
class NoncrossingMatching:
    """A perfect noncrossing matching of {1..n}, arcs stored as (left, right)."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "arcs", noncrossing_arcs(self.n, self.arcs))


@dataclass(frozen=True)
class DottedMatching(NoncrossingMatching):
    """A noncrossing matching together with a set of dotted arcs."""

    dotted: frozenset[tuple[int, int]]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "dotted", dotted_arcs(self.arcs, self.dotted))

    @classmethod
    def make(cls, n: int, arcs, dotted=()) -> DottedMatching:
        return cls(n, arcs, dotted)

    @property
    def k(self) -> int:
        """Number of undotted arcs (the homological degree is 2k)."""
        return len(self.arcs) - len(self.dotted)

    @property
    def undotted_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(a for a in self.arcs if a not in self.dotted)

    def right_undotted(self) -> tuple[int, ...]:
        """Right endpoints of the undotted arcs, sorted (the set U_M)."""
        return tuple(sorted(j for _, j in self.undotted_arcs))

    def sort_key(self):
        flags = tuple(a in self.dotted for a in self.arcs)
        return (self.n, self.k, subset_mask(self.right_undotted()), self.arcs, flags)


def check_partition(parts) -> tuple[int, ...]:
    """Normalize a partition: weakly decreasing, nonnegative, zeros stripped.
    Every part must be an ``int`` proper: floats, bools and strings are
    refused, not truncated or parsed."""
    parts = tuple(parts)
    for p in parts:
        if type(p) is not int:
            raise ValueError(f"partition part {p!r} is not an integer")
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


def encode(m: DottedMatching) -> tuple[int, int]:
    """The ``(opens, dots)`` code of a matching object."""
    return opens_mask(m.arcs), opens_mask(m.dotted)


def decode(opens: int, dots: int) -> dict:
    """The matching of a code as a witness: n, arcs and dotted arcs."""
    arcs, partner = decode_word(opens)
    return {"n": len(partner), "arcs": arcs, "dotted": [(i, j) for i, j in arcs if dots >> (i - 1) & 1]}


def code_matching(opens: int, dots: int) -> DottedMatching:
    """The matching object of a code: the inverse of :func:`encode`."""
    return DottedMatching.make(**decode(opens, dots))


def enumerate_noncrossing(n: int) -> tuple[NoncrossingMatching, ...]:
    """All noncrossing perfect matchings of {1..n} as new objects, in
    :func:`dyck_words` order: only the words are cached."""
    return tuple(NoncrossingMatching(n, decode_word(opens)[0]) for opens in dyck_words(n))


def is_standard(m: DottedMatching) -> bool:
    """True when no dotted arc of ``m`` is nested below another arc: its
    nesting measure is 0."""
    return nesting(*encode(m)) == 0


def standard_bottom_sets(n: int, k: int) -> list[tuple[int, ...]]:
    """Bottom rows of the standard (n-k, k) tableaux, in undot-set order: the
    k-subsets that pass :func:`column_condition`, after :func:`check_degree`."""
    check_degree(n, k)
    sets = [b for b in itertools.combinations(range(1, n + 1), k) if column_condition(b)]
    sets.sort(key=subset_mask)
    return sets


def enumerate_standard(n: int, k: int) -> tuple[DottedMatching, ...]:
    """All standard dotted matchings on n vertices with exactly k undotted
    arcs: the cached :func:`standard_codes` of the degree, decoded into new
    objects at each call.

    Canonical order: increasing in the undot set U_M (right endpoints of the
    undotted arcs) in the undot-set order, that is by :func:`subset_mask`.
    """
    return tuple(code_matching(*code) for code in standard_codes(n, k))


def phi(m: DottedMatching) -> TwoRowTableau:
    """Tableau whose bottom row is the right endpoints of the undotted arcs."""
    return TwoRowTableau(m.n, m.right_undotted())


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


def theta(t: TwoRowTableau) -> DottedMatching:
    """Standard dotted matching associated to a standard two-row tableau:
    :func:`theta_code` of its bottom row, decoded."""
    return code_matching(*theta_code(t.n, t.bottom))


@cache
def standard_codes(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """The standard matchings of degree (n, k) as ``(opens, dots)`` codes:
    :func:`theta_code` of each standard tableau, in undot-set order of their
    bottom rows.  Cached per degree."""
    return tuple(theta_code(n, bottom) for bottom in standard_bottom_sets(n, k))


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
