"""Independent brute-force oracles used by the tests.

Everything here recomputes expected values from first principles — raw
enumeration, direct pattern filtering, fixed-point counting — without going
through the package's own shortcuts, so agreement is meaningful.
"""

from __future__ import annotations

import itertools

from springerrep import DottedMatching, act_permutation, is_standard
from springerrep.formal import FormalSum
from springerrep.matchings import enumerate_noncrossing, enumerate_standard
from springerrep.perms import Permutation


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
