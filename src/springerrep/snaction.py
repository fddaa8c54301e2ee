"""The symmetric-group action on the standard matching basis.

A simple transposition s_i acts on a standard matching M through one of
four local configurations at the vertices i, i+1:

  1. both vertices on dotted arcs        ->  M
  2. (i, i+1) an undotted arc            ->  -M
  3. different arcs, exactly one dotted  ->  M + M'
  4. different arcs, neither dotted      ->  M + M'

where M' rewires the two arcs through i and i+1 into the undotted arc
(i, i+1) plus an arc joining the two far endpoints, which in case 3
carries the dot.  Acting on the signed line-diagram expansion by strand
permutation gives the same answer; :func:`chart_diagram_consistency`
checks that identity exhaustively, and it is what makes the chart a
representation at all.

The chart is evaluated once per (n, k, i, basis matching) and stored in a
per-degree table: the standard basis of degree (n, k), its index, and for
each s_i the sparse integer columns of its matrix.  Every image must be a
standard basis matching, or building the table fails.  Characters, Coxeter
checks and representation matrices run on integer vectors over that
table.  The public action works on classes: an arbitrary sum of dotted
matchings is first rewritten into the standard basis, then acted on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial

from .errors import VerificationError
from .formal import FormalSum
from .linediagrams import expand
from .matchings import DottedMatching, check_partition, enumerate_standard, partitions_of
from .perms import Permutation
from .rewriting import reduce_to_standard

Column = tuple[tuple[int, int], ...]  # sparse (row, coefficient) pairs


@dataclass(frozen=True)
class RepMatrix:
    """Integer matrix of a group element on the degree-(n, k) standard basis."""

    n: int
    k: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class _Tables:
    """The chart action of every s_i on one degree, by basis index."""

    n: int
    basis: tuple[DottedMatching, ...]
    index: dict[DottedMatching, int]
    columns: tuple[tuple[Column, ...], ...]  # columns[i - 1][c]: image of basis[c] under s_i

    @cached_property
    def characters(self) -> dict[tuple[int, ...], int]:
        """Trace of every class word, from one walk of the class tree per column.

        Cancelled entries are dropped after every step: class words cancel
        often, and a zero carried down the tree costs a lookup at each step.
        """
        tree = class_tree(self.n)
        traces = dict.fromkeys((parts for parts, _, _ in tree), 0)
        for c in range(len(self.basis)):
            vectors = {}
            for parts, parent, letter in tree:
                if parent is None:
                    vec = {c: 1}
                else:
                    step = _step(self.columns[letter - 1], vectors[parent])
                    vec = {r: coef for r, coef in step.items() if coef}
                vectors[parts] = vec
                traces[parts] += vec.get(c, 0)
        return traces


def _chart(i: int, m: DottedMatching) -> list[tuple[DottedMatching, int]]:
    """The four-case local rule for s_i on a standard matching."""
    arc_left = m.matching.arc_containing(i)
    arc_right = m.matching.arc_containing(i + 1)
    if arc_left == arc_right:
        return [(m, 1 if m.is_dotted(arc_left) else -1)]
    if m.is_dotted(arc_left) and m.is_dotted(arc_right):
        return [(m, 1)]
    j = m.matching.partner(i)
    k = m.matching.partner(i + 1)
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


@cache
def _tables(n: int, k: int) -> _Tables:
    basis = enumerate_standard(n, k)
    index = {m: r for r, m in enumerate(basis)}
    columns = []
    for i in range(1, n):
        generator = []
        for m in basis:
            column = []
            for image, coef in _chart(i, m):
                if image not in index:
                    raise VerificationError(
                        "chart image is not a standard basis matching",
                        {"n": n, "k": k, "i": i, "arcs": m.arcs, "dotted": sorted(m.dotted)},
                    )
                column.append((index[image], coef))
            generator.append(tuple(column))
        columns.append(tuple(generator))
    return _Tables(n, basis, index, tuple(columns))


def _check_word(word: tuple[int, ...], n: int) -> None:
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for n={n}")


def _step(columns: tuple[Column, ...], vec: dict[int, int]) -> dict[int, int]:
    """Apply one generator, given by its columns, to an integer vector."""
    acc: dict[int, int] = {}
    get = acc.get
    for c, coef in vec.items():
        for r, entry in columns[c]:
            acc[r] = get(r, 0) + coef * entry
    return acc


def _apply(tables: _Tables, word: tuple[int, ...], vec: dict[int, int]) -> dict[int, int]:
    """Apply a word to an integer vector, rightmost letter first."""
    for letter in reversed(word):
        vec = _step(tables.columns[letter - 1], vec)
    return {r: coef for r, coef in vec.items() if coef}


def act_simple(i: int, m: DottedMatching) -> FormalSum:
    """Action of the simple transposition s_i on the class of a matching."""
    return act_word((i,), FormalSum.single(m))


def act_word(word: tuple[int, ...], v: FormalSum) -> FormalSum:
    """Apply a word in the simple transpositions, rightmost letter first.

    ``v`` may be any sum of dotted matchings; each degree is rewritten into
    the standard basis once and the result is expressed in that basis.
    """
    degrees: dict[tuple[int, int], list[tuple[DottedMatching, int]]] = {}
    for m, coef in v:
        degrees.setdefault((m.n, m.k), []).append((m, coef))
    result = FormalSum.zero()
    for (n, k), terms in degrees.items():
        _check_word(word, n)
        tables = _tables(n, k)
        vec = {tables.index[m]: coef for m, coef in reduce_to_standard(FormalSum(terms))}
        image = _apply(tables, word, vec)
        result += FormalSum((tables.basis[r], coef) for r, coef in image.items())
    return result


def act_permutation(w: Permutation, v: FormalSum) -> FormalSum:
    """Linear action of an arbitrary permutation, via a reduced word."""
    return act_word(w.reduced_word(), v)


def rep_matrix(n: int, k: int, i: int) -> RepMatrix:
    """Matrix of s_i; column c holds the image of the c-th basis matching."""
    tables = _tables(n, k)
    _check_word((i,), n)
    size = len(tables.basis)
    entries = [[0] * size for _ in range(size)]
    for c in range(size):
        for r, coef in _apply(tables, (i,), {c: 1}).items():
            entries[r][c] = coef
    return RepMatrix(n, k, tuple(tuple(row) for row in entries))


@dataclass(frozen=True)
class CoxeterReport:
    n: int
    k: int
    involutions: int
    braid: int
    commuting: int


def verify_coxeter(n: int, k: int) -> CoxeterReport:
    """Check s_i^2 = 1, braid, and commuting relations on the rep matrices."""
    tables = _tables(n, k)

    def is_identity_word(word: tuple[int, ...]) -> bool:
        return all(_apply(tables, word, {c: 1}) == {c: 1} for c in range(len(tables.basis)))

    involutions = braid = commuting = 0
    for i in range(1, n):
        if not is_identity_word((i, i)):
            raise VerificationError("s_i^2 != 1", {"n": n, "k": k, "i": i})
        involutions += 1
    for i in range(1, n - 1):
        if not is_identity_word((i, i + 1) * 3):
            raise VerificationError("braid relation fails", {"n": n, "k": k, "i": i, "j": i + 1})
        braid += 1
    for i in range(1, n):
        for j in range(i + 2, n):
            if not is_identity_word((i, j) * 2):
                raise VerificationError("commuting relation fails", {"n": n, "k": k, "i": i, "j": j})
            commuting += 1
    return CoxeterReport(n, k, involutions, braid, commuting)


def _cycle_type(n: int, cycle_type) -> tuple[int, ...]:
    parts = check_partition(cycle_type)
    if sum(parts) != n:
        raise ValueError(f"cycle type {parts} does not partition {n}")
    return parts


def class_representative(n: int, cycle_type) -> Permutation:
    """Cycles on consecutive blocks: type (3,2) gives (1 2 3)(4 5)."""
    images = list(range(1, n + 1))
    start = 1
    for part in _cycle_type(n, cycle_type):
        for x in range(start, start + part - 1):
            images[x - 1] = x + 1
        images[start + part - 2] = start
        start += part
    return Permutation(tuple(images))


def class_word(n: int, cycle_type) -> tuple[int, ...]:
    """The letters of the class word of a cycle type, in the order applied.

    Block j..j+p-1 contributes s_j, ..., s_{j+p-2}, blocks left to right;
    the product is a p-cycle on each block, so it lies in the class.
    """
    word: list[int] = []
    start = 1
    for part in _cycle_type(n, cycle_type):
        word.extend(range(start, start + part - 1))
        start += part
    return tuple(word)


@cache
def class_tree(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...] | None, int], ...]:
    """Every cycle type of n as (type, parent, letter), parents before children.

    The parent is the type with its last part above 1 lowered by one and a
    1 appended; its class word is the type's without the last letter,
    ``letter``.  The root 1^n has parent None and the empty word.
    """
    tree = []
    for parts in sorted(partitions_of(n), key=len, reverse=True):  # shorter words first
        cycles = [j for j, part in enumerate(parts) if part > 1]
        if not cycles:
            tree.append((parts, None, 0))
            continue
        j = cycles[-1]
        parent = parts[:j] + (parts[j] - 1,) + parts[j + 1:] + (1,)
        tree.append((parts, parent, class_word(n, parts)[-1]))
    return tuple(tree)


def centralizer_order(cycle_type) -> int:
    """z_lambda = prod over part sizes j of j^m_j * m_j!."""
    parts = check_partition(cycle_type)
    z = 1
    for size in set(parts):
        mult = parts.count(size)
        z *= size**mult * factorial(mult)
    return z


def character(n: int, k: int, cycle_type) -> int:
    """Trace of the class word of a cycle type on degree (n, k).

    Applies that one word, the path from the root of :func:`class_tree`;
    :func:`character_table` has every class at once.
    """
    word = class_word(n, cycle_type)[::-1]
    tables = _tables(n, k)
    return sum(_apply(tables, word, {c: 1}).get(c, 0) for c in range(len(tables.basis)))


def character_table(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Every class character of degree (n, k), built once with its tables."""
    return dict(_tables(n, k).characters)


def class_inner_product(a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]) -> Fraction:
    """<a, b> = sum over cycle types of a * b / z_lambda, for class functions of S_n."""
    terms = (Fraction(a[parts] * b[parts], centralizer_order(parts)) for parts in a)
    return sum(terms, Fraction(0))


def irreducibility_check(n: int, k: int) -> Fraction:
    """Character inner product <chi, chi>; equals 1 exactly for irreducibles.

    Reads the degree's character table, one walk of the class tree.
    """
    chi = character_table(n, k)
    return class_inner_product(chi, chi)


def _swap_strands(mask: int, i: int) -> int:
    """Exchange strands i and i+1 of a diagram whose strand x is bit x-1."""
    pair = 0b11 << (i - 1)
    both = mask & pair
    return mask ^ pair if both and both != pair else mask


def chart_diagram_consistency(n: int, k: int) -> bool:
    """Does the chart action match strand permutation of the expansions?

    For every standard M and generator s_i, the expansion of the chart's
    answer must equal the relabelled expansion of M.  This is the central
    identity behind the representation.  Diagrams are held as bitmasks of
    their undot sets; the diagram side never reads the action tables.
    """
    basis = enumerate_standard(n, k)
    diagrams = [
        {sum(1 << (x - 1) for x in u.members): coef for u, coef in expand(m)} for m in basis
    ]
    tables = _tables(n, k)
    for c, m in enumerate(basis):
        for i in range(1, n):
            via_diagram = {_swap_strands(mask, i): coef for mask, coef in diagrams[c].items()}
            via_chart: dict[int, int] = {}
            for r, coef in tables.columns[i - 1][c]:
                for mask, sign in diagrams[r].items():
                    via_chart[mask] = via_chart.get(mask, 0) + coef * sign
            if {mask: coef for mask, coef in via_chart.items() if coef} != via_diagram:
                raise VerificationError(
                    "chart action disagrees with diagram permutation",
                    {"n": n, "k": k, "i": i, "arcs": m.arcs, "dotted": sorted(m.dotted)},
                )
    return True
