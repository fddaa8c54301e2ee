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

The chart runs on the ``(opens, dots)`` codes of :mod:`springerrep.rewriting`
with a partner array per matching: cases 1 and 2 are read off the bits, and
M' clears the four endpoint bits and sets those of i and the nearer far end.
It is evaluated once per (n, k, i, basis matching) into a per-degree table:
the standard basis, its index by code, and for each s_i the sparse integer
columns of its matrix; an image outside the basis fails the build.
Characters and representation matrices run on vectors over that table, the
Coxeter relations on whole matrices as column products.  The public action
works on classes: an arbitrary sum of dotted matchings is first rewritten
into the standard basis, then acted on.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial

from .errors import VerificationError
from .formal import FormalSum
from .linediagrams import _swap_strands, expansion_masks
from .matchings import DottedMatching, check_partition, enumerate_standard, partitions_of
from .perms import Permutation
from .rewriting import _encode, reduce_to_standard

Column = tuple[tuple[int, int], ...]  # sparse (row, coefficient) pairs


@dataclass(frozen=True)
class RepMatrix:
    """Integer matrix of a group element on the degree-(n, k) standard basis."""

    n: int
    k: int
    entries: tuple[tuple[int, ...], ...]

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class _Tables:
    """The chart action of every s_i on one degree, by basis index."""

    n: int
    basis: tuple[DottedMatching, ...]
    index: dict[tuple[int, int], int]  # (opens, dots) code -> basis index
    columns: tuple[tuple[Column, ...], ...]  # columns[i - 1][c]: image of basis[c] under s_i

    @cached_property
    def characters(self) -> dict[tuple[int, ...], int]:
        return class_characters(self.n, self.columns, len(self.basis))


def _chart(i: int, opens: int, dots: int, partner: list[int]) -> list[tuple[int, int, int]]:
    """The four-case local rule for s_i on a standard matching code, as
    (opens, dots, coef) terms; ``partner[v]`` is the bit joined to bit v."""
    a, b = i - 1, i
    j, k = partner[a], partner[b]
    if j == b:
        return [(opens, dots, 1 if dots >> a & 1 else -1)]
    left_dotted, right_dotted = dots >> min(a, j) & 1, dots >> min(b, k) & 1
    if left_dotted and right_dotted:
        return [(opens, dots, 1)]
    ends, far = 1 << a | 1 << b | 1 << j | 1 << k, 1 << min(j, k)
    dot = far if left_dotted != right_dotted else 0
    return [(opens, dots, 1), (opens & ~ends | 1 << a | far, dots & ~ends | dot, 1)]


@cache
def _tables(n: int, k: int) -> _Tables:
    basis = enumerate_standard(n, k)
    codes = [_encode(m) for m in basis]
    index = {code: r for r, code in enumerate(codes)}
    partners = [[0] * n for _ in basis]
    for partner, m in zip(partners, basis):
        for x, y in m.arcs:
            partner[x - 1], partner[y - 1] = y - 1, x - 1
    columns = []
    for i in range(1, n):
        generator = []
        for c, (opens, dots) in enumerate(codes):
            column = []
            for image_opens, image_dots, coef in _chart(i, opens, dots, partners[c]):
                r = index.get((image_opens, image_dots))
                if r is None:
                    m = basis[c]
                    raise VerificationError(
                        "chart image is not a standard basis matching",
                        {"n": n, "k": k, "i": i, "arcs": m.arcs, "dotted": sorted(m.dotted)},
                    )
                column.append((r, coef))
            generator.append(tuple(column))
        columns.append(tuple(generator))
    return _Tables(n, basis, index, tuple(columns))


def class_characters(n: int, columns, dim: int) -> dict[tuple[int, ...], int]:
    """Trace of every class word on a representation of S_n, from one walk of
    the class tree per basis column; ``columns[i - 1][c]`` is the image of
    basis vector c under s_i.

    Cancelled entries are dropped after every step: class words cancel
    often, and a zero carried down the tree costs a lookup at each step.
    """
    tree = class_tree(n)
    traces = dict.fromkeys((parts for parts, _, _ in tree), 0)
    for c in range(dim):
        vectors = {}
        for parts, parent, letter in tree:
            if parent is None:
                vec = {c: 1}
            else:
                step = _step(columns[letter - 1], vectors[parent].items())
                vec = {r: coef for r, coef in step.items() if coef}
            vectors[parts] = vec
            traces[parts] += vec.get(c, 0)
    return traces


def _check_word(word: tuple[int, ...], n: int) -> None:
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for n={n}")


def _step(columns: tuple[Column, ...], vec: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Apply one generator, given by its columns, to the (index, coefficient)
    pairs of an integer vector."""
    acc: dict[int, int] = {}
    get = acc.get
    for c, coef in vec:
        for r, entry in columns[c]:
            acc[r] = get(r, 0) + coef * entry
    return acc


def _product(left: tuple[Column, ...], right: tuple[Column, ...]) -> tuple[Column, ...]:
    """Columns of the matrix product left * right, each sorted by row with
    zeros dropped, so that equal matrices compare equal."""
    return tuple(tuple(sorted([e for e in _step(left, col).items() if e[1]])) for col in right)


def _apply(tables: _Tables, word: tuple[int, ...], vec: dict[int, int]) -> dict[int, int]:
    """Apply a word to an integer vector, rightmost letter first."""
    for letter in reversed(word):
        vec = _step(tables.columns[letter - 1], vec.items())
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
        vec = {tables.index[_encode(m)]: coef for m, coef in reduce_to_standard(FormalSum(terms))}
        image = _apply(tables, word, vec)
        result += FormalSum((tables.basis[r], coef) for r, coef in image.items())
    return result


def act_permutation(w: Permutation, v: FormalSum) -> FormalSum:
    """Linear action of an arbitrary permutation, via a reduced word."""
    return act_word(w.reduced_word(), v)


def rep_matrix(n: int, k: int, i: int) -> RepMatrix:
    """Matrix of s_i; column c holds the image of the c-th basis matching."""
    _check_word((i,), n)
    tables = _tables(n, k)
    size = len(tables.basis)
    entries = [[0] * size for _ in range(size)]
    for c, column in enumerate(tables.columns[i - 1]):
        for r, coef in column:
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
    """Check s_i^2 = 1, then braid and commuting relations, as column products.

    With every s_i an involution, the inverse of a word is the word reversed,
    so (s_i s_{i+1})^3 = 1 holds exactly when s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1},
    and (s_i s_j)^2 = 1 exactly when s_i s_j = s_j s_i.
    """
    tables = _tables(n, k)
    s = (None, *tables.columns)  # s[i]: the columns of s_i
    identity = tuple(((c, 1),) for c in range(len(tables.basis)))
    involutions = braid = commuting = 0
    for i in range(1, n):
        if _product(s[i], s[i]) != identity:
            raise VerificationError("s_i^2 != 1", {"n": n, "k": k, "i": i})
        involutions += 1
    for i in range(1, n - 1):
        a, b = s[i], s[i + 1]
        ab = _product(a, b)
        if _product(ab, a) != _product(b, ab):
            raise VerificationError("braid relation fails", {"n": n, "k": k, "i": i, "j": i + 1})
        braid += 1
    for i in range(1, n):
        for j in range(i + 2, n):
            if _product(s[i], s[j]) != _product(s[j], s[i]):
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


def chart_diagram_consistency(n: int, k: int) -> bool:
    """Does the chart action match strand permutation of the expansions?

    For every standard M and generator s_i, the expansion of the chart's
    answer must equal the relabelled expansion of M.  This is the central
    identity behind the representation.  Diagrams are held as bitmasks of
    their undot sets, from ``expansion_masks``; they never read the tables.
    """
    basis = enumerate_standard(n, k)
    diagrams = [expansion_masks(m) for m in basis]
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
