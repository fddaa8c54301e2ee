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
checks that identity column by column, on the at most four vertices each
s_i changes, and it is what makes the chart a representation at all.  Its
verdict is cached on the degree's tables, like the character table, until a
verify run ends or ``_tables.cache_clear()``.

The chart runs on the ``(opens, dots)`` codes of :mod:`springerrep.codes`
and the partner array of each word, decoded once per word: cases 1 and 2
are read off the bits, and M' clears the four endpoint bits and sets those
of i and the nearer far end.  It is evaluated once per (n, k, i, basis code)
into a sparse (row, coef) column by basis index, an image outside the basis
failing the build, and :func:`_encode`, the one writer of slot arrays and the
one the property tests drive, writes each s_i as a :class:`_Generator` of the
degree's table, beside the :func:`~springerrep.codes.standard_codes` and
their index.  A generator has one integer array per term layer, one slot per
basis column, and column c of its matrix is the sum over the layers of entry
``layers[t][c]`` of ``packed ++ [0] ++ [e * packed[r] for its entries (r, e)
with e != 1]``: a +1 entry is its row r < dim, a missing term the zero at
slot dim, and any other entry a slot past it.  The chart has two layers, since
every column is ±M or M + M', and only its -M columns need slots past the
zero.  The tables hold codes only, and ``act`` renders its output from them.
The action works on classes: :func:`act_codes` rewrites an arbitrary sum of
codes into the standard basis, the step ``reduce`` takes, then acts on it as
one vector per degree; the object action, :func:`springerrep.matchings.act_word`,
decodes its result.

The Coxeter relations and the class-tree character table are checked
and computed on matrices packed into Python integers (Kronecker
substitution), ``ROW_BLOCK`` = 512 rows at a time.  A block of a column
is the integer sum of A[r][c] * 2^(w*r) with
balanced w-bit digits, |A[r][c]| < 2^(w-1); so two packed matrices are equal
exactly when their integer lists are, and a product A * s_i is two C-level
gathers of A's packed columns through the slot arrays and one big-integer
addition per column.  The width w is computed, never assumed: if R is the
largest column abs-sum of the generators (recorded as each is encoded), a
product of m of them has entries of size at most R^m, so w = m *
ceil(log2 R) + 2 bits hold every digit, whatever chart the tables were
built from.  The Coxeter words have m = 3 and the class words m <= n - 1.
Blocks are taken one after another, so neither holds a whole matrix per
generator or tree node: every degree with n <= 12 (dimension at most 297)
is one block, n = 14 (up to 1001) two and n = 16 (up to 3640) eight.  A
node's trace, digit c - start of each column c of the block, is read in one
pass: adding 2^(w-1) to every digit makes all of them unsigned without a
carry, so each is a shift and a mask, and the bias is subtracted back.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache, cached_property, reduce
from itertools import repeat
from math import factorial
from operator import add, and_, rshift
from typing import TYPE_CHECKING, NamedTuple

from .codes import check_partition, decode, decode_word, pair_product, partitions_of, standard_codes, transpose_mask
from .errors import VerificationError
from .rewriting import Degrees, _standard

if TYPE_CHECKING:
    from array import array
    from fractions import Fraction

class _Generator(NamedTuple):
    """One s_i as flat slot arrays, written by :func:`_encode`, one slot per basis column in each
    term layer.  The slots index the list :func:`_times` builds from a left factor's packed
    columns: slot r < dim is the entry (r, 1), slot dim the zero of a missing term, and slot
    dim + 1 + j the entry (rows[j], coefs[j])."""

    layers: tuple[array, ...]  # layers[t][c]: the slot of term t of column c
    rows: array  # rows and coefficients of the entries whose coefficient is not 1,
    coefs: tuple[int, ...]  # in column order
    radius: int  # the largest column abs-sum


class _Tables:
    """The chart action of every s_i on one degree, by basis index, as slot
    arrays, and the degree's character table, computed once from it on packed
    matrices, and consistency verdict, computed once from its columns."""

    def __init__(self, n: int, codes: tuple[tuple[int, int], ...], index: dict[tuple[int, int], int],
                 generators: tuple[_Generator, ...]):
        self.n = n
        self.codes = codes  # (opens, dots) of each basis matching
        self.index = index  # (opens, dots) code -> basis index
        self.generators = generators  # generators[i - 1]: s_i
        # R, the largest column abs-sum of the generators (1 if none), each recorded when encoded
        self.radius = max((g.radius for g in generators), default=1)

    def width(self, length: int) -> int:
        """Digit width in bits for products of up to ``length`` generators:
        every entry of one is at most R^length in size."""
        return length * (max(self.radius, 1) - 1).bit_length() + 2

    @cached_property
    def characters(self) -> dict[tuple[int, ...], int]:
        """Trace of every class, from one walk of the class tree on packed
        matrices, ``ROW_BLOCK`` rows at a time.

        Each tree edge is one right multiplication, so a node holds the
        product of its class word's generators in the order applied, s_{w_1}
        ... s_{w_m}: the class element s_{w_m} ... s_{w_1} reversed.  With
        every s_i an involution the reversed word is the inverse, and every
        element of S_n is conjugate to its inverse, so the trace is the same.
        The walk is depth first, so the only matrices held are those of the
        ancestors with children still to visit.
        """
        tree = class_tree(self.n)
        dim = len(self.codes)
        w = self.width(self.n - 1)  # class words have at most n - 1 letters
        half, mask = 1 << w - 1, (1 << w) - 1
        children: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        for parts, parent, letter in tree[1:]:
            children.setdefault(parent, []).append((parts, letter))
        traces = dict.fromkeys((parts for parts, _, _ in tree), 0)
        for start in range(0, dim, ROW_BLOCK):
            rows = range(start, min(start + ROW_BLOCK, dim))
            bias = sum(half << w * r for r in range(len(rows)))
            shifts = range(0, w * len(rows), w)
            stack = [(tree[0][0], 0, None)]
            while stack:
                parts, letter, parent = stack.pop()
                if parent is None:
                    node = _identity(rows, dim, w)
                else:
                    node = _times(parent, self.generators[letter - 1])
                # digit c - start of each column c, biased by half to read unsigned
                digits = map(rshift, map(add, node[rows.start:rows.stop], repeat(bias)), shifts)
                traces[parts] += sum(map(and_, digits, repeat(mask))) - len(rows) * half
                stack += ((child, letter, node) for child, letter in children.get(parts, ()))
        return traces

    @cached_property
    def consistent(self) -> bool:
        """Does the chart action match strand permutation of the expansions?

        For every standard M and s_i, the terms (r, coef) of column c of s_i
        must satisfy sum coef * L_r = P_i * L_M, P_i the exchange of strands i
        and i+1: the central identity behind the representation, checked in
        factored form.  The chart changes only the arcs through i and i+1, whose
        endpoints V are at most four bits, so every term but M must agree with M
        off V, on opens and dots, and join the bits of V among themselves.  Then
        each L_r is F * g_r, F the product over M's arcs off V, which P_i fixes,
        and g_r that over r's undotted arcs inside V; F shares no variable with
        g, so the column holds exactly when sum coef * g_r = P_i * g_M
        (:func:`_local_identity`), decided once per configuration.  It holds for
        every configuration a standard M has (L4 in ``tests/test_local_lemmas.py``).
        A failure, raised and never stored, reports the least basis index c,
        then the least i at it.
        """
        n, codes = self.n, self.codes
        partners = [decode_word(opens)[1] for opens, _ in codes]
        holds = cache(_local_identity)  # configurations shifted to bit 0, for this call only
        for c, ((opens, dots), partner) in enumerate(zip(codes, partners)):
            for i, g in enumerate(self.generators, 1):
                a, b, j, k = i - 1, i, partner[i - 1], partner[i]
                v = 3 << a | 1 << j | 1 << k
                low = (v & -v).bit_length() - 1
                config, local = [a - low, v >> low, (opens & v) >> low, (dots & v) >> low], True
                for r, coef in _step(g, ((c, 1),)).items():
                    term_opens, term_dots = codes[r]
                    if r != c:
                        near = partners[r]
                        local = (local and not (term_opens ^ opens | term_dots ^ dots) & ~v
                                 and 1 << near[a] | 1 << near[b] | 1 << near[j] | 1 << near[k] == v)
                    config += (term_opens & v) >> low, (term_dots & v) >> low, coef
                if not (local and holds(*config)):
                    raise VerificationError("chart action disagrees with diagram permutation",
                                            {"n": n, "k": n // 2 - dots.bit_count(), "i": i, **decode(opens, dots)})
        return True


def _inside(v: int, opens: int, dots: int) -> dict[int, int]:
    """The product over a code's undotted arcs among the bits of v, as {mask: +-1}, for a
    code that joins the bits of v among themselves: a Dyck word on them."""
    stack, arcs = [], []
    for e in range(v.bit_length()):
        if v >> e & 1:
            if opens >> e & 1:
                stack.append(e)
            elif not dots >> (a := stack.pop()) & 1:
                arcs.append((a + 1, e + 1))
    return pair_product(arcs)


def _local_identity(a: int, v: int, opens: int, dots: int, *terms: int) -> bool:
    """Is the sum of coef * g_term, with bits a and a + 1 exchanged, equal to g_M on the
    bits of v?  g is :func:`_inside` of M's (opens, dots) and of each term's (opens, dots, coef)."""
    total: dict[int, int] = {}
    for term_opens, term_dots, coef in zip(*[iter(terms)] * 3):
        for u, x in _inside(v, term_opens, term_dots).items():
            total[u] = total.get(u, 0) + coef * x
    return {transpose_mask(u, 3 << a): x for u, x in total.items() if x} == _inside(v, opens, dots)


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


def _encode(dim: int, columns: Iterable[Iterable[tuple[int, int]]]) -> _Generator:
    """The slot arrays of a dim x dim matrix, written term by term as its sparse (row, coef)
    columns are read: a layer is added, all zero slots, when a column first has that many terms."""
    # imported here: a CLI start that builds no table need not load the extension
    from array import array

    layers, rows, coefs, radius = [array("i", [dim]) * dim], array("i"), [], 0
    for c, column in enumerate(columns):
        size = 0
        for t, (r, coef) in enumerate(column):
            if t == len(layers):
                layers.append(array("i", [dim]) * dim)
            if coef != 1:
                rows.append(r)
                coefs.append(coef)
                r = dim + len(rows)
            layers[t][c] = r
            size += abs(coef)
        radius = max(radius, size)
    return _Generator(tuple(layers), rows, tuple(coefs), radius)


@cache
def _tables(n: int, k: int) -> _Tables:
    """The degree's basis codes and every s_i, least i first, the chart's sparse (row, coef)
    columns encoded as they are evaluated; an image outside the basis fails the build."""
    codes = standard_codes(n, k)
    index = {code: r for r, code in enumerate(codes)}
    partners = [decode_word(opens)[1] for opens, _ in codes]

    def columns(i: int) -> Iterator[list[tuple[int, int]]]:
        for (opens, dots), partner in zip(codes, partners):
            column = []
            for image_opens, image_dots, coef in _chart(i, opens, dots, partner):
                r = index.get((image_opens, image_dots))
                if r is None:
                    raise VerificationError("chart image is not a standard basis matching",
                                            {"n": n, "k": k, "i": i, **decode(opens, dots)})
                column.append((r, coef))
            yield column

    return _Tables(n, codes, index, tuple(_encode(len(codes), columns(i)) for i in range(1, n)))


def _check_word(word: tuple[int, ...], n: int) -> None:
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for n={n}")


def _step(g: _Generator, vec: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Apply one generator to the (index, coefficient) pairs of an integer
    vector, reading each slot of a column as a row, an extra entry or none."""
    acc: dict[int, int] = {}
    get = acc.get
    dim = len(g.layers[0])
    for c, coef in vec:
        for layer in g.layers:
            slot = layer[c]
            if slot < dim:
                acc[slot] = get(slot, 0) + coef
            elif slot > dim:
                r = g.rows[slot - dim - 1]
                acc[r] = get(r, 0) + coef * g.coefs[slot - dim - 1]
    return acc


ROW_BLOCK = 512  # rows per packed integer in the class-tree walk and the Coxeter check: one block for every n <= 12


def _identity(rows: range, dim: int, w: int) -> list[int]:
    """Packed columns of the given rows of the dim x dim identity."""
    return [1 << w * (c - rows.start) if c in rows else 0 for c in range(dim)]


def _times(packed: list[int], g: _Generator) -> list[int]:
    """Packed columns of A * S, from those of A and the slots of S: one gather
    per layer, added column by column, from the list of A's columns, 0, then
    e * packed[r] for each entry (r, e) whose coefficient is not 1."""
    gather = [*packed, 0, *(e * packed[r] for r, e in zip(g.rows, g.coefs))].__getitem__
    first, *rest = g.layers
    product = map(gather, first)
    for layer in rest:
        product = map(add, product, map(gather, layer))
    return list(product)


def _apply(tables: _Tables, word: tuple[int, ...], vec: dict[int, int]) -> dict[int, int]:
    """Apply a word to an integer vector, rightmost letter first."""
    for letter in reversed(word):
        vec = _step(tables.generators[letter - 1], vec.items())
    return {r: coef for r, coef in vec.items() if coef}


def act_codes(word: tuple[int, ...], degrees: Degrees) -> dict[tuple[int, int], int]:
    """Apply a word to a sum split by :func:`springerrep.rewriting._by_degree` into one
    ``{(opens, dots): coef}`` per degree, each rewritten into the standard basis on its
    codes and acted on as one integer vector: the image as ``{(opens, dots): coef}``."""
    result = {}
    for (n, k), codes in degrees.items():
        _check_word(word, n)
        tables = _tables(n, k)
        vec = {tables.index[code]: coef for code, coef in _standard(codes, n, k).items()}
        for r, coef in _apply(tables, word, vec).items():
            result[tables.codes[r]] = coef
    return result


def rep_matrix(n: int, k: int, i: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the integer matrix of s_i on the degree's standard basis;
    column c holds the image of the c-th basis matching."""
    _check_word((i,), n)
    tables = _tables(n, k)
    size = len(tables.codes)
    entries = [[0] * size for _ in range(size)]
    for c in range(size):
        for r, coef in _step(tables.generators[i - 1], ((c, 1),)).items():
            entries[r][c] = coef
    return tuple(map(tuple, entries))


def verify_coxeter(n: int, k: int) -> int:
    """Check s_i^2 = 1, then braid and commuting relations, on packed matrices
    ``ROW_BLOCK`` rows at a time, and return how many relations were checked.

    With every s_i an involution, the inverse of a word is the word reversed,
    so (s_i s_{i+1})^3 = 1 holds exactly when s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1},
    and (s_i s_j)^2 = 1 exactly when s_i s_j = s_j s_i.  Each relation is a pair
    of words whose products must be equal; no word is longer than three letters,
    and the digit width is chosen for that.  A failure names the first relation,
    in list order, that fails in any block.
    """
    tables = _tables(n, k)
    dim, w = len(tables.codes), tables.width(3)
    relations = [("s_i^2 != 1", {"i": i}, (i, i), ()) for i in range(1, n)]
    relations += [("braid relation fails", {"i": i, "j": i + 1}, (i, i + 1, i), (i + 1, i, i + 1))
                  for i in range(1, n - 1)]
    relations += [("commuting relation fails", {"i": i, "j": j}, (i, j), (j, i))
                  for i in range(1, n) for j in range(i + 2, n)]
    failed = len(relations)  # the first failing relation so far
    for start in range(0, dim, ROW_BLOCK):
        identity = _identity(range(start, min(start + ROW_BLOCK, dim)), dim, w)
        packed = (identity, *(_times(identity, g) for g in tables.generators))  # packed[i]: s_i, packed[0]: 1

        def product(word: tuple[int, ...]) -> list[int]:
            return reduce(_times, (tables.generators[i - 1] for i in word[1:]), packed[word[0] if word else 0])

        failed = next((r for r, (_, _, left, right) in enumerate(relations[:failed])
                       if product(left) != product(right)), failed)
    if failed < len(relations):
        message, witness, _, _ = relations[failed]
        raise VerificationError(message, {"n": n, "k": k, **witness})
    return len(relations)


def _cycle_type(n: int, cycle_type) -> tuple[int, ...]:
    parts = check_partition(cycle_type)
    if sum(parts) != n:
        raise ValueError(f"cycle type {parts} does not partition {n}")
    return parts


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
    return sum(_apply(tables, word, {c: 1}).get(c, 0) for c in range(len(tables.codes)))


def character_table(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Every class character of degree (n, k), built once with its tables."""
    return dict(_tables(n, k).characters)


@cache
def _class_sizes(n: int) -> dict[tuple[int, ...], int]:
    """n!/z_lambda, the size of every conjugacy class of S_n."""
    return {parts: factorial(n) // centralizer_order(parts) for parts in partitions_of(n)}


def class_inner_product(a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]) -> Fraction:
    """<a, b> = sum over cycle types of a * b / z_lambda, for class functions of
    S_n: the integer sum of a * b * n!/z_lambda over n!.  Both must have exactly
    the cycle types of n, read off the first type of ``a``, as keys."""
    # imported here: fractions pulls in decimal, which every CLI start would pay for
    from fractions import Fraction

    n = sum(next(iter(a), ()))
    sizes = _class_sizes(n)
    for name, f in (("first", a), ("second", b)):
        if f.keys() != sizes.keys():
            missing, extra = sorted(sizes.keys() - f.keys()), sorted(f.keys() - sizes.keys())
            problem = f"lacks the class {missing[0]}" if missing else f"has the class {extra[0]}, not one"
            raise ValueError(f"mismatched class functions: the {name} {problem} of S_{n}")
    return Fraction(sum(a[parts] * b[parts] * size for parts, size in sizes.items()), factorial(n))


def irreducibility_check(n: int, k: int) -> Fraction:
    """Character inner product <chi, chi>; equals 1 exactly for irreducibles.

    Reads the degree's character table, one walk of the class tree.
    """
    chi = character_table(n, k)
    return class_inner_product(chi, chi)


def chart_diagram_consistency(n: int, k: int) -> bool:
    """The chart carries L_M to P_i L_M on degree (n, k): the verdict :attr:`_Tables.consistent`,
    cached until ``_tables.cache_clear()``, which only ``verify.run_suites`` calls on its own."""
    return _tables(n, k).consistent
