"""The local lemma behind the rewriting certificate (the ``springerrep.rewriting``
module docstring, fact (3)): E, the image under the antipodal embedding, kills
every Type I/II relation.  A relation's terms share the factor of their
spectator arcs, so what is left is one identity on the four site vertices,
which holds for every parity of them.  The tests also pin the other local
facts the certificate reads: E is +-L_M on standard matchings, and each
kernel step is the relation at its own site.  One more local fact backs the
module-equality certificate: every standard tableau but T0 is s_i of a
standard tableau of smaller mask."""

import itertools
from collections import Counter

import pytest

import springerrep.rewriting as rw
from springerrep.linediagrams import code_expansion_masks
from springerrep.matchings import standard_codes, subset_mask

from bruteforce import degree_generators, relation_vectors, standard_bottoms_bruteforce


def antipodal(a, b):
    """(-1)^a l_a + (-1)^b l_b, the definition, as {vertex: coef}."""
    return {a: (-1) ** a, b: (-1) ** b}


def unsigned(a, b):
    """l_b - l_a, the expansion rule's factor, as {vertex: coef}."""
    return {a: -1, b: 1}


def total(*forms, signs):
    """sum of sign * form, as {vertex: coef}, zeros dropped."""
    out = Counter()
    for form, sign in zip(forms, signs):
        for v, x in form.items():
            out[v] += sign * x
    return {v: x for v, x in out.items() if x}


def type_one(factor, i, j, k, l):
    """The site part of E of the Type I row at i < j < k < l: the side-by-side
    terms dotted on (i,j) and on (k,l), minus the nested ones dotted on (i,l)
    and on (j,k); each keeps the other site arc undotted."""
    return total(factor(k, l), factor(i, j), factor(j, k), factor(i, l), signs=(1, 1, -1, -1))


def antipodal_product(arcs):
    """The product of :func:`antipodal` over ``arcs``, multiplied out, as
    {undot-set mask: coef}."""
    terms = {0: 1}
    for a, b in arcs:
        terms = {mask | 1 << (v - 1): coef * x for mask, coef in terms.items() for v, x in antipodal(a, b).items()}
    return terms


def test_four_vertex_identities_hold_for_every_parity_pattern():
    # Type II dots both site arcs, so both of its terms have the empty site factor
    patterns = set()
    for site in itertools.combinations(range(1, 9), 4):
        patterns.add(tuple(v & 1 for v in site))
        assert type_one(antipodal, *site) == {}
    assert len(patterns) == 16


def test_unsigned_image_fails_type_one_at_vertices_1_to_4():
    # l4 - l3 + l2 - l1 against l3 - l2 + l4 - l1
    assert type_one(unsigned, 1, 2, 3, 4) == {2: 2, 3: -2}


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_image_is_the_antipodal_product(n):
    # every dotted matching, standard or not: the signed L_M is the definition
    for k in range(n // 2 + 1):
        for g in degree_generators(n, k):
            assert rw._image(n, [(rw._encode(g), 1)]) == antipodal_product(g.undotted_arcs)


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_image_kills_every_relation(n):
    for k in range(n // 2 + 1):
        for relation in relation_vectors(n, k):
            assert rw._image(n, [(rw._encode(m), coef) for m, coef in relation]) == {}


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_image_is_the_expansion_up_to_sign_on_standard_matchings(n):
    for k in range(n // 2 + 1):
        for code in standard_codes(n, k):
            image, expansion = rw._image(n, [(code, 1)]), code_expansion_masks(n, *code)
            assert image in (expansion, {mask: -x for mask, x in expansion.items()})


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_kernel_step_is_the_row_at_its_site(n):
    # the step g - (signed children) is minus the row, whose g term is -1
    for k in range(n // 2 + 1):
        for g in rw._generator_codes(n, k):
            if not rw._nesting(*g):
                continue
            site = rw._find_site(n, *g)
            step = {g: 1}
            for opens, dots, sign in rw._rewrite(*g, site):
                step[opens, dots] = step.get((opens, dots), 0) - sign
            assert step == {c: -x for c, x in rw._site_row(n, *g, site[1]).items()}


@pytest.mark.parametrize("n", range(0, 17, 2))
def test_every_standard_row_but_the_pivot_has_a_smaller_standard_parent(n):
    """For a standard bottom row b (b_j >= 2j for each j) other than T0's
    (2, 4, ..., 2k), let j be least with b_j > 2j, and i = b_j - 1.

    Minimality of j gives b_(j-1) = 2(j-1) when j > 1, so b_(j-1) < 2j <= i < b_j:
    i is not in b, and b with b_j replaced by i is sorted with i >= 2j, so
    standard, and its mask is smaller.  This is the parent that
    ``specht.verify_module_equality`` reads for its chain gate."""
    for k in range(n // 2 + 1):
        pivot = tuple(range(2, 2 * k + 1, 2))
        rows = set(standard_bottoms_bruteforce(n, k))
        assert pivot in rows
        for b in rows:
            if b == pivot:
                continue
            j = min(j for j in range(1, k + 1) if b[j - 1] > 2 * j)
            i = b[j - 1] - 1
            parent = b[:j - 1] + (i,) + b[j:]
            assert i not in b
            assert parent in rows and subset_mask(parent) < subset_mask(b)
