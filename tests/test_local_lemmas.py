"""Local lemmas behind three certificates, each a finite check that stands
for every n.

Rewriting (the ``springerrep.rewriting`` module docstring, fact (3)):
(L1) E, the image under the antipodal embedding, kills every Type I/II
relation.  A relation's terms share the factor of their spectator arcs, so
what is left is one identity on the four site vertices, which holds for
every parity of them.  (L2) Each kernel step is the relation at its own
site, and E is +-L_M on standard matchings.

Consistency (``snaction._Tables.consistent``): (L4) the chart changes only
the arcs through i and i+1, so P_i L_M = sum of the chart's terms is one
identity on at most four vertices.  Of the 14 local configurations, the 12
that hold include every one a standard matching has.  (L5) The chart's image
of a standard matching is standard, in the same degree, so the chart never
leaves the basis.

Echelon and output order (``linediagrams.echelon_certificate``,
``jsonio.standard_terms``): (L6) the largest key of L_M is U_M, the right
endpoints of the undotted arcs, with coefficient +1, and distinct standard M
have distinct U_M.  So the L_M of one degree are in echelon form by U_M, and
(n, k, U_M) alone orders the standard matchings as their sort key does.

Module equality (``specht.verify_module_equality``): the down operator d
sends a subset mask S to the sum over x in S of S - {x}.  (L8) d kills every
product over disjoint pairs of (l_b - l_a): every L_M, e_T and e_M.  (L9)
dU - Ud = (n - 2j) I on the j-subsets, U adding an element, so d is onto
from the k-subsets for k <= n/2 and its kernel has dimension C(n, k) -
C(n, k-1) = syt_count(n, k).

Coxeter relations (``snaction.verify_coxeter``): (L10) let L send a standard
M to L_M, and P_i exchange the variables l_i and l_{i+1}.  Echelon (L6)
makes L injective on the standard span, and consistency (L4) gives
L s_i = P_i L.  So L w(s) = w(P) L for every word w, and w(s) = 1 whenever
w(P) = 1.  The P_i permute the subset masks of each size and satisfy
P_i^2 = 1 and the braid and commuting relations, so every relation the
coxeter suite checks holds for every n once echelon and consistency do.

(L3) Every standard tableau but T0 is s_i of a standard tableau of smaller
mask.  No certificate rests on it since module equality checks d instead of
a chain of s_i from e_T0; it is kept as a fact about standard tableaux."""

import itertools
from collections import Counter
from functools import reduce
from math import comb

import pytest

import springerrep.rewriting as rw
from springerrep import snaction
from springerrep.linediagrams import code_expansion_masks
from springerrep.codes import (decode_word, nesting, pair_product, standard_codes, subset_mask, syt_count,
                               transpose_mask)
from springerrep.matchings import DottedMatching, encode, is_standard
from springerrep.specht import code_generator_masks, down, polytabloid_masks

from bruteforce import (degree_generators, perfect_matchings, rank, relation_vectors, standard_bottoms_bruteforce,
                        standard_tableaux)
from test_snaction import sign_of_undotted_pair_flipped


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
            assert rw._image(n, [(encode(g), 1)]) == antipodal_product(g.undotted_arcs)


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_image_kills_every_relation(n):
    for k in range(n // 2 + 1):
        for relation in relation_vectors(n, k):
            assert rw._image(n, [(encode(m), coef) for m, coef in relation]) == {}


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_image_is_the_expansion_up_to_sign_on_standard_matchings(n):
    for k in range(n // 2 + 1):
        for code in standard_codes(n, k):
            image, expansion = rw._image(n, [(code, 1)]), code_expansion_masks(*code)
            assert image in (expansion, {mask: -x for mask, x in expansion.items()})


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_kernel_step_is_the_row_at_its_site(n):
    # the step g - (signed children) is minus the row, whose g term is -1
    for k in range(n // 2 + 1):
        for g in rw._generator_codes(n, k):
            if not rw._nesting(*g):
                continue
            site, children = rw._step(*g)
            step = {g: 1}
            for code, sign in children:
                step[code] = step.get(code, 0) - sign
            assert step == {c: -x for c, x in rw._site_row(*g, site[1]).items()}


@pytest.mark.parametrize("n", range(0, 17, 2))
def test_every_standard_row_but_the_pivot_has_a_smaller_standard_parent(n):
    """For a standard bottom row b (b_j >= 2j for each j) other than T0's
    (2, 4, ..., 2k), let j be least with b_j > 2j, and i = b_j - 1.

    Minimality of j gives b_(j-1) = 2(j-1) when j > 1, so b_(j-1) < 2j <= i < b_j:
    i is not in b, and b with b_j replaced by i is sorted with i >= 2j, so
    standard, and its mask is smaller."""
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


# (n, i, arcs) of each local configuration of s_i: (i, i+1) an arc; arcs
# (j, i), (i+1, k) side by side; and nested, i on the inner or on the outer arc
SHAPES = {"short": (2, 1, ((1, 2),)), "side by side": (4, 2, ((1, 2), (3, 4))),
          "i inner": (4, 3, ((1, 4), (2, 3))), "i outer": (4, 1, ((1, 4), (2, 3)))}


def local_configurations():
    """The 14 configurations: each shape with every dotting of its arcs."""
    for name, (n, i, arcs) in SHAPES.items():
        for size in range(len(arcs) + 1):
            for dotted in itertools.combinations(arcs, size):
                yield name, i, DottedMatching(n, arcs, frozenset(dotted))


def chart_identity_holds(rule, i, m):
    """Does the sum of the rule's terms, each coef * L, equal P_i L_M, as
    polynomials in the at most four variables of the configuration?"""
    opens, dots = encode(m)
    total = Counter()
    for o, d, coef in rule(i, opens, dots, decode_word(opens)[1]):
        for u, x in code_expansion_masks(o, d).items():
            total[u] += coef * x
    swapped = {transpose_mask(u, 0b11 << (i - 1)): x for u, x in code_expansion_masks(opens, dots).items()}
    return {u: x for u, x in total.items() if x} == swapped


def dotted_under_undotted(m):
    return any(c < a < b < d for a, b in m.dotted for c, d in m.undotted_arcs)


def test_consistency_is_local():
    """(L4) P_i sends L_M to the sum of the chart's terms, for every standard M
    and every n, because it holds on the configuration at i, i+1.

    Let V be the endpoints of the arcs through i and i+1.  The chart's terms
    agree with M off V, so each is F * g, F the product over M's undotted arcs
    off V, and g the product over its undotted arcs inside V.  P_i exchanges l_i
    and l_{i+1}, which F does not contain, so P_i L_M = F * P_i g_M, and the
    column identity is F times the identity on V.  That one is decided by the
    shape of V's arcs and their dots: 14 configurations.  The 2 that fail have
    a dotted arc nested under an undotted one.  A standard matching dots only
    arcs that no arc encloses, so in particular none of V's arcs, and only
    the 12 that hold occur.  ``snaction._Tables.consistent`` checks this
    factorisation and this identity column by column."""
    real = snaction._chart
    holding, failing = [], []
    for name, i, m in local_configurations():
        holds = chart_identity_holds(real, i, m)
        (holding if holds else failing).append((name, m))
        # the certificate's own identity, on the configuration's vertices
        opens, dots = encode(m)
        terms = [x for term in real(i, opens, dots, decode_word(opens)[1]) for x in term]
        assert snaction._local_identity(i - 1, (1 << m.n) - 1, opens, dots, *terms) == holds
    assert (len(holding), len(failing)) == (12, 2)
    assert failing == [(name, m) for name, _, m in local_configurations() if dotted_under_undotted(m)]
    assert sum(is_standard(m) for _, m in holding) == 10 and not any(is_standard(m) for _, m in failing)
    # the sign mutant breaks the short undotted arc, a configuration that holds
    broken = [(name, m) for name, i, m in local_configurations() if (name, m) in holding
              and not chart_identity_holds(lambda *args: sign_of_undotted_pair_flipped(real, *args), i, m)]
    assert broken == [("short", DottedMatching(2, ((1, 2),), frozenset()))]


@pytest.mark.parametrize("n", range(0, 13, 2))
def test_chart_image_is_standard(n):
    """(L5) Every term of s_i on a standard M is standard, with M's number of
    dots, for every n.  M dots only arcs that no arc encloses.  Case by case:

    1. both arcs through i, i+1 dotted, and 2. (i, i+1) an arc: the image is
       +-M itself.
    3. and 4. Two arcs, one through i and one through i+1: M' replaces them by
       the undotted arc (i, i+1) and the far arc joining their other ends, and
       keeps every other arc and dot.  The far arc's inside lies inside M's two
       arcs: side by side, (j, i) and (i+1, k) give (j, k), whose inside is
       theirs; nested, the far arc runs from an end of the inner arc to the
       outer arc's, under the outer arc.  (i, i+1) encloses nothing.  So an
       arc that the new arcs enclose was enclosed in M, and is undotted, and
       an arc kept from M encloses in M' what it enclosed in M.  Case 4 adds
       no dot.  In case 3 exactly one of M's two arcs is dotted, and M' puts
       its dot on the far arc.  That arc is outermost: an arc enclosing it
       encloses an end of each of M's two arcs, so, being noncrossing, both
       arcs, and it would have enclosed M's dotted arc.

    Each case keeps the number of dots.  Checked exhaustively up to n = 12."""
    for k in range(n // 2 + 1):
        for opens, dots in standard_codes(n, k):
            partner = decode_word(opens)[1]
            for i in range(1, n):
                for image_opens, image_dots, _ in snaction._chart(i, opens, dots, partner):
                    assert nesting(image_opens, image_dots) == 0
                    assert image_dots.bit_count() == dots.bit_count()


@pytest.mark.parametrize("n", range(0, 13, 2))
def test_lead_key_is_the_undot_set(n):
    """(L6) L_M is the product over the undotted arcs (a, b) of (l_b - l_a):
    one term per choice of an endpoint on each arc, with sign -1 to the number
    of left endpoints chosen.  The arcs are disjoint, so distinct choices are
    distinct subsets and nothing cancels; moving one choice from a to b > a
    raises the mask, so the largest key chooses every right endpoint, U_M,
    with coefficient +1.  On standard matchings U_M is the bottom row of
    phi(M), and theta inverts phi, so distinct M have distinct U_M; checked
    here, and the canonical basis order is the order of U_M."""
    for k in range(n // 2 + 1):
        leads = []
        for opens, dots in standard_codes(n, k):
            lead = subset_mask(b for a, b in decode_word(opens)[0] if not dots >> (a - 1) & 1)
            expansion = code_expansion_masks(opens, dots)
            assert max(expansion) == lead and expansion[lead] == 1
            leads.append(lead)
        assert len(set(leads)) == len(leads) == syt_count(n, k)
        assert leads == sorted(leads)


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_down_operator_kills_every_product_over_disjoint_pairs(n):
    """(L8) On multilinear polynomials, a mask S the monomial of the l_x for x in
    S, the down operator d is the derivation sum over x of d/dl_x.  It sends
    each factor l_b - l_a to 1 - 1 = 0, so by the Leibniz rule it kills every
    product of such factors over disjoint pairs: every L_M of a dotted matching,
    crossing or not, every e_T (its columns (top, bottom)) and every e_M."""
    for k in range(n // 2 + 1):
        for m in degree_generators(n, k):
            assert down(code_expansion_masks(*encode(m))) == {}
        for t in standard_tableaux(n, k):
            assert down(polytabloid_masks(t.n, t.bottom)) == {}
        for code in standard_codes(n, k):
            assert down(code_generator_masks(*code)) == {}
    if n <= 8:
        for arcs in perfect_matchings(n):
            for size in range(len(arcs) + 1):
                for undotted in itertools.combinations(arcs, size):
                    assert down(pair_product(undotted)) == {}


@pytest.mark.parametrize("n", range(9))
def test_strand_exchanges_satisfy_the_coxeter_relations(n):
    """(L10) P_i^2 = 1, P_i P_{i+1} P_i = P_{i+1} P_i P_{i+1} and P_i P_j = P_j P_i
    for j >= i + 2, as permutations of the k-subset masks for every k: the
    relations ``verify_coxeter`` checks on the chart."""
    def word(letters, masks):
        """The masks under the product of the P_i of ``letters``, rightmost first."""
        return [reduce(lambda mask, i: transpose_mask(mask, 3 << (i - 1)), reversed(letters), mask)
                for mask in masks]

    relations = [((i, i), ()) for i in range(1, n)]
    relations += [((i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, n - 1)]
    relations += [((i, j), (j, i)) for i in range(1, n) for j in range(i + 2, n)]
    assert len(relations) == (n - 1) + (n - 2) * (n - 1) // 2
    for k in range(n + 1):
        masks = [subset_mask(c) for c in itertools.combinations(range(1, n + 1), k)]
        assert all(word(left, masks) == word(right, masks) for left, right in relations)


def up(n, vector):
    """U, the transpose of d: each mask S goes to the sum over x not in S of S + {x}."""
    out = Counter()
    for mask, coef in vector.items():
        for x in range(n):
            if not mask >> x & 1:
                out[mask | 1 << x] += coef
    return {mask: coef for mask, coef in out.items() if coef}


@pytest.mark.parametrize("n", range(13))
def test_down_and_up_commute_up_to_the_grading(n):
    """(L9) dU - Ud = (n - 2j) I on the j-subsets (Proctor 1982, "Representations
    of sl(2, C) on posets and the Sperner property").

    dU S is the sum over x not in S and y in S + {x} of S + {x} - {y}, and Ud S
    the sum over y in S and x not in S - {y} of S - {y} + {x}.  Every term T has
    |T| = j and differs from S by at most one added and one removed element:
    (1) T = S comes from y = x, n - j times in dU S and j times in Ud S;
    (2) T = S + {x} - {y}, x not in S and y in S, comes once in each, and cancels;
    (3) there is no other T.  So dU - Ud is n - 2j on S.

    Hence, with U the transpose of d, d d^T = d^T d + (n - 2k + 2) I on the
    (k-1)-subsets, positive definite for every degree k <= n/2: d is onto
    from the k-subsets, and dim ker d = C(n, k) - C(n, k-1) = syt_count(n, k),
    the ballot count."""
    for mask in range(1 << n):
        j = mask.bit_count()
        commutator = Counter(down(up(n, {mask: 1})))
        commutator.subtract(up(n, down({mask: 1})))
        assert {u: x for u, x in commutator.items() if x} == ({mask: n - 2 * j} if n != 2 * j else {})


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_down_operator_is_onto_and_its_kernel_has_the_ballot_dimension(n):
    # the consequence of L9 by exact elimination, and the count module equality compares with
    for k in range(1, n // 2 + 1):
        subsets = [subset_mask(c) for c in itertools.combinations(range(1, n + 1), k - 1)]
        rows = [[down({subset_mask(s): 1}).get(r, 0) for r in subsets]
                for s in itertools.combinations(range(1, n + 1), k)]
        assert rank(rows) == comb(n, k - 1)
        assert comb(n, k) - comb(n, k - 1) == syt_count(n, k) == len(standard_tableaux(n, k))
