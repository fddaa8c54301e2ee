from fractions import Fraction
from math import comb, factorial

import pytest

from springerrep import (
    DottedMatching,
    VerificationError,
    act_permutation,
    act_simple,
    character,
    chart_diagram_consistency,
    expand,
    irreducibility_check,
    is_standard,
    reduce_to_standard,
    rep_matrix,
    verify_coxeter,
)
from springerrep import snaction
from springerrep.formal import FormalSum
from springerrep.matchings import enumerate_standard, partitions_of, syt_count
from springerrep.perms import Permutation, parse_permutation
from springerrep.rewriting import degree_generators
from springerrep.snaction import (
    centralizer_order,
    character_table,
    class_representative,
    class_tree,
    class_word,
)
from springerrep.verify import run_suites

from bruteforce import (
    chart,
    conjugacy_class_size,
    is_identity,
    map_basis,
    mat_mul,
    permutation_matrix,
    permute_diagram,
    reduced_word_characters,
    two_row_character_oracle,
)


def m_(n, arcs, dotted=()):
    return DottedMatching.make(n, arcs, dotted)


def single(m):
    return FormalSum.single(m)


UNNEST4 = m_(4, [(1, 2), (3, 4)])
NEST4 = m_(4, [(1, 4), (2, 3)])


def test_act_simple_chart_cases():
    dotted2 = m_(2, [(1, 2)], [(1, 2)])
    assert act_simple(1, dotted2) == single(dotted2)  # case 1
    undotted2 = m_(2, [(1, 2)])
    assert act_simple(1, undotted2) == -1 * single(undotted2)  # case 2
    assert act_simple(1, NEST4) == FormalSum([(NEST4, 1), (UNNEST4, 1)])  # case 4

    # case 1 with two distinct dotted arcs
    both_dotted = m_(4, [(1, 2), (3, 4)], [(1, 2), (3, 4)])
    assert act_simple(2, both_dotted) == single(both_dotted)

    # case 3: one dot, the dot travels to the rewired far arc
    mixed = m_(4, [(1, 2), (3, 4)], [(3, 4)])
    rewired = m_(4, [(1, 4), (2, 3)], [(1, 4)])
    assert act_simple(2, mixed) == FormalSum([(mixed, 1), (rewired, 1)])
    # and symmetrically when the left arc carries the dot
    mixed2 = m_(4, [(1, 2), (3, 4)], [(1, 2)])
    assert act_simple(2, mixed2) == FormalSum([(mixed2, 1), (rewired, 1)])


def test_act_simple_rejects_bad_index():
    with pytest.raises(ValueError):
        act_simple(4, UNNEST4)
    with pytest.raises(ValueError):
        act_simple(0, UNNEST4)


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_act_simple_output_is_standard_and_homogeneous(n):
    for k in range(n // 2 + 1):
        for m in enumerate_standard(n, k):
            for i in range(1, n):
                image = act_simple(i, m)
                assert all(is_standard(t) and t.k == k for t, _ in image)


def test_act_permutation_identity_and_pinned_composition():
    v = single(UNNEST4)
    assert act_permutation(Permutation.identity(4), v) == v
    # s_1 s_2 applies s_2 first: matrix product column, lands on the nest
    w = parse_permutation("(1 2 3)", n=4)
    assert act_permutation(w, v) == single(NEST4)


def test_k_zero_is_trivial_representation():
    for n in (2, 4, 6):
        m = enumerate_standard(n, 0)[0]
        for images in ((2, 1) + tuple(range(3, n + 1)), tuple(range(n, 0, -1))):
            assert act_permutation(Permutation(images), single(m)) == single(m)


def test_rep_matrix_pinned_values():
    assert rep_matrix(4, 2, 1).entries == ((-1, 1), (0, 1))
    assert rep_matrix(4, 2, 2).entries == ((1, 0), (1, -1))
    for n in (2, 4, 6):
        for i in range(1, n):
            assert rep_matrix(n, 0, i).entries == ((1,),)


def test_braid_matrix_has_order_three():
    s1 = rep_matrix(4, 2, 1).rows()
    s2 = rep_matrix(4, 2, 2).rows()
    product = mat_mul(s1, s2)
    assert product == [[0, -1], [1, -1]]
    cubed = mat_mul(product, mat_mul(product, product))
    assert is_identity(cubed)


def test_permutation_matrix_agrees_with_generator_products():
    w = parse_permutation("(1 2 3)", n=4)
    direct = permutation_matrix(4, 2, w)
    assert direct == mat_mul(rep_matrix(4, 2, 1).rows(), rep_matrix(4, 2, 2).rows())


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
def test_coxeter_relations(n):
    for k in range(n // 2 + 1):
        report = verify_coxeter(n, k)
        assert report.involutions == n - 1


def test_rep_matrix_checks_the_generator_before_building_tables():
    before = snaction._tables.cache_info().misses
    with pytest.raises(ValueError, match="out of range"):
        rep_matrix(14, 5, 99)
    assert snaction._tables.cache_info().misses == before


def test_rep_matrices_square_to_identity():
    for n in (2, 4, 6):
        for k in range(n // 2 + 1):
            for i in range(1, n):
                rows = rep_matrix(n, k, i).rows()
                assert is_identity(mat_mul(rows, rows))


def test_character_pinned_values():
    values = [character(4, 2, ct) for ct in [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]]
    assert values == [2, 0, 2, -1, 0]


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_character_identity_is_dimension(n):
    for k in range(n // 2 + 1):
        assert character(n, k, (1,) * n) == syt_count(n, k)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
def test_character_matches_subset_oracle(n):
    for k in range(n // 2 + 1):
        for cycle_type in partitions_of(n):
            w = class_representative(n, cycle_type)
            assert character(n, k, cycle_type) == two_row_character_oracle(w, k)


@pytest.mark.parametrize("n", range(15))
def test_class_tree(n):
    tree = class_tree(n)
    types = [parts for parts, _, _ in tree]
    assert sorted(types) == sorted(partitions_of(n)) and len(set(types)) == len(types)
    assert tree[0] == ((1,) * n, None, 0)
    for position, (parts, parent, letter) in enumerate(tree[1:], start=1):
        assert parent in types[:position]  # parents first
        word = class_word(n, parts)
        assert word == class_word(n, parent) + (letter,)
        product = Permutation.identity(n)
        for i in word:
            product = Permutation.simple(n, i) * product
        assert product.cycle_type() == parts


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_character_table_matches_reduced_word_traces(n):
    for k in range(n // 2 + 1):
        table = character_table(n, k)
        assert table == reduced_word_characters(n, k)
        assert table == {ct: character(n, k, ct) for ct in partitions_of(n)}


def test_character_rejects_a_type_of_another_size():
    with pytest.raises(ValueError):
        character(4, 1, (3, 2))


def test_class_representative_and_sizes():
    assert class_representative(4, (3, 1)).images == (2, 3, 1, 4)
    assert class_representative(4, (2, 2)).images == (2, 1, 4, 3)
    assert class_representative(5, (5,)).cycle_type() == (5,)
    with pytest.raises(ValueError):
        class_representative(4, (3, 2))
    assert centralizer_order((2, 1, 1)) == 4
    for n in (3, 4, 5, 6):
        assert sum(conjugacy_class_size(n, ct) for ct in partitions_of(n)) == factorial(n)
        for ct in partitions_of(n):
            assert conjugacy_class_size(n, ct) * centralizer_order(ct) == factorial(n)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_irreducibility(n):
    for k in range(n // 2 + 1):
        assert irreducibility_check(n, k) == Fraction(1)


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_chart_diagram_consistency(n):
    for k in range(n // 2 + 1):
        assert chart_diagram_consistency(n, k)


def diagrams(v):
    return map_basis(v, expand)


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_action_on_classes_matches_strand_permutation(n):
    # oracle independent of the chart: rewrite, expand, permute the strands
    for k in range(n // 2 + 1):
        for g in degree_generators(n, k):
            reduced = diagrams(reduce_to_standard(single(g)))
            for i in range(1, n):
                expected = permute_diagram(Permutation.simple(n, i), reduced)
                assert diagrams(act_simple(i, g)) == expected


def test_action_on_nonstandard_matching_pinned():
    # applying the chart rule to this non-standard input used to give a wrong class
    g = m_(4, [(1, 4), (2, 3)], [(2, 3)])
    assert act_simple(1, g) == FormalSum([
        (m_(4, [(1, 2), (3, 4)], [(3, 4)]), -2),
        (m_(4, [(1, 4), (2, 3)], [(1, 4)]), -1),
        (m_(4, [(1, 2), (3, 4)], [(1, 2)]), 1),
    ])


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
def test_code_chart_equals_object_rule(n):
    # every (M, i) pair of degree n: 13042 of them over n <= 12
    pairs = 0
    for k in range(n // 2 + 1):
        tables = snaction._tables(n, k)
        index = {m: r for r, m in enumerate(tables.basis)}
        for i in range(1, n):
            for c, m in enumerate(tables.basis):
                expected = tuple((index[image], coef) for image, coef in chart(i, m))
                assert tables.columns[i - 1][c] == expected
                pairs += 1
    assert pairs == (n - 1) * comb(n, n // 2)


@pytest.fixture
def broken_chart(monkeypatch):
    """Install a replacement code rule on an empty table cache."""
    real = snaction._chart

    def install(rule):
        snaction._tables.cache_clear()
        monkeypatch.setattr(snaction, "_chart", lambda *args: rule(real, *args))

    snaction._tables.cache_clear()
    yield install
    snaction._tables.cache_clear()


def sign_of_undotted_pair_flipped(real, i, opens, dots, partner):
    return [(o, d, abs(coef)) for o, d, coef in real(i, opens, dots, partner)]


def dot_on_new_short_arc(real, i, opens, dots, partner):
    images = real(i, opens, dots, partner)
    far = 1 << min(partner[i - 1], partner[i])  # the far arc opens here in M'
    if len(images) == 2 and images[1][1] & far:
        o, d, coef = images[1]
        images[1] = (o, d ^ far | 1 << (i - 1), coef)
    return images


@pytest.mark.parametrize("suite", ("coxeter", "consistency", "irreducibility"))
def test_broken_chart_is_caught_by_suite(broken_chart, suite):
    assert all(r.ok for r in run_suites([suite], 6))
    broken_chart(sign_of_undotted_pair_flipped)
    results = run_suites([suite], 6)
    assert not all(r.ok for r in results)
    assert not any("not a standard basis matching" in r.detail for r in results)


def test_character_table_is_dropped_with_the_chart(broken_chart):
    assert all(irreducibility_check(6, k) == 1 for k in range(4))
    broken_chart(sign_of_undotted_pair_flipped)
    assert not all(r.ok for r in run_suites(["irreducibility"], 6))


def test_chart_image_outside_basis_is_rejected(broken_chart):
    broken_chart(dot_on_new_short_arc)
    with pytest.raises(VerificationError) as info:
        rep_matrix(4, 1, 2)
    assert info.value.witness == {
        "n": 4, "k": 1, "i": 2, "arcs": ((1, 2), (3, 4)), "dotted": [(3, 4)],
    }


SWAP = (((1, 1),), ((0, 1),))
ONE = (((0, 1),), ((1, 1),))
SHEAR = (((0, 1),), ((0, 1), (1, 1)))
# s_1, s_2 of the chart at n = 4, k = 2: reflections whose product has order 3
S1 = (((0, -1),), ((0, 1), (1, 1)))
S2 = (((0, 1), (1, 1)), ((1, -1),))


@pytest.mark.parametrize("n, generators, message, witness", [
    (3, (SHEAR, ONE), "s_i\\^2 != 1", {"i": 1}),
    (3, (SWAP, ONE), "braid relation fails", {"i": 1, "j": 2}),
    (4, (S1, S1, S2), "commuting relation fails", {"i": 1, "j": 3}),
])
def test_each_relation_gate_fires_alone(monkeypatch, n, generators, message, witness):
    # generators that break exactly one relation; all but the shear are involutions
    tables = snaction._Tables(n, (None, None), {}, generators)
    monkeypatch.setattr(snaction, "_tables", lambda n, k: tables)
    with pytest.raises(VerificationError, match=message) as info:
        verify_coxeter(n, 0)
    assert info.value.witness == {"n": n, "k": 0, **witness}
