import inspect
import textwrap
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest

from springerrep import (
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
    verify_module_equality,
)
from springerrep import snaction
from springerrep.formal import FormalSum
from springerrep.matchings import decode_word, enumerate_standard, partitions_of, standard_codes, syt_count
from springerrep.perms import Permutation, parse_permutation
from springerrep.rewriting import _encode
from springerrep.snaction import (
    centralizer_order,
    character_table,
    class_inner_product,
    class_tree,
    class_word,
)
from springerrep.verify import run_suites

from bruteforce import (
    chart,
    chart_columns,
    class_representative,
    column_product,
    conjugacy_class_size,
    consistency_failure,
    degree_generators,
    encoded_tables,
    is_identity,
    m_,
    map_basis,
    mat_mul,
    permutation_matrix,
    permute_diagram,
    reduced_word_characters,
    single,
    standard_tableaux,
    theta_by_sets,
    two_row_character_oracle,
    unpack_columns,
    walked_characters,
)


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


@pytest.mark.parametrize("images", [(2, 1), (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 6, 5)],
                         ids=["smaller", "larger identity", "larger"])
def test_act_permutation_refuses_a_permutation_of_another_size(images):
    with pytest.raises(ValueError, match="permutation of .* points cannot act on a matching on 4 vertices"):
        act_permutation(Permutation(images), single(UNNEST4) + single(NEST4))
    # the empty sum has no vertices to disagree with
    assert act_permutation(Permutation(images), FormalSum()) == FormalSum()


def test_k_zero_is_trivial_representation():
    for n in (2, 4, 6):
        m = enumerate_standard(n, 0)[0]
        for images in ((2, 1) + tuple(range(3, n + 1)), tuple(range(n, 0, -1))):
            assert act_permutation(Permutation(images), single(m)) == single(m)


def test_rep_matrix_pinned_values():
    assert rep_matrix(4, 2, 1) == ((-1, 1), (0, 1))
    assert rep_matrix(4, 2, 2) == ((1, 0), (1, -1))
    for n in (2, 4, 6):
        for i in range(1, n):
            assert rep_matrix(n, 0, i) == ((1,),)


def test_braid_matrix_has_order_three():
    s1 = rep_matrix(4, 2, 1)
    s2 = rep_matrix(4, 2, 2)
    product = mat_mul(s1, s2)
    assert product == [[0, -1], [1, -1]]
    cubed = mat_mul(product, mat_mul(product, product))
    assert is_identity(cubed)


def test_permutation_matrix_agrees_with_generator_products():
    w = parse_permutation("(1 2 3)", n=4)
    direct = permutation_matrix(4, 2, w)
    assert direct == mat_mul(rep_matrix(4, 2, 1), rep_matrix(4, 2, 2))


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12, 14))
def test_coxeter_relations(n):
    for k in range(n // 2 + 1):
        # n - 1 involutions, n - 2 braid relations, (n - 2)(n - 3)/2 commuting pairs
        assert verify_coxeter(n, k) == (n - 1) + (n - 2) + (n - 2) * (n - 3) // 2


def test_rep_matrix_checks_the_generator_before_building_tables():
    before = snaction._tables.cache_info().misses
    with pytest.raises(ValueError, match="out of range"):
        rep_matrix(14, 5, 99)
    assert snaction._tables.cache_info().misses == before


def test_rep_matrices_square_to_identity():
    for n in (2, 4, 6):
        for k in range(n // 2 + 1):
            for i in range(1, n):
                rows = rep_matrix(n, k, i)
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
        assert table == walked_characters(n, k)  # the dict walk, s * parent
        assert table == {ct: character(n, k, ct) for ct in partitions_of(n)}


def test_character_reads_no_character_table(monkeypatch):
    # character's word walk is the reference the class-tree table is checked against
    expected = {k: character_table(6, k) for k in range(4)}

    def refuse(self):
        raise AssertionError("character read the class-tree table")

    monkeypatch.setattr(snaction._Tables, "characters", property(refuse))
    for k, table in expected.items():
        assert {parts: character(6, k, parts) for parts in partitions_of(6)} == table


def test_coxeter_takes_one_product_per_letter(monkeypatch):
    # n - 1 generators packed, then per relation one product for each letter
    # after the first: 1 per involution, 4 per braid and 2 per commuting pair
    calls = 0
    real = snaction._times

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(snaction, "_times", counted)
    for k in range(7):
        calls = 0
        verify_coxeter(12, k)
        assert calls == 11 + 11 + 4 * 10 + 2 * 45 == 152


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_packed_products_decode_to_column_products(n):
    for k in range(n // 2 + 1):
        tables = snaction._tables(n, k)
        g = (None, *tables.generators)  # g[i]: the slots of s_i
        s = (None, *chart_columns(tables))  # s[i]: its sparse columns
        dim = len(tables.codes)
        w = tables.width(3)  # the width verify_coxeter uses
        identity = snaction._identity(range(dim), dim, w)
        for i in range(1, n):
            packed = snaction._times(identity, g[i])
            assert unpack_columns(packed, w, dim) == tuple(tuple(sorted(c)) for c in s[i])
            for j in range(1, n):
                product = snaction._times(packed, g[j])
                assert unpack_columns(product, w, dim) == column_product(s[i], s[j])
                if j == i + 1:
                    triple = unpack_columns(snaction._times(product, g[i]), w, dim)
                    assert triple == column_product(column_product(s[i], s[j]), s[i])


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


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 14))  # 14: class words of 13 letters, 15-bit digits
def test_irreducibility(n):
    for k in range(n // 2 + 1):
        assert irreducibility_check(n, k) == Fraction(1)


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_chart_diagram_consistency(n):
    for k in range(n // 2 + 1):
        assert chart_diagram_consistency(n, k)


def test_class_inner_product_refuses_mismatched_class_functions():
    with pytest.raises(ValueError, match=r"^mismatched class functions: the second lacks the class "
                                         r"\(1, 1, 1, 1\) of S_4$"):
        class_inner_product(character_table(4, 1), character_table(6, 1))
    with pytest.raises(ValueError, match=r"^mismatched class functions: the first lacks the class "
                                         r"\(1, 1\) of S_2$"):
        class_inner_product({(2,): 1}, {(2,): 1})
    with pytest.raises(ValueError, match=r"the second has the class \(1, 2\), not one of S_3$"):
        class_inner_product({(3,): 1, (2, 1): 1, (1, 1, 1): 1}, {(3,): 1, (2, 1): 1, (1, 1, 1): 1, (1, 2): 1})


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
def test_class_inner_product_is_the_per_class_sum(n):
    tables = [character_table(n, k) for k in range(n // 2 + 1)]
    for a in tables:
        for b in tables:
            expected = sum((Fraction(a[parts] * b[parts], centralizer_order(parts)) for parts in a), Fraction(0))
            assert class_inner_product(a, b) == expected


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
        columns = chart_columns(tables)
        basis = enumerate_standard(n, k)
        index = {m: r for r, m in enumerate(basis)}
        for i in range(1, n):
            for c, m in enumerate(basis):
                expected = tuple((index[image], coef) for image, coef in chart(i, m))
                assert columns[i - 1][c] == expected
                pairs += 1
    assert pairs == (n - 1) * comb(n, n // 2)



@pytest.mark.parametrize("n", (0, 2, 4, 6, 8, 10, 12))
def test_code_enumerator_matches_the_object_enumerator(n):
    # theta on bitmasks against theta on vertex sets, order included
    for k in range(n // 2 + 1):
        reference = tuple(theta_by_sets(t) for t in standard_tableaux(n, k))
        expected = tuple(_encode(m) for m in reference)
        assert tuple(standard_codes(n, k)) == expected
        assert snaction._tables(n, k).codes == expected
        assert enumerate_standard(n, k) == reference


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_step_on_each_basis_vector_is_its_column(n):
    for k in range(n // 2 + 1):
        tables = snaction._tables(n, k)
        sparse = chart_columns(tables)
        assert tables.radius == max(sum(abs(e) for _, e in column) for g in sparse for column in g)
        for g, columns in zip(tables.generators, sparse):
            assert len(g.layers) == max(map(len, columns)) <= 2  # ±M, or M + M'
            for c, column in enumerate(columns):
                assert snaction._step(g, ((c, 1),)) == dict(column)
                assert snaction._step(g, ((c, -3),)) == {r: -3 * e for r, e in column}


def test_tables_up_to_12_retain_under_a_megabyte():
    # about 0.6 MB: one int32 slot per column and layer, the codes shared
    # with standard_codes, and a tuple only per basis code
    for cached in (snaction._tables, standard_codes, decode_word):
        cached.cache_clear()
    tracemalloc.start()
    try:
        for n in range(0, 13, 2):
            for k in range(n // 2 + 1):
                snaction._tables(n, k)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
    assert snaction._tables(12, 5).codes is standard_codes(12, 5)


def test_tables_check_the_degree_first():
    with pytest.raises(ValueError, match=r"^k=2 out of range for n=2$"):
        snaction._tables(2, 2)
    with pytest.raises(ValueError, match="vertex count must be even"):
        standard_codes(3, 1)


@pytest.mark.parametrize("block", (1, 7))
def test_character_table_across_row_blocks(monkeypatch, block):
    # every degree up to n = 12 fits one block; small blocks keep the block walk covered
    monkeypatch.setattr(snaction, "ROW_BLOCK", block)
    snaction._tables.cache_clear()
    try:
        for n in (2, 4, 6, 8):
            for k in range(n // 2 + 1):
                assert character_table(n, k) == walked_characters(n, k)
    finally:
        snaction._tables.cache_clear()

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


def test_module_equality_does_not_read_the_chart(broken_chart):
    # span{e_T} = span{e_M} is the kernel of the down operator, whatever the chart
    broken_chart(sign_of_undotted_pair_flipped)
    assert all(verify_module_equality(n, k) for n in range(0, 9, 2) for k in range(n // 2 + 1))
    assert snaction._tables.cache_info().currsize == 0  # no table was built, so no consistency verdict
    assert all(r.ok for r in run_suites(["module-equality"], 6))


def test_broken_chart_witnesses_at_n_4(broken_chart):
    broken_chart(sign_of_undotted_pair_flipped)
    with pytest.raises(VerificationError) as info:
        chart_diagram_consistency(4, 1)
    # the least basis index first, then the least i
    assert info.value.witness == {
        "n": 4, "k": 1, "i": 1, "arcs": ((1, 2), (3, 4)), "dotted": [(3, 4)],
    }
    details = [r.detail for r in run_suites(["irreducibility"], 4) if not r.ok]
    assert details == ["<chi,chi>=46/3", "<chi,chi>=26/3"]


def second_image_dropped_on_a_pattern(real, i, opens, dots, partner):
    images = real(i, opens, dots, partner)
    return images[:1] if (i + opens) % 3 == 0 else images


def diagonal_sign_flipped_at_3(real, i, opens, dots, partner):
    (o, d, coef), *rest = real(i, opens, dots, partner)
    return [(o, d, -coef if i == 3 else coef), *rest]


@pytest.mark.parametrize("rule", (sign_of_undotted_pair_flipped, second_image_dropped_on_a_pattern,
                                  diagonal_sign_flipped_at_3))
def test_consistency_witness_is_the_least_index_then_the_least_i(broken_chart, rule):
    broken_chart(rule)
    for n in range(0, 9, 2):
        for k in range(n // 2 + 1):
            failure = consistency_failure(n, k)
            if failure is None:
                assert chart_diagram_consistency(n, k)
                continue
            c, i = failure
            m = enumerate_standard(n, k)[c]
            with pytest.raises(VerificationError, match="chart action disagrees") as info:
                chart_diagram_consistency(n, k)
            assert info.value.witness == {"n": n, "k": k, "i": i, "arcs": m.arcs, "dotted": sorted(m.dotted)}
            assert list(info.value.witness) == ["n", "k", "i", "arcs", "dotted"]


def mutant(function, old, new):
    """``function`` recompiled from its source with ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    if source.count(old) != 1:
        raise LookupError(f"{old!r} is not once in {function.__name__}")
    namespace = {}
    exec(source.replace(old, new), function.__globals__, namespace)
    return namespace[function.__name__]


def far_arc_moved(real, i, opens, dots, partner):
    # the last term's first two side-by-side undotted arcs away from i and i+1 nested instead
    images = real(i, opens, dots, partner)
    o, d, coef = images[-1]
    near = 1 << i - 1 | 1 << i | 1 << partner[i - 1] | 1 << partner[i]
    for p in range(len(partner) - 3):
        block = 0b1111 << p
        if o >> p & 0b1111 == 0b0101 and not (near | d) & block:
            images[-1] = (o ^ 0b0110 << p, d, coef)
            break
    return images


def far_dot_moved(real, i, opens, dots, partner):
    # the last term's first dot away from i and i+1 moved to the first undotted outermost arc there
    images = real(i, opens, dots, partner)
    o, d, coef = images[-1]
    near = 1 << i - 1 | 1 << i | 1 << partner[i - 1] | 1 << partner[i]
    outer, depth = [], 0
    for p in range(len(partner)):
        if o >> p & 1:
            if depth == 0 and not near >> p & 1:
                outer.append(p)
            depth += 1
        else:
            depth -= 1
    dotted = [p for p in outer if d >> p & 1]
    undotted = [p for p in outer if not d >> p & 1]
    if dotted and undotted:
        images[-1] = (o, d ^ 1 << dotted[0] ^ 1 << undotted[0], coef)
    return images


def local_coefficient_changed(real, i, opens, dots, partner):
    # M + 2M' for M + M'
    images = real(i, opens, dots, partner)
    if len(images) == 2:
        o, d, coef = images[1]
        images[1] = (o, d, 2 * coef)
    return images


@pytest.mark.parametrize("rule", (far_arc_moved, far_dot_moved, local_coefficient_changed))
def test_factored_check_mutants_fail_the_consistency_suite(broken_chart, rule):
    # each is a real fault: the full expansion check of the oracle fails too
    broken_chart(rule)
    assert any(consistency_failure(n, k) for n in range(0, 9, 2) for k in range(n // 2 + 1))
    results = run_suites(["consistency"], 8)
    assert not all(r.ok for r in results)
    assert all(r.detail.startswith("chart action disagrees with diagram permutation witness=")
               for r in results if not r.ok)


def test_no_consistency_verdict_outlives_its_run(monkeypatch, broken_chart):
    assert all(r.ok for r in run_suites(["consistency"], 6))
    honest = snaction._local_identity
    # installed on the caches the honest run leaves, none cleared: P_i dropped from the identity
    monkeypatch.setattr(snaction, "_local_identity", mutant(honest, "transpose_mask(u, 3 << a)", "u"))
    for k in range(1, 4):
        with pytest.raises(VerificationError, match="chart action disagrees"):
            chart_diagram_consistency(6, k)
    monkeypatch.setattr(snaction, "_local_identity", honest)
    # a raised verdict is not stored: asked again, the check runs again and reports the same witness
    broken_chart(sign_of_undotted_pair_flipped)
    witnesses = {2: {"n": 2, "k": 1, "i": 1, "arcs": ((1, 2),), "dotted": []},
                 4: {"n": 4, "k": 1, "i": 1, "arcs": ((1, 2), (3, 4)), "dotted": [(3, 4)]}}
    for _ in range(2):
        assert [(r.suite, r.name, r.ok, r.detail) for r in run_suites(["consistency"], 4)] == [
            ("consistency", f"n={n}", False, f"chart action disagrees with diagram permutation witness={witness}")
            for n, witness in witnesses.items()]
        for n, witness in witnesses.items():
            with pytest.raises(VerificationError) as info:
                chart_diagram_consistency(n, 1)
            assert info.value.witness == witness


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


RELATION_GATES = [
    (3, (SHEAR, ONE), "s_i\\^2 != 1", {"i": 1}),
    (3, (SWAP, ONE), "braid relation fails", {"i": 1, "j": 2}),
    (4, (S1, S1, S2), "commuting relation fails", {"i": 1, "j": 3}),
]


@pytest.mark.parametrize("n, generators, message, witness", RELATION_GATES)
def test_each_relation_gate_fires_alone(monkeypatch, n, generators, message, witness):
    # generators that break exactly one relation; all but the shear are involutions
    tables = encoded_tables(n, generators)
    monkeypatch.setattr(snaction, "_tables", lambda n, k: tables)
    with pytest.raises(VerificationError, match=message) as info:
        verify_coxeter(n, 0)
    assert info.value.witness == {"n": n, "k": 0, **witness}


def coxeter_failure(n, k):
    """The message and witness of verify_coxeter's failure on degree (n, k), or None."""
    try:
        verify_coxeter(n, k)
    except VerificationError as exc:
        return str(exc), exc.witness
    return None


def test_coxeter_witness_is_the_same_across_row_blocks(monkeypatch, broken_chart):
    # the first failing relation in list order, whichever block it fails in: every
    # case here is one block of 512 rows, or many blocks of one row; with the second
    # rule at n = 6, k = 2 and 3, the first row to fail does so on a later relation
    def failures():
        out = []
        for n, generators, _, _ in RELATION_GATES:
            with monkeypatch.context() as patch:
                patch.setattr(snaction, "_tables", lambda n, k, tables=encoded_tables(n, generators): tables)
                out.append(coxeter_failure(n, 0))
        for rule in (sign_of_undotted_pair_flipped, second_image_dropped_on_a_pattern):
            broken_chart(rule)
            out += [coxeter_failure(n, k) for n in (6, 8) for k in range(n // 2 + 1)]
        return out

    monkeypatch.setattr(snaction, "ROW_BLOCK", 1)
    single_rows = failures()
    monkeypatch.setattr(snaction, "ROW_BLOCK", 512)
    assert failures() == single_rows
    assert [witness for _, witness in single_rows[:3]] == [{"n": n, "k": 0, **w} for n, _, _, w in RELATION_GATES]
    assert sum(failure is not None for failure in single_rows[3:]) == 14
