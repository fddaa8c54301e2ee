import random

import pytest

import springerrep.rewriting as rw
from springerrep import DottedMatching, is_standard, quotient_project_oracle, reduce_to_standard
from springerrep.errors import VerificationError
from springerrep.formal import FormalSum
from springerrep.matchings import enumerate_standard, syt_count
from springerrep.rewriting import degree_generators, relation_vectors

from bruteforce import (
    RewriteSite,
    apply_site,
    apply_type1,
    apply_type2,
    dense_quotient_table,
    find_sites,
    nesting_measure,
    reduce_picking,
)


def m_(n, arcs, dotted=()):
    return DottedMatching.make(n, arcs, dotted)


def single(m):
    return FormalSum.single(m)


def test_find_sites_examples():
    assert find_sites(m_(4, [(1, 2), (3, 4)], [(1, 2)])) == []
    [site] = find_sites(m_(4, [(1, 4), (2, 3)], [(2, 3)]))
    assert (site.kind, site.i, site.j, site.k, site.l) == ("I", 1, 2, 3, 4)
    [site] = find_sites(m_(4, [(1, 4), (2, 3)], [(1, 4), (2, 3)]))
    assert site.kind == "II"


@pytest.mark.parametrize("n", range(2, 9, 2))
def test_sites_empty_iff_standard(n):
    for k in range(n // 2 + 1):
        for g in degree_generators(n, k):
            assert (find_sites(g) == []) == is_standard(g)


def test_apply_type1_example():
    m = m_(4, [(1, 4), (2, 3)], [(2, 3)])
    [site] = find_sites(m)
    assert apply_type1(m, site) == FormalSum([
        (m_(4, [(1, 4), (2, 3)], [(1, 4)]), -1),
        (m_(4, [(1, 2), (3, 4)], [(1, 2)]), 1),
        (m_(4, [(1, 2), (3, 4)], [(3, 4)]), 1),
    ])


def test_apply_type1_spectators_unchanged():
    m = m_(6, [(1, 4), (2, 3), (5, 6)], [(2, 3), (5, 6)])
    [site] = find_sites(m)
    assert apply_type1(m, site) == FormalSum([
        (m_(6, [(1, 4), (2, 3), (5, 6)], [(1, 4), (5, 6)]), -1),
        (m_(6, [(1, 2), (3, 4), (5, 6)], [(1, 2), (5, 6)]), 1),
        (m_(6, [(1, 2), (3, 4), (5, 6)], [(3, 4), (5, 6)]), 1),
    ])


def test_apply_type1_rejects_wrong_role():
    # dot on the enclosing arc: a standard configuration, not the solved-for term
    m = m_(4, [(1, 4), (2, 3)], [(1, 4)])
    site = RewriteSite("I", 1, 2, 3, 4)
    with pytest.raises(ValueError):
        apply_type1(m, site)


def test_apply_type2_example():
    m = m_(4, [(1, 4), (2, 3)], [(1, 4), (2, 3)])
    [site] = find_sites(m)
    assert apply_type2(m, site) == single(m_(4, [(1, 2), (3, 4)], [(1, 2), (3, 4)]))


def test_apply_type2_rejects_unnested():
    m = m_(4, [(1, 2), (3, 4)], [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        apply_type2(m, RewriteSite("II", 1, 2, 3, 4))


def test_site_kind_checked():
    m = m_(4, [(1, 4), (2, 3)], [(2, 3)])
    with pytest.raises(ValueError):
        apply_type2(m, RewriteSite("II", 1, 2, 3, 4))
    with pytest.raises(ValueError):
        RewriteSite("III", 1, 2, 3, 4)


def test_deep_type2_reduces_to_unnested():
    m = m_(6, [(1, 6), (2, 5), (3, 4)], [(1, 6), (2, 5)])
    [site] = find_sites(m)
    assert site.kind == "II" and (site.j, site.k) == (2, 5)
    reduced = reduce_to_standard(single(m))
    assert reduced == single(m_(6, [(1, 2), (3, 4), (5, 6)], [(1, 2), (5, 6)]))


def test_fully_nested_dotted_reduces_to_unnested():
    m = m_(6, [(1, 6), (2, 5), (3, 4)], [(1, 6), (2, 5), (3, 4)])
    reduced = reduce_to_standard(single(m))
    expected = m_(6, [(1, 2), (3, 4), (5, 6)], [(1, 2), (3, 4), (5, 6)])
    assert reduced == single(expected)


def test_reduce_fixes_standard_and_is_idempotent():
    for n in (2, 4, 6):
        for k in range(n // 2 + 1):
            for m in enumerate_standard(n, k):
                assert reduce_to_standard(single(m)) == single(m)
            for g in degree_generators(n, k):
                once = reduce_to_standard(single(g))
                assert reduce_to_standard(once) == once
                assert all(is_standard(t) for t, _ in once)
                assert all(t.k == k for t, _ in once)


def test_reduce_rejects_inhomogeneous():
    a = m_(4, [(1, 2), (3, 4)], [(1, 2)])
    b = m_(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        reduce_to_standard(FormalSum([(a, 1), (b, 1)]))


def test_reduce_is_linear():
    rng = random.Random(11)
    for n in (4, 6):
        for k in range(n // 2 + 1):
            pool = degree_generators(n, k)
            for _ in range(5):
                g1, g2 = rng.choice(pool), rng.choice(pool)
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                lhs = reduce_to_standard(a * single(g1) + b * single(g2))
                rhs = a * reduce_to_standard(single(g1)) + b * reduce_to_standard(single(g2))
                assert lhs == rhs


def test_rewrites_decrease_nesting_measure():
    m = m_(8, [(1, 8), (2, 7), (3, 6), (4, 5)], [(2, 7), (4, 5)])
    for site in find_sites(m):
        assert all(nesting_measure(t) < nesting_measure(m) for t, _ in apply_site(m, site))


def test_rewrite_that_keeps_nesting_is_refused(monkeypatch):
    # a plain assert would vanish under python -O; the guard must raise
    m = m_(4, [(1, 4), (2, 3)], [(1, 4), (2, 3)])
    monkeypatch.setattr(rw, "_rewrite", lambda opens, dots, site: [(opens, dots, 1)])
    with pytest.raises(VerificationError) as info:
        reduce_to_standard(single(m))
    assert info.value.witness == {
        "n": 4, "arcs": ((1, 4), (2, 3)), "dotted": [(1, 4), (2, 3)], "site": ["II", 1, 2, 3, 4],
    }


def test_code_outside_the_standard_basis_is_refused(monkeypatch):
    monkeypatch.setattr(rw, "_basis_matching", lambda n, k, opens, dots: None)
    with pytest.raises(VerificationError, match="outside the standard basis") as info:
        reduce_to_standard(single(m_(4, [(1, 2), (3, 4)], [(1, 2)])))
    assert info.value.witness == {"n": 4, "arcs": ((1, 2), (3, 4)), "dotted": [(1, 2)], "k": 1}


def test_rewrite_that_changes_the_degree_is_refused(monkeypatch):
    # a Type II step that drops the nested dot without dotting the new arc: the
    # nesting falls, so only the degree check on the level-0 masks can see it
    def drop_dot(opens, dots, site):
        i, j, k, _ = site
        return [(opens ^ (1 << j | 1 << k), dots ^ (1 << j), 1)]

    monkeypatch.setattr(rw, "_rewrite", drop_dot)
    with pytest.raises(VerificationError, match="outside the standard basis") as info:
        reduce_to_standard(single(m_(4, [(1, 4), (2, 3)], [(1, 4), (2, 3)])))
    assert info.value.witness == {"n": 4, "arcs": ((1, 2), (3, 4)), "dotted": [(1, 2)], "k": 0}


def test_reduce_of_zero_is_zero():
    assert reduce_to_standard(FormalSum.zero()) == FormalSum.zero()


def decoded(n, opens, dots):
    witness = rw._decode(n, opens, dots)
    return DottedMatching.make(n, witness["arcs"], witness["dotted"])


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_kernel_step_matches_reference_rule(n):
    # one bit-flip step against the object-level rule at find_sites(m)[0]:
    # pins the site choice and both rewrite formulas
    for k in range(n // 2 + 1):
        for g in degree_generators(n, k):
            opens, dots = rw._encode(g)
            assert decoded(n, opens, dots) == g
            assert rw._nesting(opens, dots) == nesting_measure(g)
            sites = find_sites(g)
            if not sites:
                continue
            i, j, kk, l = site = rw._find_site(n, opens, dots)
            kind = "II" if dots >> i & 1 else "I"
            assert sites[0] == RewriteSite(kind, i + 1, j + 1, kk + 1, l + 1)
            step = FormalSum((decoded(n, o, d), c) for o, d, c in rw._rewrite(opens, dots, site))
            assert step == apply_site(g, sites[0])


@pytest.mark.parametrize("n", range(2, 9, 2))
def test_relation_vectors_reduce_to_zero(n):
    # every bucket cancels on the way down
    for k in range(n // 2 + 1):
        for relation in relation_vectors(n, k):
            assert reduce_to_standard(relation) == FormalSum.zero()


def test_seeded_sum_matches_oracle_rows():
    # the shape of a large reduce call: one sum over every generator of a degree
    rng = random.Random(10)
    for k in range(6):
        table = quotient_project_oracle(10, k)
        terms = [(g, rng.choice((-3, -2, -1, 1, 2, 3))) for g in degree_generators(10, k)]
        rng.shuffle(terms)
        expected = FormalSum.zero()
        for g, coef in terms:
            expected = expected + coef * table[g]
        assert reduce_to_standard(FormalSum(terms)) == expected


def test_reduction_is_order_independent():
    # empirical confluence: picking the last site instead of the first
    for n in (4, 6):
        for k in range(n // 2 + 1):
            for g in degree_generators(n, k):
                default = reduce_to_standard(single(g))
                alternate = reduce_picking(g, lambda sites: sites[-1])
                assert default == alternate


def test_relation_vectors_are_degree_homogeneous():
    for n in (4, 6):
        for k in range(n // 2 + 1):
            for relation in relation_vectors(n, k):
                assert {t.k for t, _ in relation} == {k}
                assert sorted(c for _, c in relation) in ([-1, 1], [-1, -1, 1, 1])


def test_oracle_dimensions():
    table = quotient_project_oracle(4, 1)
    assert len({t for v in table.values() for t, _ in v}) == 3 == syt_count(4, 1)
    assert len(quotient_project_oracle(4, 2)) == 2
    top = quotient_project_oracle(6, 3)
    assert len(top) == 5 and all(v == FormalSum.single(g) for g, v in top.items())


def test_oracle_bound():
    with pytest.raises(ValueError):
        quotient_project_oracle(14, 5)


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_oracle_matches_dense_elimination(n):
    for k in range(n // 2 + 1):
        assert quotient_project_oracle(n, k) == dense_quotient_table(n, k)


def test_oracle_rejects_dependent_standard_columns(monkeypatch):
    # a relation among standard matchings alone puts a pivot in a standard column
    honest = rw.relation_vectors
    first, second = enumerate_standard(4, 1)[:2]
    monkeypatch.setattr(rw, "relation_vectors",
                        lambda n, k: honest(n, k) + [single(first) - single(second)])
    with pytest.raises(VerificationError, match="dependent") as info:
        quotient_project_oracle(4, 1)
    assert max(info.value.witness["pivots"]) >= len(degree_generators(4, 1)) - syt_count(4, 1)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_reduce_matches_oracle(n):
    for k in range(n // 2 + 1):
        table = quotient_project_oracle(n, k)
        for g in degree_generators(n, k):
            assert reduce_to_standard(single(g)) == table[g]


def test_oracle_raises_on_impossible_dimension(monkeypatch):
    # sabotage the expected dimension to confirm the hard failure fires
    monkeypatch.setattr(rw, "syt_count", lambda n, k: 99)
    with pytest.raises(VerificationError):
        quotient_project_oracle(4, 1)
