import random
import subprocess
import sys
from collections import Counter

import pytest

import bruteforce
import springerrep.rewriting as rw
import springerrep.verify as verify
from springerrep import DottedMatching, is_standard, reduce_to_standard
from springerrep.errors import VerificationError
from springerrep.formal import FormalSum
from springerrep.cli import main
from springerrep.matchings import enumerate_standard, syt_count

from bruteforce import (
    apply_site,
    apply_type1,
    apply_type2,
    degree_generators,
    find_sites,
    m_,
    nesting_measure,
    reduce_picking,
    relation_vectors,
    RewriteSite,
    rref_quotient_codes,
    scan_site,
    single,
)


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


# codes (opens, dots): (1,2)*(3,4) and (1,4)(2,3)* of degree (4, 1),
# (1,2)(3,4) of degree (4, 2), and (1,2)*(3,4)(5,6) of degree (6, 2)
SIDE, NESTED, UNDOTTED, SIX = (0b0101, 0b0001), (0b0011, 0b0010), (0b0101, 0), (0b10101, 0b1)


def merge(terms):
    """Terms merged as the wire decoder merges them, then split per degree."""
    return rw._by_degree(FormalSum(terms))


def test_merge_drops_a_degree_whose_codes_all_cancel():
    degrees = merge([(SIDE, 1), (SIX, 2), (NESTED, 3), (SIDE, -1), (NESTED, -3)])
    assert degrees == {(6, 2): {SIX: 2}}


def test_merge_orders_degrees_by_their_first_surviving_code():
    # SIDE opens (4, 1) first but cancels; its return comes after UNDOTTED's (4, 2)
    terms = [(SIDE, 1), (UNDOTTED, 5), (SIDE, -1), (NESTED, 2), (SIDE, 4), (NESTED, 1)]
    degrees = merge(terms)
    assert list(degrees) == [(4, 2), (4, 1)]
    assert degrees == {(4, 2): {UNDOTTED: 5}, (4, 1): {NESTED: 3, SIDE: 4}}
    assert list(degrees[4, 1]) == [NESTED, SIDE]


def test_merge_opens_no_degree_for_a_zero_coefficient():
    assert merge([(SIX, 0), (SIDE, 1), (UNDOTTED, 0)]) == {(4, 1): {SIDE: 1}}
    assert merge([(SIX, 0)]) == {}


def test_inhomogeneous_message_lists_the_surviving_degrees_sorted():
    degrees = merge([(UNDOTTED, 1), (SIX, 1), (SIX, -1), (SIDE, 1)])
    with pytest.raises(ValueError) as info:
        rw._reduce_sum(degrees)
    assert str(info.value) == "inhomogeneous sum: degrees [(4, 1), (4, 2)]"


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
    honest = rw._step
    monkeypatch.setattr(rw, "_step", lambda opens, dots: (honest(opens, dots)[0], (((opens, dots), 1),)))
    witness = {"n": 4, "arcs": ((1, 4), (2, 3)), "dotted": [(1, 4), (2, 3)], "site": ["II", 1, 2, 3, 4]}
    with pytest.raises(VerificationError) as info:
        reduce_to_standard(single(m))
    assert info.value.witness == witness
    # the certificate's own guard: its induction runs on the measure
    with pytest.raises(VerificationError, match="did not decrease nesting") as info:
        rw._certify(4, 0)
    assert info.value.witness == witness


def test_rewrite_to_an_unseen_code_that_keeps_nesting_is_refused(monkeypatch):
    # the guard on a memo miss: the child was never an input term, so its
    # measure is computed on the spot, and it equals the parent's
    m = m_(4, [(1, 4), (2, 3)], [(1, 4), (2, 3)])
    child = (0b0011, 0b0010)  # (1,4),(2,3) with only (2,3) dotted: measure 1, as m
    assert child != rw._encode(m) and rw._nesting(*child) == rw._nesting(*rw._encode(m)) == 1
    honest = rw._step
    monkeypatch.setattr(rw, "_step", lambda opens, dots: (honest(opens, dots)[0], ((child, 1),)))
    with pytest.raises(VerificationError, match="rewrite did not decrease nesting") as info:
        reduce_to_standard(single(m))
    assert info.value.witness == {"n": 4, "arcs": ((1, 4), (2, 3)), "dotted": [(1, 4), (2, 3)],
                                  "site": ["II", 1, 2, 3, 4]}


def combined(table, terms):
    """The sum of coef * table[code] over the terms, zeros dropped."""
    out = Counter()
    for code, coef in terms:
        for c, x in table[code].items():
            out[c] += coef * x
    return {c: x for c, x in out.items() if x}


def test_kernel_measures_each_code_once(monkeypatch):
    # every generator of one degree drained at once, generator i at weight i + 1
    n, k = 10, 2
    table = rref_quotient_codes(n, k)
    terms = [(g, weight) for weight, g in enumerate(table, 1)]
    expected = combined(table, terms)
    seen = {g for g, _ in terms}
    calls = Counter()
    honest_nesting, honest_step = rw._nesting, rw._step

    def counted(opens, dots):
        calls[opens, dots] += 1
        return honest_nesting(opens, dots)

    def recorded(opens, dots):
        site, children = honest_step(opens, dots)
        seen.update(code for code, _ in children)
        return site, children

    monkeypatch.setattr(rw, "_nesting", counted)
    monkeypatch.setattr(rw, "_step", recorded)
    assert rw._reduce_codes(terms) == expected
    assert sum(calls.values()) <= len(seen) and max(calls.values()) == 1


def test_code_outside_the_standard_basis_is_refused(monkeypatch):
    # a kernel that hands its input back, and a measure that calls every code nested:
    # only the check on the survivors' masks is left to refuse
    monkeypatch.setattr(rw, "_reduce_codes", lambda terms: dict(terms))
    monkeypatch.setattr(rw, "_nesting", lambda opens, dots: 1)
    with pytest.raises(VerificationError, match="outside the standard basis") as info:
        reduce_to_standard(single(m_(4, [(1, 2), (3, 4)], [(1, 2)])))
    assert info.value.witness == {"n": 4, "arcs": ((1, 2), (3, 4)), "dotted": [(1, 2)], "k": 1}


def test_rewrite_that_changes_the_degree_is_refused(monkeypatch):
    # a Type II step that drops the nested dot without dotting the new arc: the
    # nesting falls, so only the degree check on the level-0 masks can see it
    honest = rw._step

    def drop_dot(opens, dots):
        site = honest(opens, dots)[0]
        i, j, k, _ = site
        return site, (((opens ^ (1 << j | 1 << k), dots ^ (1 << j)), 1),)

    monkeypatch.setattr(rw, "_step", drop_dot)
    with pytest.raises(VerificationError, match="outside the standard basis") as info:
        reduce_to_standard(single(m_(4, [(1, 4), (2, 3)], [(1, 4), (2, 3)])))
    assert info.value.witness == {"n": 4, "arcs": ((1, 2), (3, 4)), "dotted": [(1, 2)], "k": 0}


def test_reduce_of_zero_is_zero():
    assert reduce_to_standard(FormalSum()) == FormalSum()


def decoded(n, opens, dots):
    witness = rw._decode(opens, dots)
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
            (i, j, kk, l), children = rw._step(opens, dots)
            kind = "II" if dots >> i & 1 else "I"
            assert sites[0] == RewriteSite(kind, i + 1, j + 1, kk + 1, l + 1)
            step = FormalSum((decoded(n, *code), c) for code, c in children)
            assert step == apply_site(g, sites[0])


@pytest.mark.parametrize("n", range(0, 13, 2))
def test_site_table_matches_the_stack_scan(n):
    for k in range(n // 2 + 1):
        for opens, dots in rw._generator_codes(n, k):
            site = scan_site(n, opens, dots)
            assert (site is None) == (rw._nesting(opens, dots) == 0)
            if site is None:
                with pytest.raises(ValueError, match="no rewrite site"):
                    rw._step(opens, dots)
            else:
                assert rw._step(opens, dots)[0] == site


@pytest.mark.parametrize("n", range(2, 9, 2))
def test_relation_vectors_reduce_to_zero(n):
    # every bucket cancels on the way down
    for k in range(n // 2 + 1):
        for relation in relation_vectors(n, k):
            assert reduce_to_standard(relation) == FormalSum()


def test_seeded_sum_matches_oracle_rows():
    # the shape of a large reduce call: one sum over every generator of a degree
    rng = random.Random(10)
    for k in range(6):
        table = rref_quotient_codes(10, k)
        terms = [(g, rng.choice((-3, -2, -1, 1, 2, 3))) for g in degree_generators(10, k)]
        rng.shuffle(terms)
        expected = combined(table, [(rw._encode(g), coef) for g, coef in terms])
        assert {rw._encode(m): c for m, c in reduce_to_standard(FormalSum(terms))} == expected


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


def test_dependent_standard_columns_fail_the_suite_and_the_reference(monkeypatch):
    # a Type I step that drops its nested term, and a site row patched to
    # agree: with that step as a relation the standard matchings are
    # dependent, and the drain of the generators changes their image
    honest = rw._step

    def truncated(opens, dots):
        site, children = honest(opens, dots)
        return site, children[1:] if len(children) == 3 else children

    def agreeing(opens, dots, j):
        children = truncated(opens, dots)[1]
        return {(opens, dots): 1, **{code: -c for code, c in children}}

    monkeypatch.setattr(rw, "_step", truncated)
    monkeypatch.setattr(rw, "_site_row", agreeing)
    assert rw._certify(4, 1)[1] == 0
    assert verify._rewriting(4, 1) == (False, "4 generators, dim 3, 1 mismatches")
    # a relation among standard matchings alone puts a pivot in a standard
    # column of the elimination reference
    first, second = enumerate_standard(4, 1)[:2]
    honest_rows = bruteforce.relation_vectors
    monkeypatch.setattr(bruteforce, "relation_vectors",
                        lambda n, k: honest_rows(n, k) + [FormalSum([(first, 1), (second, -1)])])
    with pytest.raises(VerificationError, match="dependent") as info:
        rref_quotient_codes(4, 1)
    assert max(info.value.witness["pivots"]) >= len(degree_generators(4, 1)) - syt_count(4, 1)


def test_certify_counts_a_step_that_is_not_a_relation(monkeypatch):
    honest = rw._step

    def truncated(opens, dots):
        site, children = honest(opens, dots)
        return site, children[1:]

    monkeypatch.setattr(rw, "_step", truncated)
    assert rw._certify(4, 1)[1] == 1


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_certificate_matches_the_elimination_reference(n):
    for k in range(n // 2 + 1):
        generators, unmatched = rw._certify(n, k)
        assert unmatched == 0
        assert {g: rw._reduce_codes([(g, 1)]) for g in generators} == rref_quotient_codes(n, k)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_reduce_matches_oracle(n):
    # the oracle is the elimination reference, which never calls the kernel
    for k in range(n // 2 + 1):
        table = rref_quotient_codes(n, k)
        for g in degree_generators(n, k):
            assert {rw._encode(m): c for m, c in reduce_to_standard(single(g))} == table[rw._encode(g)]


def type_one_sign_flipped(step):
    """The Type I step with the sign of its first term, (opens, dots^j^i), flipped."""
    def mutant(opens, dots):
        site, children = step(opens, dots)
        if len(children) == 3:
            (code, sign), *rest = children
            children = ((code, -sign), *rest)
        return site, children
    return mutant


def type_two_dot_unflipped(step):
    """The Type II step that rewires (i,l),(j,k) but leaves the dot bits as they were."""
    def mutant(opens, dots):
        site, children = step(opens, dots)
        if len(children) == 1:
            [((child_opens, _), sign)] = children
            children = (((child_opens, dots), sign),)
        return site, children
    return mutant


@pytest.mark.parametrize("mutant", (type_one_sign_flipped, type_two_dot_unflipped))
def test_step_mutants_fail_the_rewriting_suite_and_the_oracle(monkeypatch, mutant):
    # the one step the kernel and the certificate both read
    monkeypatch.setattr(rw, "_step", mutant(rw._step))
    assert not all(r.ok for r in verify.run_suites(["rewriting"], 6))
    failed = 0
    for n in (2, 4, 6, 8, 10):
        try:
            test_reduce_matches_oracle(n)
        except (AssertionError, VerificationError):
            failed += 1
    assert failed


def test_certify_raises_on_impossible_dimension(monkeypatch):
    # sabotage the expected dimension to confirm the hard failure fires
    monkeypatch.setattr(rw, "syt_count", lambda n, k: 99)
    with pytest.raises(VerificationError, match="quotient dimension does not match") as info:
        rw._certify(4, 1)
    assert info.value.witness == {"n": 4, "k": 1, "dimension": 3, "expected": 99}


def encoded_row(relation):
    return frozenset((rw._encode(m), coef) for m, coef in relation)


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_code_generators_and_rows_match_the_object_builders(n):
    # a dropped dot bit or a wrong rewiring changes a row; the count pins duplicates
    for k in range(n // 2 + 1):
        generators = rw._generator_codes(n, k)
        assert len(generators) == len(set(generators))
        assert set(generators) == {rw._encode(g) for g in degree_generators(n, k)}
        rows = set(map(encoded_row, relation_vectors(n, k)))
        for opens, dots in generators:
            for bit, *_ in rw._steps(opens):
                if dots & bit:
                    row = rw._site_row(opens, dots, bit.bit_length() - 1)
                    assert frozenset(row.items()) in rows


def test_oracle_never_calls_the_kernel(monkeypatch):
    # the elimination reference must not depend on the rewrite it certifies,
    # nor on the nesting measure beyond the column order: standardness comes
    # from theta on vertex sets, and normal forms do not depend on that order
    honest = {(n, k): rref_quotient_codes(n, k) for n in range(0, 9, 2) for k in range(n // 2 + 1)}

    def refuse(*args):
        raise AssertionError("the oracle called the rewriting kernel")

    monkeypatch.setattr(rw, "_steps", refuse)
    monkeypatch.setattr(rw, "_step", refuse)
    monkeypatch.setattr(rw, "_nesting", lambda opens, dots: 0)
    for (n, k), table in honest.items():
        assert rref_quotient_codes(n, k) == table


NEGATED_TYPE_I = """
import sys
import springerrep.rewriting as rw
from springerrep.cli import main

honest = rw._step

def negated(opens, dots):
    site, children = honest(opens, dots)
    if len(children) == 3:
        (code, c), *rest = children
        children = ((code, -c), *rest)
    return site, children

rw._step = negated
sys.exit(main(["verify", "--suite", "rewriting", "--max-n", "4"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_negated_type_one_fails_the_rewriting_suite(flags):
    proc = subprocess.run([sys.executable, *flags, "-c", NEGATED_TYPE_I],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    failed = [line.split() for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL rewriting n=4 k=1 oracle 4 generators, dim 3, 1 mismatches".split()]


def test_rewriting_suite_fails_without_type_two_rows(monkeypatch, capsys):
    # the site row refuses Type II sites
    honest = rw._site_row

    def type_one_only(*args):
        row = honest(*args)
        return row if row is not None and len(row) == 4 else None

    monkeypatch.setattr(rw, "_site_row", type_one_only)
    assert main(["verify", "--suite", "rewriting", "--max-n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "mismatches" in out


GATE = """
import inspect
import sys
import springerrep.linediagrams as ld
import springerrep.rewriting as rw
import springerrep.specht as sp
import springerrep.verify as verify
from springerrep.cli import main

{sabotage}
sys.exit(main(["verify", "--suite", "rewriting", "--max-n", "4"]))
"""

EVERY_BINDING = "ld.code_expansion_masks = rw.code_expansion_masks = sp.code_expansion_masks = {rule}"

# name -> (text in every FAIL line, the sabotage)
SABOTAGE = {
    "rewrite did not decrease nesting": (
        "rewrite did not decrease nesting", """
honest = rw._step
rw._step = lambda opens, dots: (honest(opens, dots)[0], (((opens, dots), 1),))
"""),
    # a Type I step that drops its nested term, with the site row patched to
    # agree: a relation among the standard matchings that only E can see
    "standard matchings are dependent modulo the relations": ("1 mismatches", """
honest = rw._step

def truncated(opens, dots):
    site, children = honest(opens, dots)
    return site, children[1:] if len(children) == 3 else children

def agreeing(opens, dots, j):
    children = truncated(opens, dots)[1]
    return {(opens, dots): 1, **{code: -c for code, c in children}}

rw._step, rw._site_row = truncated, agreeing
"""),
    "1 mismatches": ("1 mismatches", """
honest = verify._reduce_codes

def dropped(terms):
    out = honest(terms)
    out.pop(max(out, default=None), None)
    return out

verify._reduce_codes = dropped
"""),
    "type II without the dot flip": ("rewrite did not decrease nesting", """
honest = rw._step

def unflipped(opens, dots):
    site, children = honest(opens, dots)
    i, j, k, _ = site
    return site, (((opens ^ (1 << j | 1 << k), dots), 1),) if dots >> i & 1 else children

rw._step = unflipped
"""),
    # recompiled from its source, so the drain's own loop is the mutant
    "kernel accumulating coef": ("1 mismatches", """
source = inspect.getsource(rw._reduce_codes)
if source.count("coef * sign") != 1:
    sys.exit(3)
exec(source.replace("coef * sign", "coef"), vars(rw))
verify._reduce_codes = rw._reduce_codes
"""),
    # recompiled from its source, so E is L_M itself
    "E without its sign": ("1 mismatches", """
source = inspect.getsource(rw._image)
if source.count("(-1) **") != 1:
    sys.exit(3)
exec(source.replace("(-1) **", "1 **"), vars(rw))
verify._image = rw._image
"""),
    # the rule E reads is the rule the echelon premise checks, so it fails there
    "constant expansion rule": ("mismatches", EVERY_BINDING.format(rule="lambda opens, dots: {0: 1}")),
    "zero expansion rule": ("1 mismatches", EVERY_BINDING.format(rule="lambda opens, dots: {}")),
    "echelon certificate refused": ("1 mismatches", "verify.echelon_certificate = lambda n, k: False"),
    "quotient dimension does not match": (
        "quotient dimension does not match", "rw.syt_count = lambda n, k: 99"),
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("name", SABOTAGE)
def test_sabotaged_certificate_fails_the_rewriting_suite(name, flags):
    # each check must raise or count, not assert, so -O cannot strip it
    message, sabotage = SABOTAGE[name]
    proc = subprocess.run([sys.executable, *flags, "-c", GATE.format(sabotage=sabotage)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert failed and all(message in line for line in failed)
