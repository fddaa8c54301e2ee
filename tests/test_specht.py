import random
import subprocess
import sys
import textwrap

import pytest

from springerrep import (
    DottedMatching,
    Tabloid,
    TwoRowTableau,
    emit_top_degree_basis,
    expand,
    graded_decomposition,
    matching_generator,
    polytabloid,
    psi,
    verify_module_equality,
)
from springerrep.errors import VerificationError
from springerrep.formal import FormalSum
from springerrep.matchings import enumerate_standard, partitions_of, syt_count
from springerrep.perms import Permutation
from springerrep.snaction import (
    character,
    character_table,
    class_inner_product,
    class_representative,
)
from springerrep.specht import specht_characters, standard_tableaux

from bruteforce import (
    dense_specht_characters,
    negated_lead,
    permute_diagram,
    permute_tabloids,
    span_rank,
    two_row_character_oracle,
)


def m_(n, arcs, dotted=()):
    return DottedMatching.make(n, arcs, dotted)


def t_(n, *bottom):
    return Tabloid(n, bottom)


def test_polytabloid_figure_rows():
    assert polytabloid(TwoRowTableau(4, (2, 4))) == FormalSum([
        (t_(4, 2, 4), 1), (t_(4, 1, 4), -1), (t_(4, 2, 3), -1), (t_(4, 1, 3), 1),
    ])
    assert polytabloid(TwoRowTableau(4, (3, 4))) == FormalSum([
        (t_(4, 3, 4), 1), (t_(4, 1, 4), -1), (t_(4, 2, 3), -1), (t_(4, 1, 2), 1),
    ])


def test_polytabloid_single_row():
    for n in (0, 2, 6):
        assert polytabloid(TwoRowTableau(n, ())) == FormalSum.single(t_(n))


def test_matching_generator_figure_rows():
    unnest = m_(4, [(1, 2), (3, 4)])
    assert matching_generator(unnest) == polytabloid(TwoRowTableau(4, (2, 4)))
    nest = m_(4, [(1, 4), (2, 3)])
    assert matching_generator(nest) == FormalSum([
        (t_(4, 3, 4), 1), (t_(4, 1, 3), -1), (t_(4, 2, 4), -1), (t_(4, 1, 2), 1),
    ])
    # the nest generator is NOT the second polytabloid
    assert matching_generator(nest) != polytabloid(TwoRowTableau(4, (3, 4)))


def test_matching_generator_fully_dotted():
    m = m_(6, [(1, 2), (3, 4), (5, 6)], [(1, 2), (3, 4), (5, 6)])
    assert matching_generator(m) == FormalSum.single(t_(6))


def test_psi_examples():
    from springerrep.linediagrams import UndotSet

    assert psi(FormalSum.single(UndotSet(4, ()))) == FormalSum.single(t_(4))
    worked = m_(4, [(1, 2), (3, 4)], [(3, 4)])
    assert psi(expand(worked)) == FormalSum([(t_(4, 2), 1), (t_(4, 1), -1)])


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_psi_carries_expansion_to_generator(n):
    for k in range(n // 2 + 1):
        for m in enumerate_standard(n, k):
            assert psi(expand(m)) == matching_generator(m)


def test_psi_intertwines_the_actions():
    rng = random.Random(5)
    for n in (4, 6):
        for k in range(n // 2 + 1):
            for m in enumerate_standard(n, k):
                v = expand(m)
                images = list(range(1, n + 1))
                rng.shuffle(images)
                w = Permutation(tuple(images))
                assert psi(permute_diagram(w, v)) == permute_tabloids(w, psi(v))


def test_span_rank():
    vectors = [polytabloid(t) for t in standard_tableaux(4, 2)]
    assert span_rank(vectors) == 2
    assert span_rank(vectors + vectors) == 2
    assert span_rank([vectors[0], vectors[0]]) == 1
    assert span_rank([matching_generator(m) for m in enumerate_standard(6, 3)]) == 5
    assert span_rank([]) == 0
    with pytest.raises(ValueError):
        span_rank([FormalSum.single(t_(4, 2)), FormalSum.single(t_(4, 2, 4))])


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_module_equality(n):
    for k in range(n // 2 + 1):
        assert verify_module_equality(n, k)


def test_module_equality_witness_pair():
    # undotted arcs on the left: column transpositions equal the arcs exactly
    m0 = m_(8, [(1, 2), (3, 4), (5, 6), (7, 8)], [(5, 6), (7, 8)])
    t0 = TwoRowTableau(8, (2, 4))
    assert matching_generator(m0) == polytabloid(t0)


def test_emit_top_degree_basis():
    assert emit_top_degree_basis(2) == [FormalSum([(t_(2, 2), 1), (t_(2, 1), -1)])]
    top4 = emit_top_degree_basis(4)
    assert top4 == [matching_generator(m) for m in enumerate_standard(4, 2)]
    top6 = emit_top_degree_basis(6)
    assert len(top6) == 5 and span_rank(top6) == 5
    with pytest.raises(ValueError):
        emit_top_degree_basis(5)


def test_specht_characters_match_subset_oracle():
    for n in (2, 4, 6, 8, 10):
        for k in range(n // 2 + 1):
            chars = specht_characters(n, k)
            for cycle_type in partitions_of(n):
                w = class_representative(n, cycle_type)
                assert chars[cycle_type] == two_row_character_oracle(w, k)
                # matching-module side carries the same character
                assert chars[cycle_type] == character(n, k, cycle_type)


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_specht_characters_match_dense_elimination(n):
    for k in range(n // 2 + 1):
        assert specht_characters(n, k) == dense_specht_characters(n, k)


@pytest.fixture
def fresh_specht_characters():
    specht_characters.cache_clear()
    yield
    specht_characters.cache_clear()


def test_specht_span_outside_invariance_is_reported(monkeypatch, fresh_specht_characters):
    import springerrep.specht as sp

    # single standard tabloids: unitriangular, but (1 2) carries {2} to {1}, no leading tabloid
    monkeypatch.setattr(sp, "polytabloid", lambda t: FormalSum.single(Tabloid(t.n, t.bottom)))
    with pytest.raises(VerificationError, match="not S_n-invariant") as info:
        specht_characters(4, 1)
    assert info.value.witness["tabloid"] == [1]


@pytest.mark.parametrize("broken", ["doubled", "raised"])
def test_specht_leading_term_is_checked(monkeypatch, fresh_specht_characters, broken):
    import springerrep.specht as sp

    honest = sp.polytabloid

    def sabotaged(t):
        if t.bottom != (3, 4):
            return honest(t)
        if broken == "doubled":  # {T} keeps the lead with coefficient 2
            return 2 * honest(t)
        return honest(t) + FormalSum.single(Tabloid(t.n, (2, 5)))  # a tabloid above {T}

    monkeypatch.setattr(sp, "polytabloid", sabotaged)
    with pytest.raises(VerificationError, match="not unitriangular") as info:
        specht_characters(6 if broken == "raised" else 4, 2)
    assert info.value.witness["bottom"] == (3, 4)


def test_specht_guard_survives_optimized_python():
    script = textwrap.dedent("""
        import sys
        import springerrep.specht as sp
        from springerrep.cli import main
        from springerrep.formal import FormalSum

        assert False, "asserts must be stripped"
        sp.polytabloid = lambda t: FormalSum.single(sp.Tabloid(t.n, t.bottom))
        sys.exit(main(["verify", "--suite", "multiplicity", "--max-n", "4"]))
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "not S_n-invariant witness=" in proc.stdout


def test_graded_decomposition_examples():
    assert graded_decomposition(4) == [(0, (4,)), (1, (3, 1)), (2, (2, 2))]
    assert graded_decomposition(2) == [(0, (2,)), (1, (1, 1))]
    assert character(2, 1, (2,)) == -1  # the sign representation in top degree


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_matching_and_specht_characters_are_orthonormal_by_shape(n):
    degrees = range(n // 2 + 1)
    for k in degrees:
        for j in degrees:
            pairing = class_inner_product(character_table(n, k), specht_characters(n, j))
            assert pairing == (1 if k == j else 0)


def test_tabloid_validation():
    with pytest.raises(ValueError):
        Tabloid(4, (1, 1))
    with pytest.raises(ValueError):
        Tabloid(4, (5,))
    with pytest.raises(ValueError):
        Tabloid(4, (1, 2, 3))


def test_rank_mismatch_raises(monkeypatch):
    import springerrep.specht as sp

    monkeypatch.setattr(sp, "syt_count", lambda n, k: 7)
    with pytest.raises(VerificationError):
        verify_module_equality(4, 1)


def test_module_equality_names_the_generator_that_fails_to_peel(monkeypatch):
    import springerrep.specht as sp

    # single standard tabloids are unitriangular, but e_M = {2} - {1} leaves {1} behind
    monkeypatch.setattr(sp, "polytabloid", lambda t: FormalSum.single(Tabloid(t.n, t.bottom)))
    with pytest.raises(VerificationError, match="not in the Specht span") as info:
        verify_module_equality(4, 1)
    witness = info.value.witness
    assert (witness["arcs"], witness["dotted"], witness["tabloid"]) == (
        ((1, 2), (3, 4)), [(3, 4)], [1])


def test_module_equality_checks_the_relabelled_expansion(monkeypatch):
    import springerrep.specht as sp

    monkeypatch.setattr(sp, "expansion_masks", negated_lead(sp.expansion_masks))
    with pytest.raises(VerificationError,
                       match="relabelled expansion differs from matching generator") as info:
        verify_module_equality(4, 1)
    assert info.value.witness == {"n": 4, "k": 1, "arcs": ((1, 2), (3, 4)), "dotted": [(3, 4)]}


@pytest.mark.parametrize("broken", ["repeated", "doubled"])
def test_module_equality_checks_the_matching_leads(monkeypatch, broken):
    import springerrep.specht as sp

    honest = sp.matching_generator
    first, second = enumerate_standard(6, 2)[:2]

    def sabotaged(m):
        if m != second:
            return honest(m)
        return honest(first) if broken == "repeated" else 2 * honest(m)

    monkeypatch.setattr(sp, "matching_generator", sabotaged)
    with pytest.raises(VerificationError, match="distinct leading tabloids") as info:
        verify_module_equality(6, 2)
    assert info.value.witness["arcs"] == second.arcs


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_module_equality_agrees_with_dense_rank(n):
    for k in range(n // 2 + 1):
        e_t = [polytabloid(t) for t in standard_tableaux(n, k)]
        e_m = [matching_generator(m) for m in enumerate_standard(n, k)]
        expected = syt_count(n, k)
        assert (span_rank(e_t), span_rank(e_m), span_rank(e_t + e_m)) == (expected,) * 3
