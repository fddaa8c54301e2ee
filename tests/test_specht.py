import random
import subprocess
import sys
import textwrap

import pytest

from springerrep import (
    Tabloid,
    TwoRowTableau,
    emit_top_degree_basis,
    expand,
    graded_decomposition,
    matching_generator,
    polytabloid,
    verify_module_equality,
)
from springerrep.errors import VerificationError
from springerrep.formal import FormalSum
from springerrep.codes import decode, partitions_of, standard_codes, subset_mask, syt_count
from springerrep.matchings import enumerate_standard, tabloid_sum
from springerrep.perms import Permutation
from springerrep.snaction import (
    character,
    character_table,
    class_inner_product,
)
from springerrep.specht import specht_characters

from bruteforce import (
    class_representative,
    dense_specht_characters,
    generator_by_arc_swaps,
    m_,
    negated_lead,
    peel_rests,
    peeled_specht_characters,
    polytabloid_by_columns,
    permute_diagram,
    permute_tabloids,
    span_rank,
    standard_tableaux,
    two_row_character_oracle,
)


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
        assert polytabloid(TwoRowTableau(n, ())) == FormalSum({t_(n): 1})


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
    assert matching_generator(m) == FormalSum({t_(6): 1})


def test_psi_examples():
    # psi, undot set to bottom row, is the identity: expansions are tabloid sums
    worked = m_(4, [(1, 2), (3, 4)], [(3, 4)])
    assert expand(worked) == FormalSum([(t_(4, 2), 1), (t_(4, 1), -1)])
    fully_dotted = m_(4, [(1, 2), (3, 4)], [(1, 2), (3, 4)])
    assert expand(fully_dotted) == FormalSum({t_(4): 1})


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_psi_carries_expansion_to_generator(n):
    for k in range(n // 2 + 1):
        for m in enumerate_standard(n, k):
            assert expand(m) == matching_generator(m)


def test_psi_intertwines_the_actions():
    rng = random.Random(5)
    for n in (4, 6):
        for k in range(n // 2 + 1):
            for m in enumerate_standard(n, k):
                v = expand(m)
                images = list(range(1, n + 1))
                rng.shuffle(images)
                w = Permutation(tuple(images))
                assert permute_diagram(w, v) == permute_tabloids(w, matching_generator(m))


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_decoders_match_the_object_references(n):
    for k in range(n // 2 + 1):
        for t in standard_tableaux(n, k):
            assert polytabloid(t) == polytabloid_by_columns(t)
        for m in enumerate_standard(n, k):
            assert matching_generator(m) == generator_by_arc_swaps(m)


def test_span_rank():
    vectors = [polytabloid_by_columns(t) for t in standard_tableaux(4, 2)]
    assert span_rank(vectors) == 2
    assert span_rank(vectors + vectors) == 2
    assert span_rank([vectors[0], vectors[0]]) == 1
    assert span_rank([generator_by_arc_swaps(m) for m in enumerate_standard(6, 3)]) == 5
    assert span_rank([]) == 0
    with pytest.raises(ValueError):
        span_rank([FormalSum({t_(4, 2): 1}), FormalSum({t_(4, 2, 4): 1})])


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
    assert top4 == [generator_by_arc_swaps(m) for m in enumerate_standard(4, 2)]
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


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_young_rule_matches_the_peeled_action(n):
    for k in range(n // 2 + 1):
        assert specht_characters(n, k) == peeled_specht_characters(n, k)


@pytest.mark.parametrize("n, k", [(5, 1), (4, 3), (4, -1), (-2, 0)])
def test_specht_characters_refuse_bad_degrees(n, k):
    # Young's rule alone would return a virtual character here
    with pytest.raises(ValueError, match="even and nonnegative|out of range"):
        specht_characters(n, k)


def test_specht_span_outside_invariance_is_reported():
    # single standard tabloids: unitriangular, but (1 2) carries {2} to {1}, no leading tabloid
    with pytest.raises(VerificationError, match="not S_n-invariant") as info:
        peeled_specht_characters(4, 1, polytabloid=lambda t: FormalSum({Tabloid(t.n, t.bottom): 1}))
    assert info.value.witness["tabloid"] == [1]


@pytest.mark.parametrize("broken", ["doubled", "raised"])
def test_specht_leading_term_is_checked(monkeypatch, broken):
    import springerrep.specht as sp

    honest = sp.polytabloid_masks

    def sabotaged(n, bottom):
        vector = honest(n, bottom)
        if bottom != (3, 4):
            return vector
        if broken == "doubled":  # {T} keeps the lead with coefficient 2
            return {b: 2 * c for b, c in vector.items()}
        return {**vector, subset_mask((2, 5)): 1}  # a tabloid above {T}

    monkeypatch.setattr(sp, "polytabloid_masks", sabotaged)
    with pytest.raises(VerificationError, match="not unitriangular") as info:
        verify_module_equality(6 if broken == "raised" else 4, 2)
    assert info.value.witness["bottom"] == (3, 4)


def _run_cli(script: str, optimized: bool = True) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter; with ``optimized``, under
    ``python -O``, where its first line proves that asserts are stripped."""
    prefix = 'assert False, "asserts must be stripped"\n' if optimized else ""
    return subprocess.run([sys.executable, *(["-O"] if optimized else []), "-c",
                           prefix + textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=60)


def test_specht_guard_survives_optimized_python():
    proc = _run_cli("""
        import sys
        import springerrep.specht as sp
        from springerrep.cli import main
        from springerrep.codes import subset_mask

        sp.polytabloid_masks = lambda n, bottom: {subset_mask(bottom): 1}
        sys.exit(main(["verify", "--suite", "module-equality", "--max-n", "4"]))
    """)
    assert proc.returncode == 1, proc.stderr
    assert "polytabloid is not in the kernel of the down operator witness=" in proc.stdout


BROKEN_PRODUCT_RULE = """
    import sys
    from springerrep import codes, linediagrams, specht
    from springerrep.cli import main

    honest = codes.pair_product

    def broken(pairs):
        # the first factor (bit b - bit a) becomes (bit a - bit b), or (bit b + bit a)
        pairs = list(pairs)
        terms = honest(pairs)
        if not pairs:
            return terms
        a = pairs[0][0]
        if FAULT == "factor":
            return {mask: -coef for mask, coef in terms.items()}
        return {mask: -coef if mask >> (a - 1) & 1 else coef for mask, coef in terms.items()}

    # every module that calls the shared rule
    linediagrams.pair_product = specht.pair_product = broken
    sys.exit(main(["verify", "--suite", "module-equality", "--max-n", "4"]))
"""


@pytest.mark.parametrize("fault, message", [
    ("factor", "polytabloid is not unitriangular"),  # the e_T lead turns -1
    # the e_T leads keep +1, so only the independent e_M can see it
    ("term", "relabelled expansion differs from matching generator"),
], ids=["factor", "term"])
@pytest.mark.parametrize("optimized", [False, True], ids=["asserts", "optimized"])
def test_module_equality_catches_a_broken_shared_product_rule(fault, message, optimized):
    proc = _run_cli(BROKEN_PRODUCT_RULE.replace("FAULT", repr(fault)), optimized)
    assert proc.returncode == 1, proc.stderr
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert failed and all(message in line for line in failed), proc.stdout


@pytest.mark.parametrize("optimized", [False, True], ids=["asserts", "optimized"])
def test_multiplicity_gate_fires_on_the_wrong_shape(optimized):
    proc = _run_cli("""
        import sys
        import springerrep.specht as sp
        from springerrep.cli import main

        honest = sp.specht_characters
        # the character of shape (n-k+1, k-1); degree 0 keeps its own
        sp.specht_characters = lambda n, k: honest(n, max(k - 1, 0))
        sys.exit(main(["verify", "--suite", "multiplicity", "--max-n", "4"]))
    """, optimized)
    assert proc.returncode == 1, proc.stderr
    assert "does not pair to 1" in proc.stdout


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


def test_module_equality_names_the_pivot_when_polytabloids_are_single_tabloids(monkeypatch):
    import springerrep.specht as sp

    # single standard tabloids are unitriangular, but the down operator sends {2} to {}
    monkeypatch.setattr(sp, "polytabloid_masks", lambda n, bottom: {subset_mask(bottom): 1})
    with pytest.raises(VerificationError, match="polytabloid is not in the kernel of the down operator") as info:
        verify_module_equality(4, 1)
    assert info.value.witness == {"n": 4, "k": 1, "bottom": (2,)}


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_every_generator_peels_into_the_specht_span(n):
    # the elimination the certificate no longer runs, against the certificate itself
    for k in range(n // 2 + 1):
        rests = peel_rests(n, k)
        assert len(rests) == syt_count(n, k) and not any(rests.values())
        assert verify_module_equality(n, k)


def test_chain_gate_kills_a_sign_flip_below_a_non_pivot_lead(monkeypatch):
    import springerrep.specht as sp

    honest = sp.polytabloid_masks

    def sabotaged(n, bottom):
        # the lead keeps +1, so only the down operator, or a peel, can see it
        vector = honest(n, bottom)
        if bottom == (3, 4):
            vector[min(vector)] *= -1
        return vector

    monkeypatch.setattr(sp, "polytabloid_masks", sabotaged)
    with pytest.raises(VerificationError, match="polytabloid is not in the kernel of the down operator") as info:
        verify_module_equality(6, 2)
    assert info.value.witness == {"n": 6, "k": 2, "bottom": (3, 4)}
    # the elimination reference rejects the same mutant
    rests = peel_rests(6, 2, polytabloid=lambda t: tabloid_sum(t.n, sabotaged(t.n, t.bottom)))
    assert any(rests.values())


def test_module_equality_checks_the_relabelled_expansion(monkeypatch):
    import springerrep.specht as sp

    monkeypatch.setattr(sp, "code_expansion_masks", negated_lead(sp.code_expansion_masks))
    with pytest.raises(VerificationError,
                       match="relabelled expansion differs from matching generator") as info:
        verify_module_equality(4, 1)
    assert info.value.witness == {"n": 4, "k": 1, "arcs": ((1, 2), (3, 4)), "dotted": [(3, 4)]}


def one_factor_flipped(fault):
    """``pair_product`` with its last factor (bit b - bit a) turned into (bit a - bit b), or
    into (bit b + bit a)."""
    from springerrep.codes import pair_product

    def broken(pairs):
        pairs = list(pairs)
        terms = pair_product(pairs)
        if not pairs:
            return terms
        a = pairs[-1][0]
        if fault == "factor":
            return {mask: -coef for mask, coef in terms.items()}
        return {mask: -coef if mask >> (a - 1) & 1 else coef for mask, coef in terms.items()}

    return broken


@pytest.mark.parametrize("fault, message", [
    ("factor", "polytabloid is not unitriangular"),  # the lead turns -1
    ("term", "polytabloid is not in the kernel of the down operator"),
], ids=["factor", "term"])
def test_module_equality_catches_a_one_factor_sign_flip_in_the_polytabloids(monkeypatch, fault, message):
    import springerrep.specht as sp

    monkeypatch.setattr(sp, "pair_product", one_factor_flipped(fault))
    with pytest.raises(VerificationError, match=message) as info:
        verify_module_equality(2, 1)
    assert info.value.witness == {"n": 2, "k": 1, "bottom": (2,)}
    # on a later factor too: the degree's first tableau has columns (1, 2), (3, 4)
    with pytest.raises(VerificationError, match=message) as info:
        verify_module_equality(6, 2)
    assert info.value.witness == {"n": 6, "k": 2, "bottom": (2, 4)}


@pytest.mark.parametrize("broken", ["repeated", "doubled"])
def test_module_equality_checks_the_matching_leads(monkeypatch, broken):
    import springerrep.specht as sp

    honest = sp.code_generator_masks
    first, second = standard_codes(6, 2)[:2]

    def sabotaged(*code):
        if code != second:
            return honest(*code)
        return honest(*first) if broken == "repeated" else {b: 2 * c for b, c in honest(*code).items()}

    monkeypatch.setattr(sp, "code_generator_masks", sabotaged)
    with pytest.raises(VerificationError, match="distinct leading tabloids") as info:
        verify_module_equality(6, 2)
    assert info.value.witness["arcs"] == enumerate_standard(6, 2)[1].arcs


def test_module_equality_pairs_each_tableau_with_its_own_code(monkeypatch):
    # with the first two codes exchanged the e_M keep distinct +-1 leads and
    # the pivot matching is still among them, but the first e_M no longer
    # leads at its own tableau T0
    import springerrep.codes as codes
    import springerrep.linediagrams as ld
    import springerrep.snaction as sn
    import springerrep.specht as sp

    honest = codes.standard_codes
    caches = (codes.standard_codes, sn._tables)

    def clear():
        for cached in caches:
            cached.cache_clear()

    def swapped(n, k):
        codes = honest(n, k)
        return (*codes[1::-1], *codes[2:])

    clear()
    for module in (codes, sn, sp, ld):  # every binding, as an edit of its source would
        monkeypatch.setattr(module, "standard_codes", swapped)
    try:
        with pytest.raises(VerificationError, match="distinct leading tabloids") as info:
            verify_module_equality(6, 2)
    finally:
        clear()
    assert info.value.witness == {"n": 6, "k": 2, **decode(*honest(6, 2)[1]), "tabloid": [3, 4]}


def test_module_equality_refuses_a_repeated_pair(monkeypatch):
    # the second tableau and its code both repeat the first: each e_T and e_M
    # passes its own gates, and only distinct leads tell the pairs apart
    import springerrep.specht as sp

    bottoms, codes = sp.standard_bottom_sets(6, 2), sp.standard_codes(6, 2)
    monkeypatch.setattr(sp, "standard_bottom_sets", lambda n, k: [bottoms[0], *bottoms[:-1]])
    monkeypatch.setattr(sp, "standard_codes", lambda n, k: (codes[0], *codes[:-1]))
    with pytest.raises(VerificationError, match="distinct leading tabloids") as info:
        verify_module_equality(6, 2)
    assert info.value.witness == {"n": 6, "k": 2, **decode(*codes[0]), "tabloid": [2, 4]}


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_module_equality_agrees_with_dense_rank(n):
    for k in range(n // 2 + 1):
        e_t = [polytabloid_by_columns(t) for t in standard_tableaux(n, k)]
        e_m = [generator_by_arc_swaps(m) for m in enumerate_standard(n, k)]
        expected = syt_count(n, k)
        assert (span_rank(e_t), span_rank(e_m), span_rank(e_t + e_m)) == (expected,) * 3
