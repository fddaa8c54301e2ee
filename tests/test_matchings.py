import itertools
import re

import pytest

from springerrep import (
    DottedMatching,
    NoncrossingMatching,
    Tabloid,
    TwoRowTableau,
    catalan,
    character,
    enumerate_noncrossing,
    enumerate_standard,
    is_standard,
    kostka_two_row,
    partitions_of,
    phi,
    springer_dimension,
    syt_count,
    theta,
)
from springerrep.matchings import (check_degree, check_partition, decode_word, dyck_words, opens_mask,
                                   standard_bottom_sets, standard_codes, subset_mask, subset_members)

from bruteforce import (
    kostka_bruteforce,
    noncrossing_bruteforce,
    partners_by_stack,
    perfect_matchings,
    standard_bottoms_bruteforce,
    standard_bruteforce,
    standard_by_enclosers,
    standard_tableaux,
    subset_order_key,
    theta_by_sets,
)


def test_decoder_agrees_with_the_object_rules_and_the_stack_scan():
    words = 0
    for n in range(2, 15, 2):
        assert len(dyck_words(n)) == catalan(n // 2)
        for opens in dyck_words(n):
            arcs, partner = decode_word(opens)
            assert arcs == NoncrossingMatching(n, arcs).arcs and opens_mask(arcs) == opens
            assert list(partner) == partners_by_stack(n, opens)
            words += 1
    assert words == 625


def test_enumerate_noncrossing_small():
    assert [m.arcs for m in enumerate_noncrossing(2)] == [((1, 2),)]
    assert [m.arcs for m in enumerate_noncrossing(4)] == [
        ((1, 2), (3, 4)),
        ((1, 4), (2, 3)),
    ]
    assert len(enumerate_noncrossing(6)) == 5


@pytest.mark.parametrize("n", range(0, 13, 2))
def test_enumerate_noncrossing_counts_and_bruteforce(n):
    matchings = enumerate_noncrossing(n)
    assert len(matchings) == catalan(n // 2)
    assert {m.arcs for m in matchings} == noncrossing_bruteforce(n)
    # documented order: lexicographic on the arc tuple
    assert [m.arcs for m in matchings] == sorted(m.arcs for m in matchings)


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_arcs_have_opposite_parity(n):
    for m in enumerate_noncrossing(n):
        for i, j in m.arcs:
            assert (i + j) % 2 == 1


def test_enumerate_noncrossing_rejects_bad_n():
    with pytest.raises(ValueError):
        enumerate_noncrossing(3)
    with pytest.raises(ValueError):
        enumerate_noncrossing(-2)


def test_noncrossing_validation():
    with pytest.raises(ValueError):
        NoncrossingMatching(4, ((1, 3), (2, 4)))  # crossing
    with pytest.raises(ValueError):
        NoncrossingMatching(4, ((1, 2), (3, 3)))
    with pytest.raises(ValueError):
        DottedMatching.make(4, [(1, 2), (3, 4)], [(1, 4)])  # dot on a non-arc
    with pytest.raises(ValueError, match="partition"):
        NoncrossingMatching(10**12, ((1, 2),))  # refused before any work of size n


def test_crossing_check_over_every_perfect_matching():
    accepted = set()
    for arcs in perfect_matchings(8):
        try:
            NoncrossingMatching(8, arcs)
        except ValueError as err:
            found = re.fullmatch(r"arcs \((\d+),(\d+)\) and \((\d+),(\d+)\) cross", str(err))
            a, b, c, d = map(int, found.groups())
            assert {(a, b), (c, d)} <= set(arcs) and a < c < b < d
        else:
            accepted.add(arcs)
    assert len(perfect_matchings(8)) == 105
    assert len(accepted) == 14 and accepted == noncrossing_bruteforce(8)


def test_is_standard_examples():
    assert is_standard(DottedMatching.make(4, [(1, 2), (3, 4)], [(1, 2), (3, 4)]))
    assert not is_standard(DottedMatching.make(4, [(1, 4), (2, 3)], [(2, 3)]))
    assert is_standard(DottedMatching.make(4, [(1, 4), (2, 3)], [(1, 4)]))


def test_enumerate_standard_examples():
    top = enumerate_standard(4, 2)
    assert [(m.arcs, m.dotted) for m in top] == [
        (((1, 2), (3, 4)), frozenset()),
        (((1, 4), (2, 3)), frozenset()),
    ]
    bottom = enumerate_standard(4, 0)
    assert len(bottom) == 1
    assert bottom[0].arcs == ((1, 2), (3, 4))
    assert bottom[0].dotted == frozenset({(1, 2), (3, 4)})
    assert len(enumerate_standard(6, 2)) == 9


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_is_standard_is_the_encloser_rule(n):
    # the nesting measure is 0 exactly when no dotted arc has an encloser
    for base in enumerate_noncrossing(n):
        for r in range(n // 2 + 1):
            for dots in itertools.combinations(base.arcs, r):
                m = DottedMatching(n, base.arcs, frozenset(dots))
                assert is_standard(m) == standard_by_enclosers(m)


def test_enumerate_standard_rejects_bad_k():
    with pytest.raises(ValueError):
        enumerate_standard(4, 3)
    with pytest.raises(ValueError):
        enumerate_standard(4, -1)
    for n, k in ((4, 3), (4, -1), (5, 1)):
        with pytest.raises(ValueError, match="out of range|even and nonnegative"):
            standard_tableaux(n, k)


@pytest.mark.parametrize("n, k", [(5, 2), (-2, 0), (4, -1), (4, 3), (3, 0)])
def test_every_basis_enumerator_refuses_a_degree_off_the_two_row_shapes(n, k):
    # an odd or negative vertex count, or k outside 0..n/2, with check_degree's own message
    with pytest.raises(ValueError) as expected:
        check_degree(n, k)
    for enumerate_degree in (standard_bottom_sets, standard_codes, standard_tableaux, enumerate_standard):
        with pytest.raises(ValueError) as info:
            enumerate_degree(n, k)
        assert str(info.value) == str(expected.value), enumerate_degree


def test_decoder_reads_the_size_off_the_word():
    # n = 2 * popcount(opens): the partner array spans exactly the word's vertices
    assert decode_word(0b0011) == (((1, 4), (2, 3)), (3, 2, 1, 0))
    assert decode_word(0) == ((), ())


def test_subset_mask_examples():
    assert subset_mask(()) == 0
    assert subset_mask((1, 3)) == 0b101
    assert subset_mask([4, 2]) == 0b1010
    assert subset_members(0b1010) == [2, 4] and subset_members(0) == []


@pytest.mark.parametrize("n", range(15))
def test_subset_mask_sorts_in_undot_set_order(n):
    for k in range(n + 1):
        subsets = list(itertools.combinations(range(1, n + 1), k))
        assert sorted(subsets, key=subset_mask) == sorted(subsets, key=subset_order_key)
        assert all(subset_members(subset_mask(s)) == list(s) for s in subsets)


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_enumerate_standard_matches_bruteforce(n):
    for k in range(n // 2 + 1):
        listed = enumerate_standard(n, k)
        assert len(listed) == syt_count(n, k)
        assert set(listed) == standard_bruteforce(n, k)
        # canonical order: increasing undot sets
        keys = [tuple(sorted(m.right_undotted(), reverse=True)) for m in listed]
        assert keys == sorted(keys)


def test_phi_examples():
    all_dotted = DottedMatching.make(4, [(1, 2), (3, 4)], [(1, 2), (3, 4)])
    assert phi(all_dotted) == TwoRowTableau(4, ())
    figure = DottedMatching.make(6, [(1, 4), (2, 3), (5, 6)], [(1, 4)])
    assert phi(figure) == TwoRowTableau(6, (3, 6))
    assert phi(figure).top == (1, 2, 4, 5)
    nest = DottedMatching.make(4, [(1, 4), (2, 3)])
    assert phi(nest) == TwoRowTableau(4, (3, 4))


def test_theta_examples():
    m = theta(TwoRowTableau(6, (5,)))
    assert m.undotted_arcs == ((4, 5),)
    assert m.dotted == frozenset({(1, 2), (3, 6)})

    for n in (2, 4, 6, 8):
        m = theta(TwoRowTableau(n, ()))
        assert m.arcs == tuple((2 * i - 1, 2 * i) for i in range(1, n // 2 + 1))
        assert m.dotted == frozenset(m.arcs)

    m = theta(TwoRowTableau(4, (2, 4)))
    assert m.undotted_arcs == ((1, 2), (3, 4))
    assert not m.dotted


def test_tableau_rejects_nonstandard():
    with pytest.raises(ValueError):
        TwoRowTableau(4, (1, 2))  # column condition fails at the first column
    with pytest.raises(ValueError):
        TwoRowTableau(4, (2, 3))
    with pytest.raises(ValueError):
        TwoRowTableau(4, (2, 2))


def test_refinements_extend_their_base():
    t = TwoRowTableau(6, [6, 3])  # sorted, as a tabloid's bottom row is
    assert isinstance(t, Tabloid) and t.bottom == (3, 6) and t.top == (1, 2, 4, 5) and t.k == 2
    assert t != Tabloid(6, (3, 6))
    for n, bottom in ((6, (3, 3)), (6, (3, 7)), (4, (2, 3, 4)), (5, (2,))):
        with pytest.raises(ValueError):
            TwoRowTableau(n, bottom)
    Tabloid(5, (2,))  # only a tableau needs an even vertex count

    m = DottedMatching(4, ((2, 3), (4, 1)), [(3, 2)])
    assert isinstance(m, NoncrossingMatching)
    assert m.arcs == ((1, 4), (2, 3)) and m.dotted == {(2, 3)}
    assert m == DottedMatching.make(4, [(1, 4), (2, 3)], [(2, 3)])
    assert m != NoncrossingMatching(4, m.arcs)
    with pytest.raises(ValueError):
        DottedMatching(4, ((1, 3), (2, 4)), ())


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_bijection_round_trip(n):
    for k in range(n // 2 + 1):
        for m in standard_bruteforce(n, k):
            assert theta(phi(m)) == m
        for bottom in standard_bottoms_bruteforce(n, k):
            t = TwoRowTableau(n, bottom)
            assert theta(t) == theta_by_sets(t)
            assert phi(theta(t)) == t
            assert is_standard(theta(t))
            assert theta(t).k == k


def test_syt_count_examples():
    assert syt_count(4, 2) == 2
    assert all(syt_count(n, 0) == 1 for n in range(0, 12, 2))
    assert syt_count(6, 2) == 9
    with pytest.raises(ValueError):
        syt_count(4, 3)


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_syt_count_matches_enumeration(n):
    for k in range(n // 2 + 1):
        assert syt_count(n, k) == len(standard_bottoms_bruteforce(n, k))


@pytest.mark.parametrize("n", range(0, 13, 2))
def test_syt_counts_sum_to_central_binomial(n):
    from math import comb

    assert sum(syt_count(n, k) for k in range(n // 2 + 1)) == comb(n, n // 2)


def test_springer_dimension():
    assert springer_dimension((6,)) == 0
    assert springer_dimension((3, 3)) == 3
    assert springer_dimension((2, 2, 1)) == 4
    with pytest.raises(ValueError):
        springer_dimension((1, 2))


def test_kostka_examples():
    assert kostka_two_row((3, 1), (2, 2)) == 1
    assert kostka_two_row((2, 2), (3, 1)) == 0
    assert kostka_two_row((4,), (4,)) == 1
    with pytest.raises(ValueError):
        kostka_two_row((2, 2), (2, 1, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_kostka_matches_bruteforce(n):
    for lam in partitions_of(n):
        if len(lam) > 2:
            continue
        for mu in partitions_of(n):
            assert kostka_two_row(mu, lam) == kostka_bruteforce(mu, lam)


def test_partitions_of():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]
    assert check_partition((3, 3, 0, 0)) == (3, 3)
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_partitions_share_one_memo_and_return_fresh_lists():
    from springerrep.matchings import _partitions

    partitions_of(12)
    before = _partitions.cache_info()
    first = partitions_of(12)
    assert _partitions.cache_info().misses == before.misses  # the memo outlives the call
    first.append(("spoiled",))
    assert partitions_of(12) == first[:-1] and len(partitions_of(12)) == 77


@pytest.mark.parametrize("parts", [
    (2.7, 1.2, 1.1), (2.5, 2.5), (2.0, 2), (True, 1), (2, False), ("2", "2"), ("3",),
])
@pytest.mark.parametrize("call", [
    check_partition,
    springer_dimension,
    lambda parts: character(4, 1, parts),
    lambda parts: kostka_two_row(parts, (2, 2)),
], ids=["check_partition", "springer_dimension", "character", "kostka_two_row"])
def test_partition_parts_must_be_ints(call, parts):
    # int() used to truncate 2.7 to 2 and read True as 1
    with pytest.raises(ValueError, match="not an integer"):
        call(parts)


def test_degenerate_n_zero():
    assert [m.arcs for m in enumerate_noncrossing(0)] == [()]
    assert len(enumerate_standard(0, 0)) == 1
    t = TwoRowTableau(0, ())
    assert phi(theta(t)) == t and theta(t) == theta_by_sets(t)
