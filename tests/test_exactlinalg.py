import random
from fractions import Fraction

import pytest

from springerrep.exactlinalg import sparse_rref

from bruteforce import identity_matrix, is_identity, mat_mul, rank, rref, solve_in_span


def test_rank_basics():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank(identity_matrix(4)) == 4
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_rank_matches_rref_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        _, pivots = rref(mat)
        assert rank(mat) == len(pivots)


def test_rref_normalizes_pivots():
    reduced, pivots = rref([[2, 4], [1, 3]])
    assert pivots == [0, 1]
    assert reduced == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def test_sparse_rref_matches_dense_rref_on_random_matrices():
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(0, 7)
        cols = rng.randint(1, 7)
        mat = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-3, 3))) for _ in range(cols)]
               for _ in range(rows)]
        reduced, pivots = rref(mat)
        sparse = sparse_rref(_sparse(mat))
        assert sorted(sparse) == pivots
        assert [sparse[p] for p in pivots] == _sparse(reduced)


def test_sparse_rref_keeps_unit_rows_integer():
    reduced = sparse_rref([{0: -1, 2: 1}, {1: 1, 2: -1}, {0: 1, 1: 1, 2: -2}])
    assert reduced == {0: {0: 1, 2: -1}, 1: {1: 1, 2: -1}}
    assert all(type(x) is int for row in reduced.values() for x in row.values())
    assert sparse_rref([{0: 2, 1: 1}]) == {0: {0: 1, 1: Fraction(1, 2)}}
    assert sparse_rref([]) == {} and sparse_rref([{0: 0}]) == {}


def test_solve_in_span():
    basis = [[1, 0, 1], [0, 1, 1]]
    targets = [[2, 3, 5], [1, -1, 0]]
    coords = solve_in_span(basis, targets)
    assert coords == [[Fraction(2), Fraction(3)], [Fraction(1), Fraction(-1)]]


def test_solve_in_span_rejects_out_of_span():
    with pytest.raises(ValueError):
        solve_in_span([[1, 0, 0]], [[0, 1, 0]])


def test_solve_in_span_rejects_dependent_basis():
    with pytest.raises(ValueError):
        solve_in_span([[1, 1], [2, 2]], [[1, 1]])


def test_mat_mul_and_identity():
    a = [[1, 2], [3, 4]]
    assert mat_mul(a, identity_matrix(2)) == a
    assert mat_mul(a, [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
    assert is_identity(identity_matrix(3))
    assert not is_identity([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        mat_mul(a, [[1, 2]])
