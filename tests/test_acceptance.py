"""Acceptance criteria, one test per criterion, printing a pass/fail line each.

Everything is exact arithmetic; the only tolerances are the stated wall-clock
budgets, asserted where the criterion carries one.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from springerrep import (
    catalan,
    character,
    chart_diagram_consistency,
    echelon_certificate,
    enumerate_noncrossing,
    enumerate_standard,
    graded_decomposition,
    irreducibility_check,
    kostka_two_row,
    phi,
    reduce_to_standard,
    rep_matrix,
    springer_dimension,
    syt_count,
    theta,
    verify_coxeter,
    verify_module_equality,
)
from springerrep.formal import FormalSum
from springerrep.matchings import TwoRowTableau, partitions_of
from springerrep.matchings import standard_bottom_sets

from bruteforce import degree_generators, dense_quotient_table


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_counting():
    with criterion(1, "noncrossing and standard counts, n <= 10, < 5 s"):
        start = time.perf_counter()
        catalans = [len(enumerate_noncrossing(n)) for n in (2, 4, 6, 8, 10)]
        assert catalans == [1, 2, 5, 14, 42]
        for n in (2, 4, 6, 8, 10):
            for k in range(n // 2 + 1):
                expected = comb(n, k) - (comb(n, k - 1) if k else 0)
                assert len(enumerate_standard(n, k)) == expected
        assert time.perf_counter() - start < 5.0


def test_criterion_2_bijection():
    with criterion(2, "phi and theta are mutually inverse, n <= 10, < 10 s"):
        start = time.perf_counter()
        for n in range(2, 11, 2):
            for k in range(n // 2 + 1):
                for m in enumerate_standard(n, k):
                    assert theta(phi(m)) == m
                for bottom in standard_bottom_sets(n, k):
                    t = TwoRowTableau(n, bottom)
                    assert phi(theta(t)) == t
        assert time.perf_counter() - start < 10.0


def test_criterion_3_rewriting_oracle():
    with criterion(3, "rewriting matches the exact elimination of the relations, n <= 8, < 60 s"):
        start = time.perf_counter()
        for n in range(2, 9, 2):
            for k in range(n // 2 + 1):
                table = dense_quotient_table(n, k)  # never calls the rewriting kernel
                for g in degree_generators(n, k):
                    assert reduce_to_standard(FormalSum({g: 1})) == table[g]
        assert time.perf_counter() - start < 60.0


def test_criterion_4_echelon():
    with criterion(4, "expansion matrices are row-echelon with +1 pivots, n <= 8"):
        for n in range(2, 9, 2):
            for k in range(n // 2 + 1):
                assert echelon_certificate(n, k)


def test_criterion_5_representation():
    with criterion(5, "Coxeter relations n <= 10, pinned matrix and traces"):
        for n in range(2, 11, 2):
            for k in range(n // 2 + 1):
                verify_coxeter(n, k)
        assert rep_matrix(4, 2, 1) == ((-1, 1), (0, 1))
        classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
        assert [character(4, 2, ct) for ct in classes] == [2, 0, 2, -1, 0]


def test_criterion_6_central_identity():
    with criterion(6, "chart action equals diagram permutation, n <= 8, < 60 s"):
        start = time.perf_counter()
        for n in range(2, 9, 2):
            for k in range(n // 2 + 1):
                assert chart_diagram_consistency(n, k)
        assert time.perf_counter() - start < 60.0


def test_criterion_7_irreducibility():
    with criterion(7, "<chi,chi> = 1 for every degree, n <= 10"):
        for n in range(2, 11, 2):
            for k in range(n // 2 + 1):
                assert irreducibility_check(n, k) == Fraction(1)


def test_criterion_8_module_equality():
    with criterion(8, "Specht and matching modules coincide, n <= 8"):
        for n in range(2, 9, 2):
            for k in range(n // 2 + 1):
                assert verify_module_equality(n, k)


def test_criterion_9_multiplicity_pattern():
    with criterion(9, "each two-row irreducible appears exactly once across degrees"):
        for n in range(2, 9, 2):
            decomposition = graded_decomposition(n)
            expected = [(k, tuple(p for p in (n - k, k) if p)) for k in range(n // 2 + 1)]
            assert decomposition == expected
            shapes = [shape for _, shape in decomposition]
            assert len(set(shapes)) == len(shapes)
            for mu in partitions_of(n):
                assert kostka_two_row(mu, (n // 2, n // 2)) == (1 if mu in shapes else 0)


def test_criterion_10_dimension_formula():
    with criterion(10, "fiber dimension n/2 and top homology degree n, n <= 12"):
        for n in range(2, 13, 2):
            assert springer_dimension((n // 2, n // 2)) == n // 2
            assert syt_count(n, n // 2) == catalan(n // 2) > 0


def test_criterion_11_determinism():
    with criterion(11, "verify reports are byte-identical across fresh processes"):
        command = [sys.executable, "-m", "springerrep.cli",
                   "verify", "--suite", "all", "--max-n", "8"]
        outputs = []
        for _ in range(2):
            proc = subprocess.run(command, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
