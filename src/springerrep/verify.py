"""Named verification suites behind the ``verify`` CLI command.

``SUITES`` is the one table of suites, in report order: each maps to the
checks it runs for one even ``n`` and to the largest ``n`` it covers: every
suite runs to ``--max-n``, which the CLI bounds by ``MAX_VERIFY_N``, and
dimension always runs to that bound.  Tasks run serially in table order, so
reports are byte-identical from run to run.  Failures are reported, never
raised, and carry the witness of whichever identity broke.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable

from .errors import VerificationError
from .formal import FormalSum
from .linediagrams import echelon_certificate
from .matchings import (
    catalan,
    enumerate_noncrossing,
    enumerate_standard,
    is_standard,
    kostka_two_row,
    partitions_of,
    phi,
    springer_dimension,
    syt_count,
    theta,
    TwoRowTableau,
    standard_bottom_sets,
)
from .rewriting import MAX_VERIFY_N, degree_generators, quotient_project_oracle, reduce_to_standard
from .snaction import chart_diagram_consistency, irreducibility_check, verify_coxeter
from .specht import graded_decomposition, verify_module_equality

Rows = list[tuple[str, bool, str]]  # (check name, ok, detail) for one n


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _per_degree(label: str, check: Callable[[int, int], tuple[bool, str]]):
    """Checks for one n that run ``check(n, k) -> (ok, detail)`` in every degree k."""
    return lambda n, seed: [(f"n={n} k={k} {label}", *check(n, k)) for k in range(n // 2 + 1)]


def _counting(n: int, seed: int) -> Rows:
    count = len(enumerate_noncrossing(n))
    out = [(f"n={n} noncrossing", count == catalan(n // 2), f"count={count} catalan={catalan(n // 2)}")]
    total = 0
    for k in range(n // 2 + 1):
        standard = len(enumerate_standard(n, k))
        expected = comb(n, k) - (comb(n, k - 1) if k else 0)
        total += standard
        out.append((f"n={n} k={k} standard", standard == expected == syt_count(n, k),
                    f"count={standard} expected={expected}"))
    out.append((f"n={n} total", total == comb(n, n // 2), f"sum={total} C(n,n/2)={comb(n, n // 2)}"))
    return out


def _bijection(n: int, k: int) -> tuple[bool, str]:
    tableaux = (TwoRowTableau(n, bottom) for bottom in standard_bottom_sets(n, k))
    ok = all(is_standard(m := theta(t)) and m.k == k and phi(m) == t for t in tableaux)
    ok = all(theta(phi(m)) == m for m in enumerate_standard(n, k)) and ok
    return ok, f"{syt_count(n, k)} tableaux"


def _rewriting(n: int, k: int) -> tuple[bool, str]:
    table = quotient_project_oracle(n, k)
    generators = degree_generators(n, k)
    mismatches = sum(reduce_to_standard(FormalSum.single(g)) != table[g] for g in generators)
    return mismatches == 0, (f"{len(generators)} generators, dim {syt_count(n, k)}"
                             + (f", {mismatches} mismatches" if mismatches else ""))


def _coxeter(n: int, k: int) -> tuple[bool, str]:
    report = verify_coxeter(n, k)
    return True, f"{report.involutions + report.braid + report.commuting} relations hold"


def _irreducibility(n: int, k: int) -> tuple[bool, str]:
    norm = irreducibility_check(n, k)
    return norm == 1, f"<chi,chi>={norm}"


def _multiplicity(n: int, seed: int) -> Rows:
    decomposition = graded_decomposition(n)
    expected = [(k, tuple(p for p in (n - k, k) if p)) for k in range(n // 2 + 1)]
    shapes = {shape for _, shape in expected}
    pattern_ok = all(
        kostka_two_row(mu, (n // 2, n // 2)) == (1 if mu in shapes else 0)
        for mu in partitions_of(n)
    )
    return [(f"n={n} graded-decomposition", decomposition == expected, f"{len(decomposition)} degrees"),
            (f"n={n} kostka-pattern", pattern_ok, f"{len(shapes)} constituents")]


def _dimension(n: int, seed: int) -> Rows:
    dim = springer_dimension((n // 2, n // 2))
    top_rank = syt_count(n, n // 2)
    return [(f"n={n} fiber-dimension", dim == n // 2 and top_rank == catalan(n // 2),
             f"dim={dim} top-degree rank={top_rank}")]


def _linearity(n: int, seed: int) -> Rows:
    rng = random.Random(f"{seed}:{n}")
    ok = True
    for k in range(n // 2 + 1):
        pool = degree_generators(n, k)
        for _ in range(3):
            g1, g2 = rng.choice(pool), rng.choice(pool)
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            combined = reduce_to_standard(a * FormalSum.single(g1) + b * FormalSum.single(g2))
            split = (
                a * reduce_to_standard(FormalSum.single(g1))
                + b * reduce_to_standard(FormalSum.single(g2))
            )
            if combined != split:
                ok = False
    return [(f"n={n} random-combinations", ok, f"seed={seed}")]


def _up_to_max_n(max_n: int) -> int:
    return max_n


def _through_bound(max_n: int) -> int:
    """The fiber-dimension formula is always checked for every n <= MAX_VERIFY_N."""
    return max(max_n, MAX_VERIFY_N)


# suite -> (checks for one n, largest n covered given --max-n), in report order.
# Check functions are looked up through module globals when a task runs, so
# patching ``verify.verify_coxeter`` (or wrapping it) takes effect.
SUITES: dict[str, tuple[Callable[[int, int], Rows], Callable[[int], int]]] = {
    "counting": (_counting, _up_to_max_n),
    "bijection": (_per_degree("round-trip", _bijection), _up_to_max_n),
    "rewriting": (_per_degree("oracle", _rewriting), _up_to_max_n),
    "echelon": (_per_degree("row-echelon", lambda n, k: (
        echelon_certificate(n, k), f"{syt_count(n, k)} pivots")), _up_to_max_n),
    "coxeter": (_per_degree("relations", _coxeter), _up_to_max_n),
    "consistency": (_per_degree("chart-vs-diagram", lambda n, k: (
        chart_diagram_consistency(n, k), f"{syt_count(n, k) * (n - 1)} identities")), _up_to_max_n),
    "irreducibility": (_per_degree("character-norm", _irreducibility), _up_to_max_n),
    "module-equality": (_per_degree("spans", lambda n, k: (
        verify_module_equality(n, k), f"rank {syt_count(n, k)}")), _up_to_max_n),
    "multiplicity": (_multiplicity, _up_to_max_n),
    "dimension": (_dimension, _through_bound),
    "linearity": (_linearity, _up_to_max_n),
}

SUITE_NAMES = tuple(SUITES)


@dataclass(frozen=True)
class Task:
    suite: str
    label: str
    run: Callable[[], list[CheckResult]]


def _task(suite: str, n: int, seed: int) -> Task:
    def run() -> list[CheckResult]:
        return [CheckResult(suite, name, ok, detail) for name, ok, detail in SUITES[suite][0](n, seed)]
    return Task(suite, f"n={n}", run)


def build_tasks(suites: Iterable[str], max_n: int, seed: int = 0) -> list[Task]:
    wanted = list(suites)
    for name in wanted:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return [_task(suite, n, seed)
            for suite, (_, top) in SUITES.items() if suite in wanted
            for n in range(2, top(max_n) + 1, 2)]


def _run_task(task: Task) -> list[CheckResult]:
    try:
        return task.run()
    except VerificationError as exc:
        return [CheckResult(task.suite, task.label, False, f"{exc} witness={exc.witness}")]


def run_suites(suites: Iterable[str], max_n: int, seed: int = 0) -> list[CheckResult]:
    """Run the requested suites in table order, one n at a time."""
    return [result for task in build_tasks(suites, max_n, seed) for result in _run_task(task)]
