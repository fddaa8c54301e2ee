"""Named verification suites behind the ``verify`` CLI command.

``SUITES`` is the one table of suites, in report order: each maps to the
checks it runs for one even ``n`` and to the smallest top ``n`` it always
reaches, so a suite runs to the larger of that and ``--max-n`` (which the
CLI bounds by ``MAX_VERIFY_N``).  Tasks run serially in table order, so
reports are byte-identical from run to run.  Failures are reported, never
raised, and carry the witness of whichever identity broke.  A run ends by dropping
the per-degree tables and their verdicts, also any that a direct call cached before it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, NamedTuple

from . import MAX_VERIFY_N, SUITE_NAMES  # the largest n, and the keys of SUITES in order
from .codes import catalan, kostka_two_row, partitions_of, springer_dimension, syt_count, theta_round_trip
from .errors import VerificationError
from .linediagrams import antipodal_image, echelon_certificate
from .matchings import enumerate_noncrossing, enumerate_standard
from .rewriting import _certify, _generator_codes, _reduce_codes
from .snaction import _tables, chart_diagram_consistency, irreducibility_check, verify_coxeter
from .specht import graded_decomposition, verify_module_equality

Rows = list[tuple[str, bool, str]]  # (check name, ok, detail) for one n


class CheckResult(NamedTuple):
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _per_degree(label: str, check: Callable[[int, int], tuple[bool, str]]):
    """Checks for one n that run ``check(n, k) -> (ok, detail)`` in every degree k."""
    return lambda n, seed: [(f"n={n} k={k} {label}", *check(n, k)) for k in range(n // 2 + 1)]


def _counting(n: int, seed: int) -> Rows:
    # the one suite that builds objects: it counts the public object enumerators
    count = len(enumerate_noncrossing(n))
    out = [(f"n={n} noncrossing", count == catalan(n // 2), f"count={count} catalan={catalan(n // 2)}")]
    total = 0
    for k in range(n // 2 + 1):
        standard, expected = len(enumerate_standard(n, k)), syt_count(n, k)
        total += standard
        out.append((f"n={n} k={k} standard", standard == expected, f"count={standard} expected={expected}"))
    out.append((f"n={n} total", total == comb(n, n // 2), f"sum={total} C(n,n/2)={comb(n, n // 2)}"))
    return out


def _rewriting(n: int, k: int) -> tuple[bool, str]:
    # once every step is its site row, a drain of all the generators, each at
    # its own weight, must keep its image under E, injective on the standard span
    generators, mismatches = _certify(n, k)
    if not mismatches:
        terms = [(g, weight) for weight, g in enumerate(generators, 1)]
        drained = _reduce_codes(terms).items()
        mismatches = (not echelon_certificate(n, k)) + (antipodal_image(n, drained) != antipodal_image(n, terms))
    return mismatches == 0, (f"{len(generators)} generators, dim {syt_count(n, k)}"
                             + (f", {mismatches} mismatches" if mismatches else ""))


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
        pool = _generator_codes(n, k)
        for _ in range(3):
            g1, g2 = rng.choice(pool), rng.choice(pool)
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            combined = _reduce_codes([(g1, a), (g2, b)])
            # standard codes pass the kernel unchanged, so it also adds the parts
            split = _reduce_codes([(c, a * x) for c, x in _reduce_codes([(g1, 1)]).items()]
                                  + [(c, b * x) for c, x in _reduce_codes([(g2, 1)]).items()])
            if combined != split:
                ok = False
    return [(f"n={n} random-combinations", ok, f"seed={seed}")]


# suite -> (checks for one n, smallest top n it always reaches), keyed by SUITE_NAMES in
# report order; the fiber-dimension formula is always checked for every n <= MAX_VERIFY_N.
# Check functions are looked up through module globals when a task runs, so
# patching ``verify.verify_coxeter`` (or wrapping it) takes effect.
SUITES: dict[str, tuple[Callable[[int, int], Rows], int]] = dict(zip(SUITE_NAMES, (
    (_counting, 0),
    (_per_degree("round-trip", lambda n, k: (theta_round_trip(n, k), f"{syt_count(n, k)} tableaux")), 0),
    (_per_degree("oracle", _rewriting), 0),
    (_per_degree("row-echelon", lambda n, k: (
        echelon_certificate(n, k), f"{syt_count(n, k)} pivots")), 0),
    (_per_degree("relations", lambda n, k: (
        True, f"{verify_coxeter(n, k)} relations hold")), 0),
    (_per_degree("chart-vs-diagram", lambda n, k: (
        chart_diagram_consistency(n, k), f"{syt_count(n, k) * (n - 1)} identities")), 0),
    (_per_degree("character-norm", _irreducibility), 0),
    (_per_degree("spans", lambda n, k: (
        verify_module_equality(n, k), f"rank {syt_count(n, k)}")), 0),
    (_multiplicity, 0),
    (_dimension, MAX_VERIFY_N),
    (_linearity, 0),
), strict=True))


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
            for suite, (_, floor) in SUITES.items() if suite in wanted
            for n in range(2, max(max_n, floor) + 1, 2)]


def _run_task(task: Task) -> list[CheckResult]:
    try:
        return task.run()
    except VerificationError as exc:
        return [CheckResult(task.suite, task.label, False, f"{exc} witness={exc.witness}")]


def run_suites(suites: Iterable[str], max_n: int, seed: int = 0) -> list[CheckResult]:
    """Run the requested suites in table order, one n at a time; then drop the tables."""
    try:
        return [result for task in build_tasks(suites, max_n, seed) for result in _run_task(task)]
    finally:
        _tables.cache_clear()
