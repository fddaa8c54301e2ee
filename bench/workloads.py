"""The benchmark's workloads: CLI arguments, seeded inputs and output checks.

Every workload is one ``springerrep`` CLI invocation.  Each verify check
counts as one operation and each ``reduce`` run as one; an operation fails
when the process exits nonzero or its output differs from the expected
bytes.

* ``certify-8`` is the default certificate, ``verify --suite all --max-n 8``.
  Its report must equal ``reference/certify-8.json``, recorded at the seed
  commit with ``--test-seed 0``; the seed appears in the report only as the
  ``seed=<n>`` detail of the linearity checks, which is substituted.
* ``action-12`` runs the suites built on the chart action up to n = 12 and
  must equal ``reference/action-12.json``.  It takes no seeded input.
* ``rewrite-14`` reduces one formal sum over all 15015 dotted matchings with
  n = 14 and four undotted arcs.  The seed sets the term order and the
  coefficients (from +-1, +-2, +-3), never which matchings appear.  The
  expected output is computed here, independently of the package, by the
  line-diagram oracle in :func:`normal_form`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REWRITE_N, REWRITE_K = 14, 4


@dataclass(frozen=True)
class Plan:
    """One workload at one seed: the CLI arguments and the output check.

    ``check(exit_code, stdout_bytes)`` returns (attempted, failed, reason).
    """

    argv: list[str]
    check: Callable[[int, bytes], tuple[int, int, str]]


# ------------------------------------------------------------------ verify

def _verify_check(expected: bytes):
    reference = json.loads(expected)
    checks = reference["checks"]
    if reference["passed"] != reference["total"] or reference["total"] != len(checks):
        raise ValueError("reference report does not pass every check")

    def check(code: int, out: bytes) -> tuple[int, int, str]:
        if code == 0 and out == expected:
            return len(checks), 0, ""
        try:
            got = json.loads(out)["checks"]
        except (ValueError, KeyError, TypeError):
            got = []
        if code != 0:
            failed = len(checks)
        else:
            failed = sum(1 for i, c in enumerate(checks) if i >= len(got) or got[i] != c)
        failed = max(failed, 1)
        return len(checks), failed, f"exit {code}; report differs from reference ({failed} checks)"

    return check


def certify_plan(seed: int, _build_dir: Path) -> Plan:
    template = (REFERENCE_DIR / "certify-8.json").read_bytes()
    marker = b'"detail":"seed=0"'
    if template.count(marker) != 4:
        raise ValueError("certify-8 reference lacks the four linearity details")
    expected = template.replace(marker, f'"detail":"seed={seed}"'.encode())
    argv = ["verify", "--suite", "all", "--max-n", "8", "--format", "json",
            "--test-seed", str(seed)]
    return Plan(argv, _verify_check(expected))


def action_plan(_seed: int, _build_dir: Path) -> Plan:
    expected = (REFERENCE_DIR / "action-12.json").read_bytes()
    argv = ["verify", "--suite", "coxeter,consistency,irreducibility", "--max-n", "12",
            "--format", "json"]
    return Plan(argv, _verify_check(expected))


# ----------------------------------------------------------------- rewrite

def noncrossing(lo: int, hi: int):
    """Noncrossing perfect matchings of lo..hi, as tuples of (left, right) arcs."""
    if lo > hi:
        yield ()
        return
    for mid in range(lo + 1, hi + 1, 2):
        for inside in noncrossing(lo + 1, mid - 1):
            for outside in noncrossing(mid + 1, hi):
                yield ((lo, mid),) + inside + outside


def degree_matchings(n: int, k: int):
    """(arcs, dotted) for every dotted matching on n vertices with k undotted arcs."""
    for arcs in noncrossing(1, n):
        for dotted in itertools.combinations(arcs, n // 2 - k):
            yield arcs, dotted


def is_standard(arcs, dotted) -> bool:
    """No dotted arc lies below another arc."""
    return not any(x < i and j < y for i, j in dotted for x, y in arcs)


def rewrite_input(seed: int) -> list[tuple[int, tuple, tuple]]:
    """(coef, arcs, dotted) for every generator, in a seeded order."""
    rng = random.Random(f"rewrite-14:{seed}")
    terms = [(rng.choice((-3, -2, -1, 1, 2, 3)), arcs, dotted)
             for arcs, dotted in degree_matchings(REWRITE_N, REWRITE_K)]
    rng.shuffle(terms)
    return terms


def line_image(arcs, dotted) -> dict[tuple[int, ...], int]:
    """Image of a dotted matching in the homology of (S^2)^n.

    One term per choice of an endpoint on every undotted arc, keyed by the
    chosen endpoints sorted largest first, with sign (-1)^(sum of them).
    Both skein relations hold in this image, so it is constant on classes,
    and its largest key on a standard matching is the set of right
    endpoints of the undotted arcs, which is distinct for distinct
    standard matchings: the image is injective on the standard basis.
    """
    undotted = [a for a in arcs if a not in dotted]
    return {tuple(sorted(choice, reverse=True)): -1 if sum(choice) % 2 else 1
            for choice in itertools.product(*undotted)}


def normal_form(terms, n: int, k: int) -> list[tuple[int, tuple, tuple]]:
    """The standard-basis expansion of a sum of dotted matchings.

    Peels the largest key off the line image with the standard matching
    whose right endpoints it is, until nothing is left; the result is in
    the package's canonical order (increasing undot set, largest element
    compared first).
    """
    standard = {}
    for arcs, dotted in degree_matchings(n, k):
        if is_standard(arcs, dotted):
            rights = tuple(sorted((j for i, j in arcs if (i, j) not in dotted), reverse=True))
            if rights in standard:
                raise ValueError(f"two standard matchings share undot set {rights}")
            standard[rights] = (arcs, dotted)
    residual: dict[tuple[int, ...], int] = {}
    for coef, arcs, dotted in terms:
        for key, sign in line_image(arcs, dotted).items():
            residual[key] = residual.get(key, 0) + coef * sign
    residual = {key: c for key, c in residual.items() if c}
    out = []
    while residual:
        top = max(residual)
        arcs, dotted = standard[top]
        image = line_image(arcs, dotted)
        coef = residual[top] * image[top]
        for key, sign in image.items():
            value = residual.get(key, 0) - coef * sign
            if value:
                residual[key] = value
            else:
                residual.pop(key, None)
        out.append((top, coef, arcs, dotted))
    out.sort()
    return [(coef, arcs, dotted) for _, coef, arcs, dotted in out]


def sum_json(terms, n: int) -> str:
    """A formal sum in the package's wire format."""
    return json.dumps({"terms": [
        {"coef": coef, "matching": {"n": n, "arcs": [list(a) for a in arcs],
                                    "dotted": [list(a) for a in sorted(dotted)]}}
        for coef, arcs, dotted in terms
    ]}, separators=(",", ":"))


def rewrite_plan(seed: int, build_dir: Path) -> Plan:
    terms = rewrite_input(seed)
    path = build_dir / "rewrite-14-input.json"
    path.write_text(sum_json(terms, REWRITE_N) + "\n", encoding="utf-8")
    expected = (sum_json(normal_form(terms, REWRITE_N, REWRITE_K), REWRITE_N) + "\n").encode()

    def check(code: int, out: bytes) -> tuple[int, int, str]:
        if code == 0 and out == expected:
            return 1, 0, ""
        return 1, 1, f"exit {code}; reduced sum differs from the line-diagram oracle"

    return Plan(["reduce", "--input", str(path), "--format", "json"], check)


WORKLOADS = {"certify-8": certify_plan, "action-12": action_plan, "rewrite-14": rewrite_plan}
