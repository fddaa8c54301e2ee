"""The mutant table: faults planted in one package function, each with the exact
set of suites that kill it.

Each row patches one function, runs every suite to n = 6, and checks that the
suites it names fail and that every other suite passes.  A row whose kill set
is one suite is a fault only that suite sees, the evidence a suite deletion
must answer (ROADMAP items 4 and 16).  The tables and the code caches are
cleared before and after each row, so no mutant's result outlives it.
"""

import inspect
from functools import cached_property

import pytest

from springerrep import codes, rewriting, snaction, specht, verify
from springerrep.verify import SUITE_NAMES, run_suites


def clear_caches():
    for module in (codes, rewriting, snaction):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def recompiled(function, old: str, new: str):
    """``function`` compiled again from its source with the one ``old`` replaced by
    ``new``, reading the globals of its module."""
    source = inspect.getsource(function)
    if source.count(old) != 1:
        pytest.fail(f"{function.__name__} no longer holds exactly one {old!r}")
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


def nonlinear_drain(monkeypatch):
    # the last coefficient of a repeated code wins, so a drain of distinct codes is honest
    honest = verify._reduce_codes
    monkeypatch.setattr(verify, "_reduce_codes", lambda terms: honest(dict(terms).items()))


def youngs_rule_off_by_one(monkeypatch):
    # the subset-sum loop stops one short, so a cycle never starts a subset of its own length
    monkeypatch.setattr(specht, "specht_characters",
                        recompiled(specht.specht_characters, "range(k, part - 1, -1)", "range(k, part, -1)"))


def trace_off_by_one(monkeypatch):
    # every trace the class-tree walk reads is one more than its digit sum
    honest = snaction._Tables.characters.func
    shifted = cached_property(lambda tables: {parts: trace + 1 for parts, trace in honest(tables).items()})
    shifted.__set_name__(snaction._Tables, "characters")
    monkeypatch.setattr(snaction._Tables, "characters", shifted)


# mutant -> (the suites that kill it at n <= 6, text of a failed check: the failure path it reaches)
KILLS = {
    nonlinear_drain: ({"linearity"}, "random-combinations"),
    youngs_rule_off_by_one: ({"multiplicity"}, "degree does not pair to 1 with its Specht module"),
    trace_off_by_one: ({"irreducibility", "multiplicity"}, "degree is not irreducible"),
}


@pytest.fixture
def clean_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("mutant", KILLS, ids=lambda mutant: mutant.__name__)
def test_each_mutant_is_killed_by_exactly_its_suites(monkeypatch, clean_caches, mutant):
    mutant(monkeypatch)
    results = run_suites(SUITE_NAMES, 6)
    suites, path = KILLS[mutant]
    failed = [r for r in results if not r.ok]
    assert {r.suite for r in results} == set(SUITE_NAMES)
    assert {r.suite for r in failed} == suites
    assert any(path in f"{r.name} {r.detail}" for r in failed)
