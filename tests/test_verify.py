import pytest

from springerrep.errors import VerificationError
from springerrep.verify import SUITE_NAMES, build_tasks, run_suites


def test_all_suites_pass_at_small_n():
    results = run_suites(SUITE_NAMES, max_n=4)
    assert results and all(r.ok for r in results)


def test_suite_order_and_n_ranges():
    for max_n in (8, 12):
        covered = {}
        for task in build_tasks(reversed(SUITE_NAMES), max_n=max_n):
            covered.setdefault(task.suite, []).append(task.label)
        assert list(covered) == [
            "counting", "bijection", "rewriting", "echelon", "coxeter", "consistency",
            "irreducibility", "module-equality", "multiplicity", "dimension", "linearity",
        ]
        for suite, labels in covered.items():
            up_to = 12 if suite == "dimension" else max_n
            assert labels == [f"n={n}" for n in range(2, up_to + 1, 2)], suite


def test_seed_changes_only_the_sampling():
    first = run_suites(("linearity",), max_n=4, seed=1)
    second = run_suites(("linearity",), max_n=4, seed=2)
    assert all(r.ok for r in first + second)
    assert [r.name for r in first] == [r.name for r in second]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        build_tasks(("bogus",), max_n=4)


def test_certificates_build_no_matching_object(monkeypatch):
    # nor a tabloid or tableau: only counting, which counts the object enumerators, builds any
    import springerrep.matchings as matchings
    import springerrep.snaction as snaction

    snaction._tables.cache_clear()
    matchings.standard_codes.cache_clear()
    built = []
    for cls in (matchings.NoncrossingMatching, matchings.Tabloid):  # the bases of every object class
        def counted(self, honest=cls.__post_init__):
            built.append(self)
            honest(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    suites = [s for s in SUITE_NAMES if s != "counting"]
    results = run_suites(suites, max_n=8)
    assert results and all(r.ok for r in results)
    assert built == []


def test_no_matching_object_outlives_its_call():
    # the enumerators and the action tables cache codes, never objects
    import gc

    import springerrep.matchings as matchings
    from springerrep.formal import FormalSum
    from springerrep.snaction import act_word

    def alive():
        gc.collect()
        return sum(isinstance(x, matchings.NoncrossingMatching) for x in gc.get_objects())

    before = alive()
    assert all(r.ok for r in run_suites(["counting", "bijection"], 8))
    m = matchings.code_matching(*matchings.standard_codes(8, 2)[0])
    image = act_word((1, 2, 3), FormalSum({m: 1}))
    assert image and alive() >= before + len(image)
    del m, image
    assert alive() <= before


def test_each_degree_is_enumerated_once():
    import springerrep.matchings as matchings
    import springerrep.snaction as snaction

    for cached in (matchings.standard_codes, snaction._tables):
        cached.cache_clear()
    assert all(r.ok for r in run_suites(SUITE_NAMES, max_n=8))
    info = matchings.standard_codes.cache_info()
    assert info.misses == info.currsize == sum(n // 2 + 1 for n in range(2, 9, 2))
    assert info.hits  # the suites share each degree's codes


def test_counting_reads_the_action_basis(monkeypatch):
    # the counting rows count the very codes the algebraic suites run on, so
    # a basis enumerator that loses one code fails them
    import springerrep.matchings as matchings
    import springerrep.snaction as snaction

    honest = matchings.standard_codes
    caches = (matchings.standard_codes, snaction._tables)

    def clear():
        for cached in caches:
            cached.cache_clear()

    clear()
    monkeypatch.setattr(matchings, "standard_codes", lambda n, k: honest(n, k)[:-1])
    try:
        results = run_suites(("counting",), max_n=6)
    finally:
        clear()
    failed = {r.name for r in results if not r.ok}
    assert {f"n={n} k={k} standard" for n in (2, 4, 6) for k in range(n // 2 + 1)} <= failed
    assert "n=6 total" in failed


def test_failures_are_reported_not_raised(monkeypatch):
    import springerrep.verify as v

    def broken(n, k):
        raise VerificationError("forced failure", {"n": n, "k": k})

    monkeypatch.setattr(v, "verify_coxeter", broken)
    results = run_suites(("coxeter",), max_n=4)
    assert results and not any(r.ok for r in results)
    assert "witness" in results[0].detail


def test_an_empty_expansion_is_reported_not_raised(monkeypatch):
    # a zero rule on every binding: the echelon premise finds no lead in any row
    import springerrep.linediagrams as ld
    import springerrep.rewriting as rw
    import springerrep.specht as sp

    for module in (ld, rw, sp):
        monkeypatch.setattr(module, "code_expansion_masks", lambda opens, dots: {})
    results = run_suites(("rewriting", "echelon"), max_n=4)
    assert len(results) == 10 and not any(r.ok for r in results)


def test_cli_exit_1_on_failed_check(monkeypatch, capsys):
    import springerrep.verify as v
    from springerrep.cli import main

    def broken(n, k):
        raise VerificationError("forced failure", {"n": n, "k": k})

    monkeypatch.setattr(v, "verify_coxeter", broken)
    code = main(["verify", "--suite", "coxeter", "--max-n", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_verify_equality_subcommand(capsys):
    from springerrep.cli import main

    code = main(["verify-equality", "--max-n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "module-equality" in out and "FAIL" not in out
