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


def test_failures_are_reported_not_raised(monkeypatch):
    import springerrep.verify as v

    def broken(n, k):
        raise VerificationError("forced failure", {"n": n, "k": k})

    monkeypatch.setattr(v, "verify_coxeter", broken)
    results = run_suites(("coxeter",), max_n=4)
    assert results and not any(r.ok for r in results)
    assert "witness" in results[0].detail


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
