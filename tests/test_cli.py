import json
import resource
import subprocess
import sys

import pytest

from springerrep.cli import MAX_SIZE_N, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_csv_pinned(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "4", "--k", "2", "--gen", "1", "--format", "csv")
    assert code == 0
    assert out == "-1,1\n0,1\n"


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--k", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["matchings"][0] == {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": []}
    assert payload["matchings"][1]["arcs"] == [[1, 4], [2, 3]]


def test_enumerate_plain_noncrossing(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert out == "(1,2) (3,4)\n(1,4) (2,3)\n"


def test_bijection_table(capsys):
    code, out, _ = run(capsys, "bijection", "--n", "4", "--k", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "k,matching,tableau",
        '2,"(1,2) (3,4)",1 3|2 4',
        '2,"(1,4) (2,3)",1 2|3 4',
    ]


def test_reduce_round_trip(capsys, tmp_path):
    source = tmp_path / "sum.json"
    source.write_text(
        '{"terms":[{"coef":1,"matching":{"n":4,"arcs":[[1,4],[2,3]],"dotted":[[2,3]]}}]}'
    )
    code, out, _ = run(capsys, "reduce", "--input", str(source), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [t["coef"] for t in payload["terms"]] == [1, -1, 1]


def test_expand_json(capsys, tmp_path):
    source = tmp_path / "m.json"
    source.write_text('{"n":4,"arcs":[[1,2],[3,4]],"dotted":[[3,4]]}')
    code, out, _ = run(capsys, "expand", "--input", str(source), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 4,
        "terms": [{"coef": -1, "undot": [1]}, {"coef": 1, "undot": [2]}],
    }


def test_act_gen_and_perm(capsys, tmp_path):
    source = tmp_path / "m.json"
    source.write_text('{"n":4,"arcs":[[1,4],[2,3]],"dotted":[]}')
    code, out, _ = run(capsys, "act", "--input", str(source), "--gen", "1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 2

    code, out, _ = run(capsys, "act", "--input", str(source), "--perm", "(1 2 3)",
                       "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"coef": -1, "matching": {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": []}},
        {"coef": -1, "matching": {"n": 4, "arcs": [[1, 4], [2, 3]], "dotted": []}},
    ]


def test_act_reduces_nonstandard_input_first(capsys, tmp_path):
    source = tmp_path / "m.json"
    source.write_text('{"n":4,"arcs":[[1,4],[2,3]],"dotted":[[2,3]]}')
    code, out, _ = run(capsys, "act", "--input", str(source), "--gen", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"coef": -2, "matching": {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[3, 4]]}},
        {"coef": -1, "matching": {"n": 4, "arcs": [[1, 4], [2, 3]], "dotted": [[1, 4]]}},
        {"coef": 1, "matching": {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[1, 2]]}},
    ]


def test_act_requires_exactly_one_operator(capsys, tmp_path):
    source = tmp_path / "m.json"
    source.write_text('{"n":2,"arcs":[[1,2]],"dotted":[]}')
    code, _, err = run(capsys, "act", "--input", str(source))
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "act", "--input", str(source), "--gen", "1", "--perm", "(1 2)")
    assert code == 2


def test_act_validates_n_and_k(capsys, tmp_path):
    source = tmp_path / "m.json"
    source.write_text('{"n":4,"arcs":[[1,4],[2,3]],"dotted":[]}')
    code, _, err = run(capsys, "act", "--input", str(source), "--gen", "1", "--n", "6")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "act", "--input", str(source), "--gen", "1", "--k", "1")
    assert code == 2 and "--k" in err


def test_character_value(capsys):
    code, out, _ = run(capsys, "character", "--n", "4", "--k", "2", "--cycle-type", "3,1")
    assert code == 0 and out == "-1\n"


def test_specht_json(capsys):
    code, out, _ = run(capsys, "specht", "--n", "4", "--k", "2", "--emit", "both",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["eT"]) == 2 and len(payload["eM"]) == 2
    assert payload["eM"][1]["terms"][0] == {"coef": 1, "bottom": [1, 2]}


def test_top_basis(capsys):
    code, out, _ = run(capsys, "top-basis", "--n", "4", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["top"]) == 2


def test_malformed_json_reports_location(capsys, tmp_path):
    source = tmp_path / "bad.json"
    source.write_text('{"n":4, "arcs": [[1,2],')
    code, _, err = run(capsys, "reduce", "--input", str(source))
    assert code == 2
    assert "line 1" in err and "column" in err


def test_invalid_matching_exits_2(capsys, tmp_path):
    source = tmp_path / "bad.json"
    source.write_text('{"n":4,"arcs":[[1,3],[2,4]],"dotted":[]}')
    code, _, err = run(capsys, "expand", "--input", str(source))
    assert code == 2 and "cross" in err


@pytest.mark.parametrize("command, payload", (
    ("expand", '{"n":"4","arcs":[[1,2],[3,4]],"dotted":[]}'),
    ("expand", '{"n":4,"arcs":[[true,2],[3,4]],"dotted":[]}'),
    ("reduce", '{"terms":[{"coef":true,"matching":{"n":2,"arcs":[[1,2]]}}]}'),
))
def test_non_integer_json_exits_2(capsys, tmp_path, command, payload):
    source = tmp_path / "bad.json"
    source.write_text(payload)
    code, out, err = run(capsys, command, "--input", str(source))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "integer" in err


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counting,dimension", "--max-n", "4")
    assert code == 0
    assert out.splitlines()[-1].endswith("checks passed")


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense", "--max-n", "4")
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize("given, ran", [
    ("coxeter,coxeter", ["coxeter"]),
    ("irreducibility,coxeter", ["coxeter", "irreducibility"]),
])
def test_verify_json_lists_the_suites_that_ran(capsys, given, ran):
    code, out, _ = run(capsys, "verify", "--suite", given, "--max-n", "2", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["suites"] == ran == list(dict.fromkeys(c["suite"] for c in report["checks"]))


def _cap_memory():
    limit = 1 << 30  # a missing bound must fail fast, not exhaust the machine
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "40"],
    ["bijection", "--n", "40"],
    ["specht", "--n", "40", "--k", "20"],
    ["top-basis", "--n", "40"],
    ["matrix", "--n", "40", "--k", "20", "--gen", "1"],
    ["character", "--n", "40", "--k", "20", "--cycle-type", "40"],
])
def test_sizes_above_the_bound_exit_2(argv):
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=_cap_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"40 exceeds the supported bound {MAX_SIZE_N}" in proc.stderr


def test_act_input_above_the_bound_exits_2():
    arcs = [[i, i + 1] for i in range(1, 20, 2)]
    matching = json.dumps({"n": 20, "arcs": arcs, "dotted": arcs[-2:]})
    argv = ["act", "--input", "-", "--gen", "1"]
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", *argv], input=matching,
                          capture_output=True, text=True, timeout=20, preexec_fn=_cap_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"input on 20 vertices exceeds the supported bound {MAX_SIZE_N}" in proc.stderr


def test_expand_input_above_the_bound_exits_2():
    # a standard matching with 22 undotted arcs would print 2^22 terms
    arcs = [[i, i + 1] for i in range(1, 44, 2)]
    argv = ["expand", "--input", "-"]
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", *argv],
                          input=json.dumps({"n": 44, "arcs": arcs}), capture_output=True,
                          text=True, timeout=20, preexec_fn=_cap_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"input on 44 vertices exceeds the supported bound {MAX_SIZE_N}" in proc.stderr


def test_reduce_of_a_large_standard_matching_builds_no_basis():
    # n = 40, k = 10: the degree has about 5.7e8 standard matchings, the answer is the input
    arcs = [[i, 21 - i] for i in range(1, 11)] + [[i, i + 1] for i in range(21, 40, 2)]
    payload = {"terms": [{"coef": 3, "matching": {"n": 40, "arcs": arcs, "dotted": arcs[10:]}}]}
    argv = ["reduce", "--input", "-", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", *argv],
                          input=json.dumps(payload), capture_output=True, text=True,
                          timeout=10, preexec_fn=_cap_memory)
    assert proc.returncode == 0 and proc.stderr == ""
    expected = {"coef": 3, "matching": {"n": 40, "arcs": sorted(arcs), "dotted": arcs[10:]}}
    assert json.loads(proc.stdout) == {"terms": [expected]}


def test_reduce_closes_its_input_file(tmp_path):
    source = tmp_path / "sum.json"
    source.write_text('{"terms":[{"coef":1,"matching":{"n":2,"arcs":[[1,2]]}}]}')
    argv = ["-X", "dev", "-W", "error::ResourceWarning", "-m", "springerrep.cli",
            "reduce", "--input", str(source)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0 and proc.stderr == ""


M = {"n": 4, "arcs": [[1, 2], [3, 4]]}
N = {"n": 4, "arcs": [[1, 4], [2, 3]], "dotted": [[2, 3]]}


def test_reduce_merges_terms_before_the_degree_check(capsys, tmp_path):
    # M (degree 2) cancels and the coef-0 term on 6 vertices drops out, so only N's
    # degree is left
    source = tmp_path / "sum.json"
    source.write_text(json.dumps({"terms": [
        {"coef": 1, "matching": M}, {"coef": -1, "matching": {**M, "dotted": []}},
        {"coef": 2, "matching": N},
        {"coef": 0, "matching": {"n": 6, "arcs": [[1, 2], [3, 4], [5, 6]], "dotted": [[1, 2]]}},
    ]}))
    code, out, _ = run(capsys, "reduce", "--input", str(source), "--format", "json")
    assert code == 0
    assert out == (
        '{"terms":[{"coef":2,"matching":{"n":4,"arcs":[[1,2],[3,4]],"dotted":[[3,4]]}},'
        '{"coef":-2,"matching":{"n":4,"arcs":[[1,4],[2,3]],"dotted":[[1,4]]}},'
        '{"coef":2,"matching":{"n":4,"arcs":[[1,2],[3,4]],"dotted":[[1,2]]}}]}\n'
    )


def test_reduce_refuses_two_surviving_degrees(capsys, tmp_path):
    source = tmp_path / "sum.json"
    source.write_text(json.dumps({"terms": [
        {"coef": 1, "matching": M}, {"coef": 1, "matching": {**M, "dotted": [[2, 1]]}},
    ]}))
    code, out, err = run(capsys, "reduce", "--input", str(source))
    assert code == 2 and out == ""
    assert err == "error: inhomogeneous sum: degrees [(4, 1), (4, 2)]\n"


def test_size_bound_admits_its_own_value(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", str(MAX_SIZE_N), "--k", "0", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 1


def test_verify_rejects_huge_max_n(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "14")
    assert code == 2 and "exceeds" in err


def test_verify_runs_every_suite_to_the_bound_without_warning(capsys):
    code, out, err = run(capsys, "verify", "--suite", "linearity", "--max-n", "12",
                         "--format", "json")
    assert code == 0 and err == ""
    assert [c["name"] for c in json.loads(out)["checks"]][-1] == "n=12 random-combinations"


@pytest.mark.parametrize("max_n", ("0", "-2"))
def test_verify_rejects_max_n_below_two(capsys, max_n):
    code, out, err = run(capsys, "verify", "--max-n", max_n)
    assert code == 2 and out == ""
    assert f"--max-n {max_n}" in err and "below" in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "matrix", "--n", "4", "--k", "2", "--gen", "2",
                       "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "1,0\n1,-1\n"


def test_identical_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "counting,bijection,echelon", "--max-n", "6",
                      "--format", "json")
    _, second, _ = run(capsys, "verify", "--suite", "counting,bijection,echelon", "--max-n", "6",
                       "--format", "json")
    assert first == second


def test_argparse_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["matrix", "--n", "4"])
    assert info.value.code == 2
