import json

import pytest

from springerrep.cli import main


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


def test_verify_rejects_huge_max_n(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "14")
    assert code == 2 and "exceeds" in err


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
