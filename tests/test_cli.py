import csv
import gc
import io
import json
import random
import subprocess
import sys

import pytest

import springerrep.cli as cli
import springerrep.matchings as matchings
import springerrep.rewriting as rw
from springerrep import DottedMatching, reduce_to_standard
from springerrep.snaction import act_word
from springerrep.cli import MAX_SIZE_N, main
from springerrep.errors import VerificationError

from bruteforce import cap_memory, matching_from_obj, matching_sum_from_obj


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


@pytest.mark.parametrize("k", (None, "1"))
def test_bijection_exits_1_when_theta_is_broken(capsys, monkeypatch, k):
    # the command is guarded by the bijection suite's own check; a theta that
    # sends every tableau to the first standard matching of its degree fails it
    # at k = 1, and the basis it enumerates is rebuilt through the broken theta
    import springerrep
    import springerrep.verify as verify

    honest = matchings.theta_code

    def broken(n, bottom):
        return honest(n, matchings.standard_bottom_sets(n, len(bottom))[0])

    for module in (springerrep, matchings, verify, cli):  # every binding, as an edit of its source would
        if hasattr(module, "theta_code"):
            monkeypatch.setattr(module, "theta_code", broken)
    matchings.standard_codes.cache_clear()
    try:
        code, out, err = run(capsys, "bijection", "--n", "4", *(("--k", k) if k else ()))
    finally:
        matchings.standard_codes.cache_clear()
    assert code == 1 and out == ""
    assert err == 'error: bijection round-trip failed\nwitness: {"n":4,"k":1}\n'


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


# One sum over three degrees: n = 4 at k = 1 and k = 2, and n = 6; a pair of n = 8
# terms that cancels, and one n = 6 matching given twice, the second time with its
# pairs and arcs reversed, so that its coefficients merge to 1.
MIXED = {"terms": [
    {"coef": 2, "matching": {"n": 8, "arcs": [[1, 8], [2, 7], [3, 6], [4, 5]], "dotted": [[4, 5]]}},
    {"coef": 1, "matching": {"n": 4, "arcs": [[1, 4], [2, 3]], "dotted": [[2, 3]]}},
    {"coef": -1, "matching": {"n": 6, "arcs": [[1, 2], [3, 6], [4, 5]], "dotted": [[4, 5]]}},
    {"coef": 3, "matching": {"n": 4, "arcs": [[1, 4], [2, 3]]}},
    {"coef": -2, "matching": {"n": 8, "arcs": [[1, 8], [2, 7], [3, 6], [4, 5]], "dotted": [[4, 5]]}},
    {"coef": 2, "matching": {"n": 6, "arcs": [[4, 5], [6, 3], [2, 1]], "dotted": [[5, 4]]}},
]}
MIXED_IMAGE = (
    '{"terms":[{"coef":-2,"matching":{"n":4,"arcs":[[1,2],[3,4]],"dotted":[[3,4]]}},'
    '{"coef":-1,"matching":{"n":4,"arcs":[[1,4],[2,3]],"dotted":[[1,4]]}},'
    '{"coef":1,"matching":{"n":4,"arcs":[[1,2],[3,4]],"dotted":[[1,2]]}},'
    '{"coef":3,"matching":{"n":4,"arcs":[[1,2],[3,4]],"dotted":[]}},'
    '{"coef":3,"matching":{"n":4,"arcs":[[1,4],[2,3]],"dotted":[]}},'
    '{"coef":-1,"matching":{"n":6,"arcs":[[1,2],[3,4],[5,6]],"dotted":[[5,6]]}},'
    '{"coef":1,"matching":{"n":6,"arcs":[[1,2],[3,6],[4,5]],"dotted":[[3,6]]}},'
    '{"coef":-1,"matching":{"n":6,"arcs":[[1,2],[3,4],[5,6]],"dotted":[[3,4]]}}]}\n'
)


@pytest.mark.parametrize("argv, status, out, err", [
    (["--gen", "1"], 0, MIXED_IMAGE, ""),
    (["--gen", "5"], 2, "", "error: generator index 5 out of range for n=4\n"),
    (["--perm", "(1 2)"], 0, MIXED_IMAGE, ""),
    (["--k", "1"], 2, "", "error: input has degrees [1, 2], --k says 1\n"),
    (["--gen", "1", "--format", "plain"], 0,
     "-2 (1,2) (3,4)*  -1 (1,4)* (2,3)  +1 (1,2)* (3,4)  +3 (1,2) (3,4)  +3 (1,4) (2,3)  "
     "-1 (1,2) (3,4) (5,6)*  +1 (1,2) (3,6)* (4,5)  -1 (1,2) (3,4)* (5,6)\n", ""),
])
def test_act_on_a_sum_over_several_degrees_is_pinned(capsys, tmp_path, argv, status, out, err):
    source = tmp_path / "sum.json"
    source.write_text(json.dumps(MIXED))
    assert run(capsys, "act", "--input", str(source), *argv) == (status, out, err)


def test_act_builds_no_matching_outside_the_table_basis(capsys, tmp_path, monkeypatch):
    import springerrep.rewriting as rw
    import springerrep.snaction as snaction

    terms = [{"coef": c + 1, "matching": rw._decode(*code)}
             for c, code in enumerate(rw._generator_codes(8, 2))]
    source = tmp_path / "sum.json"
    source.write_text(json.dumps({"terms": terms}))
    snaction._tables.cache_clear()
    built = []
    honest = matchings.NoncrossingMatching.__post_init__

    def counted(self):
        built.append(self)
        honest(self)

    monkeypatch.setattr(matchings.NoncrossingMatching, "__post_init__", counted)
    code, out, _ = run(capsys, "act", "--input", str(source), "--gen", "3", "--format", "json")
    assert code == 0 and json.loads(out)["terms"]
    # the output is rendered from its codes: no matching object at all
    assert built == []


@pytest.mark.parametrize("fmt", ("json", "csv", "plain"))
@pytest.mark.parametrize("argv", [
    ["bijection", "--n", "8"],
    ["specht", "--n", "8", "--k", "3"],
    ["top-basis", "--n", "8"],
    ["expand", "--input", "standard.json"],
    ["expand", "--input", "nested.json"],  # refused as nonstandard
], ids=["bijection", "specht", "top-basis", "expand", "expand-refused"])
def test_table_commands_build_no_matching_or_tabloid(capsys, tmp_path, monkeypatch, argv, fmt):
    arcs = [[1, 8], [2, 3], [4, 7], [5, 6]]
    (tmp_path / "standard.json").write_text(json.dumps({"n": 8, "arcs": arcs, "dotted": [[1, 8]]}))
    (tmp_path / "nested.json").write_text(json.dumps({"n": 8, "arcs": arcs, "dotted": [[2, 3]]}))
    monkeypatch.chdir(tmp_path)
    built = []
    for cls in (matchings.NoncrossingMatching, matchings.Tabloid):  # the bases of every object class
        def counted(self, honest=cls.__post_init__):
            built.append(self)
            honest(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, bool(out), bool(err)) == ((2, False, True) if "nested.json" in argv else (0, True, False))
    # the commands render codes and subset masks: no object at all
    assert built == []


def plain_matching(n, text):
    """A matching in the plain form ``(1,6)* (2,3) (4,5)`` as a DottedMatching."""
    arcs = [tuple(map(int, arc.strip("()*").split(","))) for arc in text.split()]
    return DottedMatching.make(n, arcs, [arc for arc, word in zip(arcs, text.split()) if word.endswith("*")])


def three_renderings(capsys, n, *argv):
    """The (coef, matching) terms of one command in json, csv and plain."""
    terms = {}
    for fmt in ("json", "csv", "plain"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            terms[fmt] = [(t["coef"], matching_from_obj(t["matching"])) for t in json.loads(out)["terms"]]
        elif fmt == "csv":
            header, *rows = csv.reader(io.StringIO(out))
            assert header == ["coef", "matching"]
            terms[fmt] = [(int(coef), plain_matching(n, text)) for coef, text in rows]
        else:
            terms[fmt] = [(int(part[:part.index(" ")]), plain_matching(n, part[part.index(" ") + 1:]))
                          for part in out.rstrip("\n").split("  ")]
    return terms


def test_reduce_and_act_list_the_same_terms_in_every_format(capsys, tmp_path):
    # one seeded sum over every generator of (10, 3); the rendering is read back per format
    rng = random.Random(10)
    generators = [rw._decode(*code) for code in rw._generator_codes(10, 3)]
    rng.shuffle(generators)
    payload = {"terms": [{"coef": rng.choice((-3, -2, -1, 1, 2, 3)), "matching": m} for m in generators]}
    source = tmp_path / "sum.json"
    source.write_text(json.dumps(payload))
    v = matching_sum_from_obj(json.loads(source.read_text()))
    for argv, expected in ((("reduce",), reduce_to_standard(v)), (("act", "--gen", "3"), act_word((3,), v))):
        terms = three_renderings(capsys, 10, *argv, "--input", str(source))
        assert terms["json"] == terms["csv"] == terms["plain"] == [(c, m) for m, c in expected.sorted_terms()]
        assert len(terms["json"]) > 1


def test_act_rejects_non_integer_permutation_entries(capsys, tmp_path):
    source = tmp_path / "m.json"
    source.write_text('{"n":4,"arcs":[[1,4],[2,3]],"dotted":[]}')
    for perm in ("x", "(1 x)", "2 1 x", "1.5 2"):
        code, out, err = run(capsys, "act", "--input", str(source), "--perm", perm)
        assert code == 2 and out == ""
        assert err == ("error: a permutation is cycle notation such as '(1 2)(3 4 5)' or one-line "
                       f"notation such as '2 1 4 5 3', with positive integer entries; got {perm!r}\n")


@pytest.mark.parametrize("payload", [
    {"terms": [{"coef": 1, "matching": {"n": 2, "arcs": [[1, 2]]}},
               {"coef": -1, "matching": {"n": 2, "arcs": [[2, 1]]}}]},  # cancels to zero
    {"terms": []},
])
def test_act_perm_on_the_zero_sum(capsys, tmp_path, payload):
    # no degree survives the merge, so the permutation is sized by its own text
    source = tmp_path / "zero.json"
    source.write_text(json.dumps(payload))
    assert run(capsys, "act", "--input", str(source), "--perm", "(1 2)") == (0, '{"terms":[]}\n', "")
    assert run(capsys, "act", "--input", str(source), "--gen", "1") == (0, '{"terms":[]}\n', "")
    assert run(capsys, "act", "--input", str(source), "--gen", "3", "--n", "4") == (0, '{"terms":[]}\n', "")
    # --gen is checked against --n, or else only its lower end
    for argv, err in [(["--gen", "0"], "generator index 0 out of range: indices start at 1"),
                      (["--gen", "7", "--n", "4"], "generator index 7 out of range for n=4"),
                      (["--gen", "0", "--n", "4"], "generator index 0 out of range for n=4"),
                      # --n, and --k when given, name a degree, which must exist
                      (["--gen", "1", "--n", "3"], "vertex count must be even and nonnegative, got 3"),
                      (["--perm", "(1 2)", "--n", "3"], "vertex count must be even and nonnegative, got 3"),
                      (["--gen", "1", "--n", "4", "--k", "9"], "k=9 out of range for n=4"),
                      (["--gen", "1", "--n", "-2"], "vertex count must be even and nonnegative, got -2"),
                      # with no --n, a negative --k names no degree at any n
                      (["--gen", "1", "--k", "-1"], "k=-1 out of range: degrees start at 0"),
                      (["--perm", "(1 2)", "--k", "-1"], "k=-1 out of range: degrees start at 0")]:
        assert run(capsys, "act", "--input", str(source), *argv) == (2, "", f"error: {err}\n")
    code, out, err = run(capsys, "act", "--input", str(source), "--perm", "(1 x)")
    assert code == 2 and out == ""
    assert err == ("error: a permutation is cycle notation such as '(1 2)(3 4 5)' or one-line "
                   "notation such as '2 1 4 5 3', with positive integer entries; got '(1 x)'\n")


def test_character_value(capsys):
    code, out, _ = run(capsys, "character", "--n", "4", "--k", "2", "--cycle-type", "3,1")
    assert code == 0 and out == "-1\n"


@pytest.mark.parametrize("n, text", [
    (10, "1_0"),  # int() reads the 10-cycle
    (4, "+2 +2"),
    (4, "\u0662,\u0662"),  # Arabic-Indic digits two
    (4, "4,0"),  # a zero part
])
def test_cycle_type_takes_ascii_positive_parts_only(capsys, n, text):
    code, out, err = run(capsys, "character", "--n", str(n), "--k", "1", "--cycle-type", text)
    assert (code, out) == (2, "")
    assert err == ("error: --cycle-type expects positive integers separated by spaces or commas, "
                   f"got {text!r}\n")


# each integer option, its value X; the rest of the command line is valid
INTEGER_OPTIONS = [
    ["enumerate", "--n", "X"], ["enumerate", "--n", "4", "--k", "X"],
    ["bijection", "--n", "X"], ["bijection", "--n", "4", "--k", "X"],
    ["act", "--input", "-", "--gen", "X"], ["act", "--input", "-", "--perm", "(1 2)", "--n", "X"],
    ["act", "--input", "-", "--gen", "1", "--k", "X"],
    ["matrix", "--n", "X", "--k", "1", "--gen", "1"], ["matrix", "--n", "4", "--k", "X", "--gen", "1"],
    ["matrix", "--n", "4", "--k", "1", "--gen", "X"],
    ["character", "--n", "X", "--k", "1", "--cycle-type", "4"],
    ["character", "--n", "4", "--k", "X", "--cycle-type", "4"],
    ["specht", "--n", "X", "--k", "1"], ["specht", "--n", "4", "--k", "X"],
    ["top-basis", "--n", "X"],
    ["verify", "--max-n", "X"], ["verify", "--test-seed", "X"], ["verify-equality", "--max-n", "X"],
]


@pytest.mark.parametrize("text", ["1_0", "\u0664", "+4"])  # int() reads each: 10, 4 and 4
@pytest.mark.parametrize("argv", INTEGER_OPTIONS,
                         ids=[f"{a[0]}{a[a.index('X') - 1]}" for a in INTEGER_OPTIONS])
def test_integer_options_take_ascii_digits_only(capsys, argv, text):
    option = argv[argv.index("X") - 1]
    with pytest.raises(SystemExit) as info:
        main([text if a == "X" else a for a in argv])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert f"argument {option}: expected an integer in ASCII digits, got {text!r}" in captured.err


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


@pytest.mark.parametrize("n", ("-2", "-4"))
@pytest.mark.parametrize("fmt", ("json", "csv", "plain"))
def test_bijection_rejects_negative_n_without_k(capsys, n, fmt):
    # with no --k the degree range is empty, so nothing downstream sees n
    code, out, err = run(capsys, "bijection", "--n", n, "--format", fmt)
    assert code == 2 and out == ""
    assert err == f"error: vertex count must be even and nonnegative, got {n}\n"


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
                          text=True, timeout=20, preexec_fn=cap_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"40 exceeds the supported bound {MAX_SIZE_N}" in proc.stderr


@pytest.mark.parametrize("argv, named", [
    (["--perm", "(1 99999999999)"], 99999999999),
    (["--n", "30000", "--perm", "(1 30000)"], 30000),
])
def test_act_on_the_zero_sum_bounds_every_vertex_count(argv, named):
    # no degree survives the merge, so only the bound itself can stop a permutation of that size
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", "act", "--input", "-", *argv],
                          input='{"terms":[]}', capture_output=True, text=True, timeout=20,
                          preexec_fn=cap_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"{named} exceeds the supported bound {MAX_SIZE_N}" in proc.stderr


def test_act_input_above_the_bound_exits_2():
    arcs = [[i, i + 1] for i in range(1, 20, 2)]
    matching = json.dumps({"n": 20, "arcs": arcs, "dotted": arcs[-2:]})
    argv = ["act", "--input", "-", "--gen", "1"]
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", *argv], input=matching,
                          capture_output=True, text=True, timeout=20, preexec_fn=cap_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"input on 20 vertices exceeds the supported bound {MAX_SIZE_N}" in proc.stderr


def test_expand_input_above_the_bound_exits_2():
    # a standard matching with 22 undotted arcs would print 2^22 terms
    arcs = [[i, i + 1] for i in range(1, 44, 2)]
    argv = ["expand", "--input", "-"]
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", *argv],
                          input=json.dumps({"n": 44, "arcs": arcs}), capture_output=True,
                          text=True, timeout=20, preexec_fn=cap_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"input on 44 vertices exceeds the supported bound {MAX_SIZE_N}" in proc.stderr


@pytest.mark.parametrize("command", (["reduce"], ["expand"], ["act", "--gen", "1"]))
def test_deeply_nested_json_exits_2_without_a_traceback(tmp_path, command):
    source = tmp_path / "deep.json"
    source.write_text("[" * 200000 + "]" * 200000)
    argv = [*command, "--input", str(source)]
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=cap_memory)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: JSON input is nested too deeply\n"


def test_reduce_of_a_large_standard_matching_builds_no_basis():
    # n = 40, k = 10: the degree has about 5.7e8 standard matchings, the answer is the input
    arcs = [[i, 21 - i] for i in range(1, 11)] + [[i, i + 1] for i in range(21, 40, 2)]
    payload = {"terms": [{"coef": 3, "matching": {"n": 40, "arcs": arcs, "dotted": arcs[10:]}}]}
    argv = ["reduce", "--input", "-", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", *argv],
                          input=json.dumps(payload), capture_output=True, text=True,
                          timeout=10, preexec_fn=cap_memory)
    assert proc.returncode == 0 and proc.stderr == ""
    expected = {"coef": 3, "matching": {"n": 40, "arcs": sorted(arcs), "dotted": arcs[10:]}}
    assert json.loads(proc.stdout) == {"terms": [expected]}


def test_reduce_refuses_nonstandard_input_above_the_bound():
    # nested arcs (i, 29 - i), those opening at an even vertex dotted: rewriting it would
    # write about 40 MB
    arcs = [[i, 29 - i] for i in range(1, 15)]
    payload = {"terms": [{"coef": 1, "matching": {"n": 28, "arcs": arcs, "dotted": arcs[1::2]}}]}
    proc = subprocess.run([sys.executable, "-m", "springerrep.cli", "reduce", "--input", "-"],
                          input=json.dumps(payload), capture_output=True, text=True, timeout=20,
                          preexec_fn=cap_memory)
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr == f"error: nonstandard input on 28 vertices exceeds the supported bound {MAX_SIZE_N}\n"


def test_reduce_closes_its_input_file(tmp_path):
    source = tmp_path / "sum.json"
    source.write_text('{"terms":[{"coef":1,"matching":{"n":2,"arcs":[[1,2]]}}]}')
    argv = ["-X", "dev", "-W", "error::ResourceWarning", "-m", "springerrep.cli",
            "reduce", "--input", str(source)]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0 and proc.stderr == ""


def test_cli_import_leaves_fractions_out():
    # fractions pulls in decimal, a start-up cost every command would pay;
    # the child reports through its exit code, which -O cannot strip
    code = "import sys, springerrep.cli; sys.exit(sorted({'fractions', 'decimal'} & set(sys.modules)) or 0)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("command", ("verify", "verify-equality"))
@pytest.mark.parametrize("max_n", ("3", "5", "11"))
def test_verify_rejects_odd_max_n(capsys, command, max_n):
    # the suites run on even n only, so an odd bound would report n checks that never ran
    from springerrep.cli import MAX_N_HELP

    code, out, err = run(capsys, command, "--max-n", max_n)
    assert code == 2 and out == ""
    assert f"--max-n {max_n} is odd" in err and "even value from 2 to 12" in err
    assert "even" in MAX_N_HELP


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


@pytest.fixture(params=(True, False), ids=("gc-on", "gc-off"))
def collector(request):
    """The collector state a caller of ``main`` starts from, restored after the test."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def _raise(exc):
    def command(*args, **kwargs):
        raise exc
    return command


def test_main_runs_with_the_collector_off_and_restores_it(capsys, monkeypatch, collector):
    seen = []
    honest = matchings.dyck_words  # enumerate reads it through the module when it runs
    monkeypatch.setattr(matchings, "dyck_words", lambda n: seen.append(gc.isenabled()) or honest(n))
    assert main(["enumerate", "--n", "4"]) == 0
    assert seen == [False] and gc.isenabled() == collector


@pytest.mark.parametrize("exc, status", [
    (VerificationError("planted failure", {"n": 4}), 1),
    (ValueError("planted bad input"), 2),
], ids=("exit-1", "exit-2"))
def test_main_restores_the_collector_on_failure(capsys, monkeypatch, collector, exc, status):
    monkeypatch.setattr(matchings, "dyck_words", _raise(exc))
    assert main(["enumerate", "--n", "4"]) == status
    assert str(exc) in capsys.readouterr().err and gc.isenabled() == collector


def test_main_restores_the_collector_on_invalid_json(capsys, tmp_path, collector):
    source = tmp_path / "bad.json"
    source.write_text('{"terms": [')
    assert main(["reduce", "--input", str(source)]) == 2
    assert "invalid JSON" in capsys.readouterr().err and gc.isenabled() == collector


def test_main_restores_the_collector_on_an_argparse_exit(capsys, collector):
    with pytest.raises(SystemExit):
        main(["matrix", "--n", "4"])
    assert gc.isenabled() == collector


def test_main_restores_the_collector_when_an_exception_escapes(monkeypatch, collector):
    monkeypatch.setattr(matchings, "dyck_words", _raise(RuntimeError("planted bug")))
    with pytest.raises(RuntimeError, match="planted bug"):
        main(["enumerate", "--n", "4"])
    assert gc.isenabled() == collector
