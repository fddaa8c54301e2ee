"""Golden outputs of the CLI: exit code, stdout and stderr of every command in
every format, pinned byte for byte.

The cases are small (n <= 4, every degree and one past the top, each
``--emit``, ``--gen`` from 0 to n) and run in-process through ``cli.main``,
with the input files of ``reduce``, ``expand`` and ``act`` written to a
temporary directory under the names the recorded argv uses.  After a change
that is meant to alter output, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``tests/data/cli_golden.json``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from springerrep import cli
from springerrep.cli import main
from springerrep.matchings import partitions_of

DATA = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = ("enumerate", "bijection", "reduce", "expand", "act", "matrix", "character",
            "specht", "top-basis", "verify")
FORMATS = ("json", "csv", "plain")

M4 = {"n": 4, "arcs": [[1, 4], [2, 3]], "dotted": []}
M4_NESTED_DOT = {"n": 4, "arcs": [[1, 4], [2, 3]], "dotted": [[2, 3]]}
M4_TOP = {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[1, 2], [3, 4]]}

# file name -> contents; valid inputs first, then invalid ones
INPUTS = {
    "m0.json": json.dumps({"n": 0, "arcs": []}),
    "m2.json": json.dumps({"n": 2, "arcs": [[2, 1]]}),
    "m4.json": json.dumps(M4),
    "m4_nested_dot.json": json.dumps(M4_NESTED_DOT),
    "m4_top.json": json.dumps(M4_TOP),
    "sum_empty.json": json.dumps({"terms": []}),
    "sum4.json": json.dumps({"terms": [
        {"coef": 2, "matching": M4_NESTED_DOT},
        {"coef": -1, "matching": {"n": 4, "arcs": [[3, 4], [1, 2]], "dotted": [[2, 1]]}},
        {"coef": 3, "matching": {"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[3, 4]]}},
    ]}),
    "sum4_cancels.json": json.dumps({"terms": [
        {"coef": 1, "matching": M4}, {"coef": -1, "matching": M4},
    ]}),
    "sum6.json": json.dumps({"terms": [
        {"coef": 1, "matching": {"n": 6, "arcs": [[1, 6], [2, 5], [3, 4]], "dotted": [[3, 4]]}},
    ]}),
    "sum_two_degrees.json": json.dumps({"terms": [
        {"coef": 1, "matching": M4}, {"coef": 1, "matching": M4_TOP},
    ]}),
    "sum_bool_coef.json": '{"terms":[{"coef":true,"matching":{"n":2,"arcs":[[1,2]]}}]}',
    "sum_no_terms.json": '{"term":[]}',
    "crossing.json": json.dumps({"n": 4, "arcs": [[1, 3], [2, 4]], "dotted": []}),
    "odd.json": json.dumps({"n": 3, "arcs": [[1, 2]], "dotted": []}),
    "not_partition.json": json.dumps({"n": 4, "arcs": [[1, 2], [1, 2]]}),
    "dot_not_arc.json": json.dumps({"n": 4, "arcs": [[1, 2], [3, 4]], "dotted": [[2, 3]]}),
    "string_n.json": '{"n":"4","arcs":[[1,2],[3,4]],"dotted":[]}',
    "bool_vertex.json": '{"n":4,"arcs":[[true,2],[3,4]],"dotted":[]}',
    "list.json": "[1, 2]",
    "malformed.json": '{"n":4, "arcs": [[1,2],',
    "n16.json": json.dumps({"n": 16, "arcs": [[i, i + 1] for i in range(1, 16, 2)]}),
}
MATCHING_INPUTS = ("m0.json", "m2.json", "m4.json", "m4_nested_dot.json", "m4_top.json",
                   "crossing.json", "odd.json", "not_partition.json", "dot_not_arc.json",
                   "string_n.json", "bool_vertex.json", "list.json", "malformed.json",
                   "n16.json", "missing.json")
SUM_INPUTS = ("sum_empty.json", "sum4.json", "sum4_cancels.json", "sum6.json",
              "sum_two_degrees.json", "sum_bool_coef.json", "sum_no_terms.json",
              "m4.json", "crossing.json", "malformed.json", "missing.json")


def _degrees(n):
    """--k values for n: absent, below range, every degree, one past the top."""
    if n % 2:
        return [None, 1]
    return [None, -1, *range(n // 2 + 2)]


def _argvs():
    """Every recorded argv, without --format."""
    out = []
    for command in ("enumerate", "bijection"):
        for n in (0, 2, 3, 4):
            for k in _degrees(n):
                out.append([command, "--n", str(n)] + ([] if k is None else ["--k", str(k)]))
    for n in (2, 3, 4):
        for k in range(n // 2 + 2) if n % 2 == 0 else [0]:
            past = k > n // 2 or n % 2
            for gen in [1] if past else range(n + 1):
                out.append(["matrix", "--n", str(n), "--k", str(k), "--gen", str(gen)])
    for n in (2, 4):
        for k in range(n // 2 + 2):
            types = [",".join(map(str, p)) for p in partitions_of(n)]
            for cycle_type in types[:1] if k > n // 2 else types:
                out.append(["character", "--n", str(n), "--k", str(k), "--cycle-type", cycle_type])
    for cycle_type in ("3", "", "x"):
        out.append(["character", "--n", "4", "--k", "1", "--cycle-type", cycle_type])
    for n in (0, 2, 3, 4):
        for k in range(n // 2 + 2) if n % 2 == 0 else [1]:
            past = k > n // 2 or n % 2
            for emit in ["both"] if past else ["eT", "eM", "both"]:
                out.append(["specht", "--n", str(n), "--k", str(k), "--emit", emit])
    for n in (0, 2, 3, 4):
        out.append(["top-basis", "--n", str(n)])
    for name in SUM_INPUTS:
        out.append(["reduce", "--input", name])
    for name in MATCHING_INPUTS:
        out.append(["expand", "--input", name])
    for name, n in (("m2.json", 2), ("m4.json", 4), ("m4_nested_dot.json", 4)):
        for gen in range(n + 1):
            out.append(["act", "--input", name, "--gen", str(gen)])
    out += [
        ["act", "--input", "m4_top.json", "--perm", "(1 2 3)", "--n", "4"],
        ["act", "--input", "m4.json", "--perm", "2 1 4 3"],
        ["act", "--input", "m4.json", "--perm", "(1 5)"],
        ["act", "--input", "sum4.json", "--gen", "2", "--k", "1"],
        ["act", "--input", "sum4.json", "--gen", "2", "--k", "2"],
        ["act", "--input", "sum_empty.json", "--gen", "1"],
        ["act", "--input", "m4.json", "--gen", "1", "--n", "6"],
        ["act", "--input", "m4.json"],
        ["act", "--input", "m4.json", "--gen", "1", "--perm", "(1 2)"],
        ["act", "--input", "crossing.json", "--gen", "1"],
        ["act", "--input", "n16.json", "--gen", "1"],
        ["act", "--input", "malformed.json", "--gen", "1"],
        ["verify", "--max-n", "2"],
        ["verify", "--suite", "counting,bijection,echelon,linearity", "--max-n", "4"],
        ["verify", "--suite", "nonsense", "--max-n", "4"],
        ["verify", "--max-n", "1"],
        ["verify-equality", "--max-n", "4"],
    ]
    return out


def invocations():
    return [argv + ["--format", fmt] for argv in _argvs() for fmt in FORMATS]


def run(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def record():
    """Write the inputs to the current directory, run every invocation there,
    and return the golden table."""
    for name, text in INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    return {"inputs": INPUTS, "cases": [[argv, *run(argv)] for argv in invocations()]}


def dump(table):
    """The table as JSON with one case per line, so a re-recording diffs by case."""
    lines = [json.dumps(case, ensure_ascii=False, separators=(",", ":")) for case in table["cases"]]
    inputs = json.dumps(table["inputs"], separators=(",", ":"))
    return '{"inputs":' + inputs + ',\n"cases":[\n' + ",\n".join(lines) + "\n]}\n"


def _pair(argv):
    return argv[0].removesuffix("-equality"), argv[argv.index("--format") + 1]


def _golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_table_covers_every_command_and_format():
    golden = _golden()
    assert [argv for argv, *_ in golden["cases"]] == invocations()
    assert golden["inputs"] == INPUTS
    assert {_pair(argv) for argv, *_ in golden["cases"]} == {
        (command, fmt) for command in COMMANDS for fmt in FORMATS
    }


@pytest.fixture
def golden(tmp_path, monkeypatch):
    """The golden table, run from a directory holding its input files."""
    table = _golden()
    for name, text in table["inputs"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return table


def _first_success(golden, command, fmt):
    """The first recorded case of (command, fmt) that exits 0."""
    return next(case for case in golden["cases"]
                if _pair(case[0]) == (command, fmt) and case[1] == 0)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_cli_output_matches_golden(golden, command, fmt):
    cases = [case for case in golden["cases"] if _pair(case[0]) == (command, fmt)]
    assert cases
    for argv, *expected in cases:
        assert list(run(argv)) == expected, argv


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_out_file_holds_the_stdout_bytes(golden, tmp_path, command, fmt):
    argv, code, stdout, stderr = _first_success(golden, command, fmt)
    target = tmp_path / "out.txt"
    assert run([*argv, "--out", str(target)]) == (code, "", stderr), argv
    assert target.read_bytes() == stdout.encode("utf-8"), argv


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_only_the_named_rendering_is_built(golden, monkeypatch, command, fmt):
    argv, *expected = _first_success(golden, command, fmt)

    def refuse(*_):
        raise AssertionError(f"--format {fmt} built another rendering")

    if fmt != "csv":
        monkeypatch.setattr(cli, "_csv_text", refuse)
    if fmt != "json":
        monkeypatch.setattr(cli.jsonio, "dumps", refuse)
    assert list(run(argv)) == expected, argv


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        here = os.getcwd()
        os.chdir(workdir)
        try:
            table = record()
        finally:
            os.chdir(here)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(dump(table), encoding="utf-8")
    print(f"{len(table['cases'])} cases written to {DATA}", file=sys.stderr)
