"""Digests of the CLI output beyond the golden table's n <= 4.

Each case is one argv (and, for ``expand``, the matching read from stdin),
pinned by the sha256 of its exit code, stdout and stderr:

- ``bijection``, ``specht`` and ``top-basis`` for every even n <= 10, every
  --k from -1 to one past the top (and none for ``bijection``), in every format;
- ``expand`` on every dotted matching with n <= 6, standard or not, in every format.

The cases run in-process through ``cli.main``.  After a change that is meant
to alter output, re-record with

    PYTHONPATH=src python tests/test_cli_digests.py

and review which cases of ``tests/data/cli_digests.json`` changed.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from springerrep.cli import main
from springerrep.jsonio import matching_to_obj
from springerrep.rewriting import _generator_codes

DATA = Path(__file__).parent / "data" / "cli_digests.json"
FORMATS = ("json", "csv", "plain")


def cases():
    """Every (argv, stdin text or None), in recording order."""
    out = []
    for n in range(0, 11, 2):
        degrees = range(-1, n // 2 + 2)
        out += [(["bijection", "--n", str(n)], None)]
        out += [(["bijection", "--n", str(n), "--k", str(k)], None) for k in degrees]
        out += [(["specht", "--n", str(n), "--k", str(k)], None) for k in degrees]
        out += [(["top-basis", "--n", str(n)], None)]
    for n in range(0, 7, 2):
        for k in range(n // 2 + 1):
            out += [(["expand", "--input", "-"], json.dumps(matching_to_obj(code)))
                    for code in _generator_codes(n, k)]
    return [(argv + ["--format", fmt], text) for argv, text in out for fmt in FORMATS]


def digest(argv, text) -> str:
    """sha256 of [exit code, stdout, stderr] of ``main(argv)`` with ``text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = stdin
    blob = json.dumps([code, out.getvalue(), err.getvalue()], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def record():
    return [[argv, text, digest(argv, text)] for argv, text in cases()]


def test_cli_output_matches_recorded_digests():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    assert [(argv, text) for argv, text, _ in recorded] == cases()
    for argv, text, expected in recorded:
        assert digest(argv, text) == expected, (argv, text)


if __name__ == "__main__":
    table = record()
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(json.dumps(case, separators=(",", ":")) for case in table) + "\n]\n",
                    encoding="utf-8")
    print(f"{len(table)} cases written to {DATA}", file=sys.stderr)
