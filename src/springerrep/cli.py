"""Command-line interface.

Subcommands: enumerate, bijection, reduce, expand, act, matrix, character,
specht, top-basis, verify, and verify-equality (``verify --suite
module-equality``).  ``--max-n`` of the two verify commands is even, from 2
to ``MAX_VERIFY_N``: the suites run on every even n up to it.  Output is
deterministic for a fixed invocation: basis orders are canonical, JSON keys
are emitted in a fixed order, and the verify suites run serially in a fixed
order.  Every command builds only the rendering ``--format`` names, and
``--out FILE`` writes exactly the bytes stdout would get.

Exit status: 0 on success, 1 when a verification fails (a witness is
printed), 2 on invalid input.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import re
import sys
from functools import partial

from . import jsonio
from .errors import VerificationError
from .linediagrams import expand_code
from .matchings import check_degree, dyck_words, nesting, standard_bottom_sets, standard_codes, undot_mask
from .perms import parse_permutation
from .rewriting import _by_degree, _reduce_sum
from .snaction import _check_word, act_codes, character, rep_matrix
from .specht import code_generator_masks, polytabloid_masks
from .verify import MAX_VERIFY_N, SUITE_NAMES, _bijection, run_suites

MIN_VERIFY_N = 2
# Largest --n of enumerate, bijection, specht, top-basis, matrix, character and act, the
# largest input act and expand take, the largest vertex act --perm names, and the largest
# nonstandard input reduce takes (a standard one is its own answer, at any size).  At 14 each
# takes under 2 s and 100 MB; the largest, specht --n 14 --k 6, takes 0.6-0.9 s by format and
# 85 MB as JSON (2 vCPUs, Python 3.11).  Output grows like Catalan(n/2) * 2^k, and specht at
# 16 has seven times as many terms.
MAX_SIZE_N = 14
MAX_N_HELP = (f"largest n checked, even, {MIN_VERIFY_N} to {MAX_VERIFY_N} (default 8); "
              f"dimension always runs to {MAX_VERIFY_N}")


# The one spelling of an integer the CLI reads: ASCII digits with an optional leading '-'.
# int() alone would also read '1_0', '+4' and the digits of other scripts.
_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def vertex_count(text: str) -> int:
    if (n := integer(text)) > MAX_SIZE_N:
        raise argparse.ArgumentTypeError(f"{text} exceeds the supported bound {MAX_SIZE_N}")
    return n


def _check_size(n: int) -> None:
    if n > MAX_SIZE_N:
        raise ValueError(f"input on {n} vertices exceeds the supported bound {MAX_SIZE_N}")


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _emit(args, json, csv, plain) -> None:
    """Write the rendering ``--format`` names, to ``--out`` or stdout, ending in a
    newline.  ``json()`` returns a JSON value, ``csv()`` the table rows and
    ``plain()`` the text; only the named one is called."""
    if args.format == "json":
        text = jsonio.dumps(json())
    elif args.format == "csv":
        text = _csv_text(csv())
    else:
        text = plain()
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _emit_sum(args, terms, json, column: str, cell, render) -> None:
    """Emit the ordered (element, coef) ``terms`` of a sum as ``json()``, as CSV rows (coef,
    ``cell(x)``) under the header (coef, ``column``), or as plain text with ``render``."""
    _emit(args, json, lambda: [["coef", column], *([coef, cell(x)] for x, coef in terms)],
          lambda: jsonio.formal_plain(terms, render))


def _emit_matchings(args, codes: dict) -> None:
    """Emit ``{(opens, dots): coef}`` over standard matchings, rendered from the codes."""
    terms = jsonio.standard_terms(codes)
    _emit_sum(args, terms, lambda: jsonio.sum_to_obj(terms), "matching", jsonio.matching_plain, jsonio.matching_plain)


def _cmd_enumerate(args) -> int:
    codes = [(opens, None) for opens in dyck_words(args.n)] if args.k is None else standard_codes(args.n, args.k)
    head = {"n": args.n} if args.k is None else {"n": args.n, "k": args.k}
    _emit(args,
          lambda: {**head, "count": len(codes), "matchings": list(map(jsonio.matching_to_obj, codes))},
          lambda: [["index", "matching"], *([i, jsonio.matching_plain(code)] for i, code in enumerate(codes))],
          lambda: "\n".join(map(jsonio.matching_plain, codes)) or "(none)")
    return 0


def _cmd_bijection(args) -> int:
    check_degree(args.n, 0)
    ks = [args.k] if args.k is not None else list(range(args.n // 2 + 1))
    rows = []  # (k, code of M, bottom-row mask of phi(M), which is U_M)
    for k in ks:
        if not _bijection(args.n, k)[0]:
            raise VerificationError("bijection round-trip failed", {"n": args.n, "k": k})
        rows += ((k, code, undot_mask(*code)) for code in standard_codes(args.n, k))
    rows_plain = partial(jsonio.rows_plain, args.n)
    _emit(args,
          lambda: {"n": args.n, "rows": [{"k": k, "matching": jsonio.matching_to_obj(m),
                                          "tableau": jsonio.tableau_to_obj(args.n, t)} for k, m, t in rows]},
          lambda: [["k", "matching", "tableau"],
                   *([k, jsonio.matching_plain(m), rows_plain(t)] for k, m, t in rows)],
          lambda: "\n".join(f"{jsonio.matching_plain(m)}  <->  {rows_plain(t)}" for _, m, t in rows) or "(none)")
    return 0


def _cmd_reduce(args) -> int:
    degrees = _by_degree(jsonio.matching_codes_from_obj(_read_json(args.input)).items())
    for (n, _), codes in degrees.items():
        if n > MAX_SIZE_N and any(nesting(*code) for code in codes):
            raise ValueError(f"nonstandard input on {n} vertices exceeds the supported bound {MAX_SIZE_N}")
    _emit_matchings(args, _reduce_sum(degrees))
    return 0


def _cmd_expand(args) -> int:
    payload = {"terms": [{"coef": 1, "matching": _read_json(args.input)}]}  # one term, so one code
    [((n, _), codes)] = _by_degree(jsonio.matching_codes_from_obj(payload).items()).items()
    _check_size(n)
    [code] = codes
    terms = sorted(expand_code(*code).items())
    _emit_sum(args, terms, lambda: jsonio.subset_sum_to_obj({"n": n}, "undot", terms), "undot",
              jsonio.subset_plain, jsonio.undot_plain)
    return 0


def _cmd_act(args) -> int:
    payload = _read_json(args.input)
    if not (isinstance(payload, dict) and "terms" in payload):
        payload = {"terms": [{"coef": 1, "matching": payload}]}
    degrees = _by_degree(jsonio.matching_codes_from_obj(payload).items())
    sizes, ks = {n for n, _ in degrees}, {k for _, k in degrees}
    _check_size(max(sizes, default=0))
    if args.n is not None and sizes - {args.n}:
        raise ValueError(f"input is on {sorted(sizes)} vertices, --n says {args.n}")
    if args.k is not None and ks - {args.k}:
        raise ValueError(f"input has degrees {sorted(ks)}, --k says {args.k}")
    if (args.gen is None) == (args.perm is None):
        raise ValueError("provide exactly one of --gen or --perm")
    if not degrees and args.n is not None:  # no degree of the input to check --n and --k against
        check_degree(args.n, args.k or 0)
    elif not degrees and args.k is not None and args.k < 0:
        raise ValueError(f"k={args.k} out of range: degrees start at 0")
    if args.gen is not None:
        word = (args.gen,)
        if not degrees and args.n is not None:  # no degree for act_codes to check it in
            _check_word(word, args.n)
        elif not degrees and args.gen < 1:
            raise ValueError(f"generator index {args.gen} out of range: indices start at 1")
    else:
        n = args.n if args.n is not None else max(sizes, default=None)  # None: the text sizes itself
        if n is None and (named := max(map(int, re.findall("[0-9]+", args.perm)), default=0)) > MAX_SIZE_N:
            raise ValueError(f"--perm vertex {named} exceeds the supported bound {MAX_SIZE_N}")
        word = parse_permutation(args.perm, n=n).reduced_word()
    _emit_matchings(args, act_codes(word, degrees))
    return 0


def _cmd_matrix(args) -> int:
    rows = rep_matrix(args.n, args.k, args.gen)

    def aligned() -> str:
        width = max((len(str(x)) for row in rows for x in row), default=1)
        return "\n".join(" ".join(f"{x:>{width}}" for x in row) for row in rows)

    _emit(args, lambda: {"n": args.n, "k": args.k, "gen": args.gen, "rows": [list(r) for r in rows]},
          lambda: rows, aligned)
    return 0


def _parse_cycle_type(text: str) -> tuple[int, ...]:
    parts = re.findall(r"[^\s,]+", text, re.ASCII)
    if not all(_INTEGER.fullmatch(part) and int(part) > 0 for part in parts):
        raise ValueError(f"--cycle-type expects positive integers separated by spaces or commas, "
                         f"got {text!r}")
    if not parts:
        raise ValueError("empty cycle type")
    return tuple(map(int, parts))


def _cmd_character(args) -> int:
    cycle_type = _parse_cycle_type(args.cycle_type)
    value = character(args.n, args.k, cycle_type)
    _emit(args,
          lambda: {"n": args.n, "k": args.k, "cycle_type": list(cycle_type), "value": value},
          lambda: [["n", "k", "cycle_type", "value"],
                   [args.n, args.k, " ".join(map(str, cycle_type)), value]],
          lambda: str(value))
    return 0


def _tabloid_vectors(args, k: int, named: dict[str, list[dict[int, int]]]) -> None:
    """Emit families of {bottom-row mask: coef} vectors, each in mask order."""
    head, rows_plain = {"n": args.n, "k": k}, partial(jsonio.rows_plain, args.n)
    named = {name: [sorted(v.items()) for v in vectors] for name, vectors in named.items()}
    families = [(name, idx, terms) for name, vectors in named.items() for idx, terms in enumerate(vectors)]
    _emit(args,
          lambda: {**head, **{name: [jsonio.subset_sum_to_obj(head, "bottom", terms) for terms in vectors]
                              for name, vectors in named.items()}},
          lambda: [["family", "index", "coef", "bottom"],
                   *([name, idx, coef, jsonio.subset_plain(mask)]
                     for name, idx, terms in families for mask, coef in terms)],
          lambda: "\n".join(f"{name}[{idx}] = {jsonio.formal_plain(terms, rows_plain)}"
                            for name, idx, terms in families))


def _cmd_specht(args) -> int:
    named = {}
    if args.emit in ("eT", "both"):
        named["eT"] = [polytabloid_masks(args.n, b) for b in standard_bottom_sets(args.n, args.k)]
    if args.emit in ("eM", "both"):
        named["eM"] = [code_generator_masks(*code) for code in standard_codes(args.n, args.k)]
    _tabloid_vectors(args, args.k, named)
    return 0


def _cmd_top_basis(args) -> int:
    _tabloid_vectors(args, args.n // 2, {"top": [code_generator_masks(*code)
                                                 for code in standard_codes(args.n, args.n // 2)]})
    return 0


def _cmd_verify(args) -> int:
    if args.max_n < MIN_VERIFY_N:
        raise ValueError(f"--max-n {args.max_n} is below the smallest case n={MIN_VERIFY_N}")
    if args.max_n > MAX_VERIFY_N:
        raise ValueError(f"--max-n {args.max_n} exceeds the supported bound {MAX_VERIFY_N}")
    if args.max_n % 2:
        raise ValueError(f"--max-n {args.max_n} is odd; the suites run on even n, "
                         f"so choose an even value from {MIN_VERIFY_N} to {MAX_VERIFY_N}")
    suites = SUITE_NAMES if args.suite == "all" else tuple(args.suite.split(","))
    results = run_suites(suites, args.max_n, seed=getattr(args, "test_seed", 0))
    passed = sum(r.ok for r in results)
    _emit(args,
          lambda: {"max_n": args.max_n, "suites": [name for name in SUITE_NAMES if name in suites],
                   "checks": [{"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
                              for r in results],
                   "passed": passed, "total": len(results)},
          lambda: [["suite", "name", "ok", "detail"],
                   *([r.suite, r.name, "ok" if r.ok else "FAIL", r.detail] for r in results)],
          lambda: "\n".join([*(f"{'ok  ' if r.ok else 'FAIL'} {r.suite:<16} {r.name:<28} {r.detail}".rstrip()
                               for r in results), f"{passed}/{len(results)} checks passed"]))
    return 0 if passed == len(results) else 1


FORMATS = ("json", "csv", "plain")


def _add_format(parser, default="plain") -> None:
    parser.add_argument("--format", choices=FORMATS, default=default)
    parser.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="springerrep",
        description="Homology basis, rewriting calculus, and symmetric-group "
                    "action for the two-row Springer fiber, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="noncrossing matchings, or the standard basis of a degree")
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--k", type=integer, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bijection", help="matching/tableau correspondence table")
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--k", type=integer, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("reduce", help="rewrite a formal sum into the standard basis")
    p.add_argument("--input", required=True, help="formal-sum JSON file, or - for stdin")
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("expand", help="signed line-diagram expansion of a matching")
    p.add_argument("--input", required=True, help="matching JSON file, or - for stdin")
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("act", help="apply a transposition or permutation to a matching or sum")
    p.add_argument("--input", required=True, help="matching or formal-sum JSON, or - for stdin")
    p.add_argument("--gen", type=integer, default=None, help="simple transposition index i")
    p.add_argument("--perm", default=None,
                   help="permutation, cycle notation '(1 2)(3 4 5)' or one-line '2 1 4 5 3'")
    p.add_argument("--n", type=vertex_count, default=None)
    p.add_argument("--k", type=integer, default=None)
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("matrix", help="matrix of a simple transposition on the standard basis",
                       description="s_i, i = --gen, on the standard basis of degree k: column c is the image of "
                                   "basis matching c, and columns, like rows, follow enumerate --n N --k K order.")
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--gen", type=integer, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("character", help="character value at a cycle type")
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--cycle-type", required=True, help="for example 3,2,1")
    _add_format(p)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("specht", help="emit polytabloid and matching generators")
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--emit", choices=("eT", "eM", "both"), default="both")
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_specht)

    p = sub.add_parser("top-basis", help="the matching basis of the top homology degree")
    p.add_argument("--n", type=vertex_count, required=True)
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_top_basis)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", default="all",
                   help="'all' or a comma-separated subset of: " + ", ".join(SUITE_NAMES))
    p.add_argument("--max-n", type=integer, default=8, help=MAX_N_HELP)
    p.add_argument("--test-seed", type=integer, default=0,
                   help="seed for the randomized linearity spot-check")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-equality",
                       help="shorthand for verify --suite module-equality")
    p.add_argument("--max-n", type=integer, default=8, help=MAX_N_HELP)
    _add_format(p)
    p.set_defaults(func=_cmd_verify, suite="module-equality")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # commands make almost no reference cycles, so collector passes would only walk live
    # objects (a parsed 15015-term sum) again and again; the caller's state comes back
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"witness: {jsonio.dumps(exc.witness)}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
