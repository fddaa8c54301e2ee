"""Command-line interface.

Subcommands: enumerate, bijection, reduce, expand, act, matrix, character,
specht, top-basis, verify.  Output is deterministic for a fixed invocation:
basis orders are canonical, JSON keys are emitted in a fixed order, and the
verify suites run serially in a fixed order.

Exit status: 0 on success, 1 when a verification fails (a witness is
printed), 2 on invalid input.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import sys

from . import jsonio
from .errors import VerificationError
from .formal import FormalSum
from .linediagrams import expand
from .matchings import enumerate_noncrossing, enumerate_standard, phi, theta
from .perms import Permutation, parse_permutation
from .rewriting import MAX_VERIFY_N, _reduce_codes
from .snaction import act_permutation, act_word, character, rep_matrix
from .specht import emit_top_degree_basis, matching_generator, polytabloid, standard_tableaux
from .verify import SUITE_NAMES, run_suites

MIN_VERIFY_N = 2
# Largest --n of enumerate, bijection, specht, top-basis, matrix and character, and the
# largest input act and expand take.  At 14 each takes under 2 s and 100 MB (specht --n 14 --k 6
# is the largest); output grows like Catalan(n/2) * 2^k, and specht at 16 has seven
# times as many terms.
MAX_SIZE_N = 14
MAX_N_HELP = (f"largest n checked, {MIN_VERIFY_N} to {MAX_VERIFY_N} (default 8); "
              f"dimension always runs to {MAX_VERIFY_N}")


def vertex_count(text: str) -> int:
    if int(text) > MAX_SIZE_N:
        raise argparse.ArgumentTypeError(f"{text} exceeds the supported bound {MAX_SIZE_N}")
    return int(text)


def _check_size(n: int) -> None:
    if n > MAX_SIZE_N:
        raise ValueError(f"input on {n} vertices exceeds the supported bound {MAX_SIZE_N}")


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    # parsing makes no reference cycles, but the cyclic collector would walk the
    # growing tree again and again (0.06 s of a 15015-term sum)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _cmd_enumerate(args) -> int:
    if args.k is None:
        matchings = list(enumerate_noncrossing(args.n))
    else:
        matchings = list(enumerate_standard(args.n, args.k))
    if args.format == "json":
        payload = {"n": args.n}
        if args.k is not None:
            payload["k"] = args.k
        payload["count"] = len(matchings)
        payload["matchings"] = [jsonio.matching_to_obj(m) for m in matchings]
        _emit(args, jsonio.dumps(payload))
    elif args.format == "csv":
        rows = [["index", "matching"]]
        rows += [[i, jsonio.matching_plain(m)] for i, m in enumerate(matchings)]
        _emit(args, _csv_text(rows))
    else:
        _emit(args, "\n".join(jsonio.matching_plain(m) for m in matchings) or "(none)")
    return 0


def _cmd_bijection(args) -> int:
    ks = [args.k] if args.k is not None else list(range(args.n // 2 + 1))
    rows = []
    for k in ks:
        for m in enumerate_standard(args.n, k):
            t = phi(m)
            if theta(t) != m:
                raise VerificationError(
                    "bijection round-trip failed",
                    {"n": args.n, "k": k, "arcs": m.arcs, "bottom": t.bottom},
                )
            rows.append((k, m, t))
        for t in standard_tableaux(args.n, k):
            if phi(theta(t)) != t:
                raise VerificationError(
                    "bijection round-trip failed", {"n": args.n, "k": k, "bottom": t.bottom}
                )
    if args.format == "json":
        payload = {
            "n": args.n,
            "rows": [
                {"k": k, "matching": jsonio.matching_to_obj(m), "tableau": jsonio.tableau_to_obj(t)}
                for k, m, t in rows
            ],
        }
        _emit(args, jsonio.dumps(payload))
    elif args.format == "csv":
        table = [["k", "matching", "tableau"]]
        table += [[k, jsonio.matching_plain(m), jsonio.tableau_plain(t)] for k, m, t in rows]
        _emit(args, _csv_text(table))
    else:
        _emit(args, "\n".join(
            f"{jsonio.matching_plain(m)}  <->  {jsonio.tableau_plain(t)}" for _, m, t in rows
        ) or "(none)")
    return 0


def _emit_matching_sum(args, v: FormalSum) -> None:
    if args.format == "json":
        _emit(args, jsonio.dumps(jsonio.matching_sum_to_obj(v)))
    elif args.format == "csv":
        rows = [["coef", "matching"]]
        rows += [[coef, jsonio.matching_plain(m)] for m, coef in v.sorted_terms()]
        _emit(args, _csv_text(rows))
    else:
        _emit(args, jsonio.formal_plain(v, jsonio.matching_plain))


def _cmd_reduce(args) -> int:
    terms = jsonio.matching_codes_from_obj(_read_json(args.input))
    _emit_matching_sum(args, _reduce_codes(terms))
    return 0


def _cmd_expand(args) -> int:
    m = jsonio.matching_from_obj(_read_json(args.input))
    _check_size(m.n)
    v = expand(m)
    if args.format == "json":
        _emit(args, jsonio.dumps(jsonio.diagram_sum_to_obj(v, n=m.n)))
    elif args.format == "csv":
        rows = [["coef", "undot"]]
        rows += [[coef, " ".join(map(str, u.members))] for u, coef in v.sorted_terms()]
        _emit(args, _csv_text(rows))
    else:
        _emit(args, jsonio.formal_plain(v, jsonio.undot_plain))
    return 0


def _cmd_act(args) -> int:
    payload = _read_json(args.input)
    if isinstance(payload, dict) and "terms" in payload:
        v = jsonio.matching_sum_from_obj(payload)
    else:
        v = FormalSum.single(jsonio.matching_from_obj(payload))
    sizes = {m.n for m, _ in v}
    _check_size(max(sizes, default=0))
    degrees = {m.k for m, _ in v}
    if args.n is not None and sizes - {args.n}:
        raise ValueError(f"input is on {sorted(sizes)} vertices, --n says {args.n}")
    if args.k is not None and degrees - {args.k}:
        raise ValueError(f"input has degrees {sorted(degrees)}, --k says {args.k}")
    if (args.gen is None) == (args.perm is None):
        raise ValueError("provide exactly one of --gen or --perm")
    if args.gen is not None:
        result = act_word((args.gen,), v)
    else:
        n = args.n if args.n is not None else max(sizes, default=0)
        result = act_permutation(parse_permutation(args.perm, n=n), v)
    _emit_matching_sum(args, result)
    return 0


def _cmd_matrix(args) -> int:
    matrix = rep_matrix(args.n, args.k, args.gen)
    if args.format == "json":
        payload = {"n": args.n, "k": args.k, "gen": args.gen,
                   "rows": [list(r) for r in matrix.entries]}
        _emit(args, jsonio.dumps(payload))
    elif args.format == "csv":
        _emit(args, "\n".join(",".join(map(str, row)) for row in matrix.entries))
    else:
        width = max((len(str(x)) for row in matrix.entries for x in row), default=1)
        _emit(args, "\n".join(" ".join(f"{x:>{width}}" for x in row) for row in matrix.entries))
    return 0


def _parse_cycle_type(text: str) -> tuple[int, ...]:
    parts = tuple(int(p) for p in text.replace(",", " ").split())
    if not parts:
        raise ValueError("empty cycle type")
    return parts


def _cmd_character(args) -> int:
    cycle_type = _parse_cycle_type(args.cycle_type)
    value = character(args.n, args.k, cycle_type)
    if args.format == "json":
        payload = {"n": args.n, "k": args.k, "cycle_type": list(cycle_type), "value": value}
        _emit(args, jsonio.dumps(payload))
    elif args.format == "csv":
        _emit(args, _csv_text([["n", "k", "cycle_type", "value"],
                               [args.n, args.k, " ".join(map(str, cycle_type)), value]]))
    else:
        _emit(args, str(value))
    return 0


def _tabloid_vectors(args, k: int, named: dict[str, list[FormalSum]]) -> None:
    if args.format == "json":
        payload: dict = {"n": args.n, "k": k}
        for name, vectors in named.items():
            payload[name] = [jsonio.tabloid_sum_to_obj(v, n=args.n, k=k) for v in vectors]
        _emit(args, jsonio.dumps(payload))
    elif args.format == "csv":
        rows = [["family", "index", "coef", "bottom"]]
        for name, vectors in named.items():
            for idx, v in enumerate(vectors):
                for t, coef in v.sorted_terms():
                    rows.append([name, idx, coef, " ".join(map(str, t.bottom))])
        _emit(args, _csv_text(rows))
    else:
        lines = []
        for name, vectors in named.items():
            for idx, v in enumerate(vectors):
                lines.append(f"{name}[{idx}] = {jsonio.formal_plain(v, jsonio.tabloid_plain)}")
        _emit(args, "\n".join(lines))


def _cmd_specht(args) -> int:
    named: dict[str, list[FormalSum]] = {}
    if args.emit in ("eT", "both"):
        named["eT"] = [polytabloid(t) for t in standard_tableaux(args.n, args.k)]
    if args.emit in ("eM", "both"):
        named["eM"] = [matching_generator(m) for m in enumerate_standard(args.n, args.k)]
    _tabloid_vectors(args, args.k, named)
    return 0


def _cmd_top_basis(args) -> int:
    _tabloid_vectors(args, args.n // 2, {"top": emit_top_degree_basis(args.n)})
    return 0


def _cmd_verify(args) -> int:
    if args.max_n < MIN_VERIFY_N:
        raise ValueError(f"--max-n {args.max_n} is below the smallest case n={MIN_VERIFY_N}")
    if args.max_n > MAX_VERIFY_N:
        raise ValueError(f"--max-n {args.max_n} exceeds the supported bound {MAX_VERIFY_N}")
    suites = SUITE_NAMES if args.suite == "all" else tuple(args.suite.split(","))
    results = run_suites(suites, args.max_n, seed=getattr(args, "test_seed", 0))
    passed = sum(r.ok for r in results)
    if args.format == "json":
        payload = {
            "max_n": args.max_n,
            "suites": [name for name in SUITE_NAMES if name in suites],
            "checks": [
                {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
                for r in results
            ],
            "passed": passed,
            "total": len(results),
        }
        _emit(args, jsonio.dumps(payload))
    elif args.format == "csv":
        rows = [["suite", "name", "ok", "detail"]]
        rows += [[r.suite, r.name, "ok" if r.ok else "FAIL", r.detail] for r in results]
        _emit(args, _csv_text(rows))
    else:
        lines = [
            f"{'ok  ' if r.ok else 'FAIL'} {r.suite:<16} {r.name:<28} {r.detail}".rstrip()
            for r in results
        ]
        lines.append(f"{passed}/{len(results)} checks passed")
        _emit(args, "\n".join(lines))
    return 0 if passed == len(results) else 1


def _add_format(parser, default="plain", choices=("json", "csv", "plain")) -> None:
    parser.add_argument("--format", choices=choices, default=default)
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
    p.add_argument("--k", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bijection", help="matching/tableau correspondence table")
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--k", type=int, default=None)
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
    p.add_argument("--gen", type=int, default=None, help="simple transposition index i")
    p.add_argument("--perm", default=None,
                   help="permutation, cycle notation '(1 2)(3 4 5)' or one-line '2 1 4 5 3'")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("matrix", help="matrix of a simple transposition on the standard basis")
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gen", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("character", help="character value at a cycle type")
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cycle-type", required=True, help="for example 3,2,1")
    _add_format(p)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("specht", help="emit polytabloid and matching generators")
    p.add_argument("--n", type=vertex_count, required=True)
    p.add_argument("--k", type=int, required=True)
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
    p.add_argument("--max-n", type=int, default=8, help=MAX_N_HELP)
    p.add_argument("--test-seed", type=int, default=0,
                   help="seed for the randomized linearity spot-check")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-equality",
                       help="shorthand for verify --suite module-equality")
    p.add_argument("--max-n", type=int, default=8, help=MAX_N_HELP)
    _add_format(p)
    p.set_defaults(func=_cmd_verify, suite="module-equality")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
