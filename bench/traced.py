"""Run one CLI invocation in-process, with or without layer tracing.

    python3 bench/traced.py --mode traced --result R.json --spans S.bin \\
        --stdout OUT -- verify --suite all --max-n 8 --format json

The package must be importable (the benchmark puts ``src`` on PYTHONPATH).
``--mode plain`` times ``springerrep.cli.main`` with nothing patched.
``--mode traced`` first wraps every function named in ``TARGETS`` in every
``springerrep`` module that holds a reference to it, so a call through
``verify.quotient_project_oracle`` is traced as well as one through
``rewriting.quotient_project_oracle``.  Each call becomes one span; the
spans are written to ``--spans`` when the run ends, and the counters and
cache-info deltas to ``--result``.  The CLI's standard output goes to
``--stdout`` so the caller can check it.

Each process runs the CLI once: the package's ``functools.cache`` layers
would make a second run in the same process meaningless.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import pkgutil
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

from spans import SpanLog

ROOT = "cli.main"

# (module, public name, the per-layer statistics reported for it).
# calls and self_s come from the spans, hits/misses/hit_ratio from
# cache_info() deltas, and every other statistic from a counter that
# COUNTERS below updates after each call.
TARGETS = (
    ("exactlinalg", "rref", ("calls", "self_s", "cells")),
    ("exactlinalg", "solve_in_span", ("calls", "self_s")),
    ("exactlinalg", "rank", ("calls", "self_s", "cells")),
    ("specht", "specht_characters", ("calls", "self_s")),
    ("specht", "verify_module_equality", ("calls", "self_s")),
    ("specht", "span_rank", ("calls", "self_s")),
    ("specht", "polytabloid", ("calls",)),
    ("specht", "matching_generator", ("calls",)),
    ("snaction", "act_simple", ("calls", "hits", "misses", "hit_ratio", "self_s")),
    ("snaction", "act_word", ("calls", "self_s")),
    ("snaction", "character", ("calls", "self_s")),
    ("snaction", "verify_coxeter", ("calls", "self_s")),
    ("snaction", "chart_diagram_consistency", ("calls", "self_s")),
    ("snaction", "irreducibility_check", ("calls", "self_s")),
    ("formal", "FormalSum.map_basis", ("calls", "self_s")),
    ("linediagrams", "expand", ("calls", "self_s", "hits", "misses")),
    ("linediagrams", "permute_diagram", ("calls", "self_s")),
    ("linediagrams", "echelon_certificate", ("calls", "self_s")),
    ("rewriting", "reduce_to_standard", ("calls", "self_s", "terms_in", "terms_out")),
    ("rewriting", "find_sites", ("calls",)),
    ("rewriting", "quotient_project_oracle", ("calls", "self_s")),
    ("rewriting", "degree_generators", ("calls", "self_s", "generators")),
    ("rewriting", "relation_vectors", ("calls", "self_s", "rows")),
    ("jsonio", "matching_sum_from_obj", ("calls", "self_s")),
    ("jsonio", "matching_sum_to_obj", ("calls", "self_s")),
    ("jsonio", "dumps", ("calls", "self_s")),
    ("matchings", "enumerate_standard", ("calls", "self_s", "hits", "misses")),
    ("matchings", "enumerate_noncrossing", ("calls", "self_s")),
    ("matchings", "theta", ("calls", "self_s")),
    ("matchings", "is_standard", ("calls", "self_s")),
)


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if len(rows) else 0


# Counters updated after a call: name -> (args, result) -> {metric: increment}
COUNTERS = {
    "exactlinalg.rref": lambda args, result: {"exactlinalg.rref.cells": _cells(args[0])},
    "exactlinalg.rank": lambda args, result: {"exactlinalg.rank.cells": _cells(args[0])},
    "rewriting.reduce_to_standard": lambda args, result: {
        "rewriting.reduce_to_standard.terms_in": len(args[0]),
        "rewriting.reduce_to_standard.terms_out": len(result)},
    "rewriting.degree_generators": lambda args, result: {
        "rewriting.degree_generators.generators": len(result)},
    "rewriting.relation_vectors": lambda args, result: {
        "rewriting.relation_vectors.rows": len(result)},
    "jsonio.dumps": lambda args, result: {"jsonio.bytes_out": len(result.encode())},
}

# The suites of ``springerrep verify``; verify.<suite>.wall_s is reported for
# each, as 0 when a workload does not run it.
SUITES = (
    "counting", "bijection", "rewriting", "echelon", "coxeter", "consistency",
    "irreducibility", "module-equality", "multiplicity", "dimension", "linearity",
)

CONSTRUCTED = "matchings.NoncrossingMatching.constructed"
EXTRA_COUNTS = ("jsonio.bytes_in", "jsonio.bytes_out", CONSTRUCTED,
                "verify.checks.total", "verify.checks.failed")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, in report order."""
    units = {"self_s": "s", "hit_ratio": "ratio"}
    out = [(f"{module}.{name}.{stat}", units.get(stat, "count"))
           for module, name, stats in TARGETS for stat in stats]
    out += [("jsonio.bytes_in", "bytes"), ("jsonio.bytes_out", "bytes"), (CONSTRUCTED, "count")]
    out += [(f"verify.{suite}.wall_s", "s") for suite in SUITES]
    out += [("verify.checks.total", "count"), ("verify.checks.failed", "count"),
            ("cli.main.self_s", "s"), ("trace.overhead_ratio", "ratio")]
    return out


def is_exact(metric: str) -> bool:
    """Counts repeat exactly from run to run; times do not."""
    return not metric.endswith(("self_s", "wall_s", "overhead_ratio"))


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "springerrep" or name.startswith("springerrep.")]


def _resolve(module: str, name: str):
    """(owner, attribute, original) for a target, or None if it is gone."""
    owner = sys.modules.get(f"springerrep.{module}")
    *classes, attribute = name.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
    if owner is None or not hasattr(owner, attribute):
        return None
    return owner, attribute, getattr(owner, attribute)


def _replace_everywhere(original, replacement) -> None:
    for module in _package_modules():
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def cached_functions() -> dict[str, object]:
    """The targets whose hits and misses are reported, by full name."""
    out = {}
    for module, name, stats in TARGETS:
        found = _resolve(module, name)
        if "hits" in stats and found and hasattr(found[2], "cache_info"):
            out[f"{module}.{name}"] = found[2]
    return out


def install(log: SpanLog, counters: Counter) -> list[str]:
    """Wrap every target; returns the names that no longer exist."""
    missing = []
    for module, name, _ in TARGETS:
        full = f"{module}.{name}"
        found = _resolve(module, name)
        if found is None:
            missing.append(full)
            continue
        owner, attribute, original = found
        count = COUNTERS.get(full)
        after = None
        if count is not None:
            def after(args, result, count=count):
                counters.update(count(args, result))
        wrapper = log.wrap(original, full, after)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
        else:
            _replace_everywhere(original, wrapper)

    matchings = sys.modules["springerrep.matchings"]
    post_init = matchings.NoncrossingMatching.__post_init__

    def counted_post_init(self):
        counters[CONSTRUCTED] += 1
        post_init(self)

    matchings.NoncrossingMatching.__post_init__ = counted_post_init

    verify = sys.modules["springerrep.verify"]
    build_tasks = getattr(verify, "build_tasks", None)
    if build_tasks is None:
        missing.append("verify.build_tasks")
    else:
        def traced_build_tasks(*args, **kwargs):
            return [dataclasses.replace(task, run=log.wrap(task.run, f"verify.{task.suite}"))
                    for task in build_tasks(*args, **kwargs)]
        _replace_everywhere(build_tasks, traced_build_tasks)

    run_suites = getattr(verify, "run_suites", None)
    if run_suites is None:
        missing.append("verify.run_suites")
    else:
        def count_checks(args, results):
            counters["verify.checks.total"] += len(results)
            counters["verify.checks.failed"] += sum(not r.ok for r in results)
        _replace_everywhere(run_suites, log.wrap(run_suites, "verify.run_suites", count_checks))
    return missing


def layer_values(totals: dict, result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (without trace.overhead_ratio),
    from its spans' ``totals_by_name`` and the run's result file."""
    zero = {"calls": 0, "self_ns": 0, "wall_ns": 0}
    values: dict[str, float] = {}
    for module, name, stats in TARGETS:
        full = f"{module}.{name}"
        span = totals.get(full, zero)
        hits, misses = result["cache"].get(full, (0, 0))
        for stat in stats:
            if stat == "calls":
                value = span["calls"]
            elif stat == "self_s":
                value = span["self_ns"] / 1e9
            elif stat == "hits":
                value = hits
            elif stat == "misses":
                value = misses
            elif stat == "hit_ratio":
                value = hits / (hits + misses) if hits + misses else 0.0
            else:
                value = result["counters"].get(f"{full}.{stat}", 0)
            values[f"{full}.{stat}"] = value
    for metric in EXTRA_COUNTS:
        values[metric] = result["counters"].get(metric, 0)
    for suite in SUITES:
        values[f"verify.{suite}.wall_s"] = totals.get(f"verify.{suite}", zero)["wall_ns"] / 1e9
    values["cli.main.self_s"] = totals.get(ROOT, zero)["self_ns"] / 1e9
    return values


def combine(runs: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over traced runs, and the counts that differ."""
    differing = [m for m in runs[0] if is_exact(m) and any(r[m] != runs[0][m] for r in runs)]
    return {m: runs[0][m] if is_exact(m) else statistics.median(r[m] for r in runs)
            for m in runs[0]}, differing


def self_time_balanced(totals: dict) -> bool:
    """Do the self times of all spans add up to the duration of the one root?

    Every span lies inside the root, so any other parentless span would
    add its own duration to the sum.
    """
    root = totals.get(ROOT, {"calls": 0})
    return root["calls"] == 1 and sum(t["self_ns"] for t in totals.values()) == root["wall_ns"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--stdout", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import springerrep

    for info in pkgutil.iter_modules(springerrep.__path__):
        importlib.import_module(f"springerrep.{info.name}")
    cli = sys.modules["springerrep.cli"]

    log, counters = SpanLog(), Counter()
    cached = cached_functions()
    missing = install(log, counters) if opts.mode == "traced" else []
    if "--input" in cli_args:
        counters["jsonio.bytes_in"] = os.path.getsize(cli_args[cli_args.index("--input") + 1])
    before = {name: fn.cache_info() for name, fn in cached.items()}

    saved = sys.stdout
    with open(opts.stdout, "w", encoding="utf-8") as out:
        sys.stdout = out
        try:
            root = log.begin(log.name_id(ROOT))
            start = perf_counter_ns()
            code = cli.main(cli_args)
            wall_ns = perf_counter_ns() - start
            log.finish(root)
        finally:
            sys.stdout = saved

    cache = {}
    for name, fn in cached.items():
        after = fn.cache_info()
        cache[name] = (after.hits - before[name].hits, after.misses - before[name].misses)
    if opts.mode == "traced":
        log.save(opts.spans)
    with open(opts.result, "w", encoding="utf-8") as handle:
        json.dump({"exit": code, "wall_ns": wall_ns, "cache": cache,
                   "counters": dict(counters), "missing": missing}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
