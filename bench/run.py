"""Benchmark of the springerrep CLI, run from the root of a checkout.

    python3 bench/run.py --workload certify-8 --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each sample runs the real CLI (``python3 -m springerrep.cli``) in a fresh
process, because the package's ``functools.cache`` layers make a warm
second run in one process meaningless.  Samples run one at a time (a
closed loop with one client) until ``--seconds`` is used up, and always at
least once.  Every output is checked (see ``workloads.py``).

``--trace 0`` reports, as medians over the samples of one run:
  wall_s       spawn to exit of the CLI process
  cpu_s        user plus system CPU time of that process (its rusage)
  peak_rss_mb  its peak resident memory
  setup_s      spawn to exit of ``import springerrep.cli; build_parser()``,
               the cost every CLI call pays before any work
and prints failed_ratio (failed over attempted operations) beside them.

``--trace 1`` instead runs the CLI in-process in fresh interpreters
(``traced.py``): once untraced, then twice with every layer wrapped, whatever
``--seconds`` says.  It
reports the per-layer metrics of ``traced.per_layer_names()``: counts must
repeat exactly between the two traced runs and match the untraced run's
cache counters, the self times of the spans must add up to the root span,
and ``trace.overhead_ratio`` is traced over untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a line before it
records the machine and the run.  The exit status is 0 when every check
passed, 1 when one failed, and 2 when there is no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import traced
from spans import SpanLog, totals_by_name
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BUILD = Path(".bench_build")
CLI = [sys.executable, "-m", "springerrep.cli"]
SETUP = [sys.executable, "-c", "import springerrep.cli as cli; cli.build_parser()"]
# set-up is timed a few times before every sample, so that its median spans
# the same stretch of the run as the workload's, and at least SETUP_RUNS times
SETUP_PER_SAMPLE = 3
SETUP_RUNS = 21
TIME_LIMIT_S = 150  # stop sampling well inside the 180 s a run may take

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["SPRINGERREP_THREADS"] = "1"
    return env


def run_process(args: list[str], stdout_path: Path) -> tuple[int, float, float, float]:
    """(exit code, wall s, cpu s, peak rss MB) of one child process."""
    with open(stdout_path, "wb") as out, open(BUILD / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def report_stderr(reason: str) -> None:
    tail = (BUILD / "stderr.txt").read_text(errors="replace")[-2000:]
    print(f"check failed: {reason}\n{tail}", file=sys.stderr)


def build() -> None:
    """Compile the package's bytecode, as an install would, before timing."""
    if not Path("src/springerrep/cli.py").is_file():
        print("error: src/springerrep not found; run from the root of a checkout", file=sys.stderr)
        raise SystemExit(2)
    BUILD.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], check=True,
                   stdout=subprocess.DEVNULL)


def measure(plan, seconds: float) -> dict:
    """Untraced samples of one workload, until the time is used up."""
    out_path = BUILD / "stdout.txt"
    series = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        series["setup_s"] += [run_process(SETUP, out_path)[1] for _ in range(SETUP_PER_SAMPLE)]
        code, wall, cpu, peak = run_process(CLI + plan.argv, out_path)
        tried, bad, reason = plan.check(code, out_path.read_bytes())
        attempted, failed = attempted + tried, failed + bad
        if bad:
            report_stderr(reason)
        series["wall_s"].append(wall)
        series["cpu_s"].append(cpu)
        series["peak_rss_mb"].append(peak)
        elapsed = time.perf_counter() - start
        typical = statistics.median(series["wall_s"])
        if elapsed + typical / 2 >= seconds or elapsed + typical >= TIME_LIMIT_S:
            break
    while len(series["setup_s"]) < SETUP_RUNS:
        series["setup_s"].append(run_process(SETUP, out_path)[1])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "samples": len(series["wall_s"]), "series": series,
            "metrics": {name: {"value": statistics.median(series[name]), "unit": unit}
                        for name, unit in END_TO_END}}


def run_in_process(plan, mode: str, workload: str):
    """One CLI run under traced.py; returns (result, spans or None, attempted, failed)."""
    result_path = BUILD / f"trace-{workload}.result.json"
    spans_path = BUILD / f"trace-{workload}.spans"
    out_path = BUILD / "stdout.txt"
    args = [sys.executable, str(HERE / "traced.py"), "--mode", mode, "--result", str(result_path),
            "--spans", str(spans_path), "--stdout", str(out_path), "--"] + plan.argv
    code = run_process(args, out_path.with_suffix(".runner"))[0]
    if code != 0:
        report_stderr(f"traced.py exited with {code}")
        return None, None, 1, 1
    result = json.loads(result_path.read_text())
    tried, bad, reason = plan.check(result["exit"], out_path.read_bytes())
    if bad:
        report_stderr(reason)
    log = SpanLog.load(spans_path) if mode == "traced" else None
    return result, log, tried, bad


def trace(plan, workload: str) -> dict:
    """Per-layer metrics from one untraced and two traced in-process runs."""
    plain, _, attempted, failed = run_in_process(plan, "plain", workload)
    runs, walls, problems = [], [], []
    for _ in range(2):
        result, log, tried, bad = run_in_process(plan, "traced", workload)
        attempted, failed = attempted + tried, failed + bad
        if result is None or plain is None:
            continue
        if result["missing"]:
            print(f"not traced, no longer defined: {', '.join(result['missing'])}", file=sys.stderr)
        totals = totals_by_name(log)
        del log  # free these spans before the next run's are loaded
        if not traced.self_time_balanced(totals):
            problems.append("self times do not add up to the root span")
        if result["cache"] != plain["cache"]:
            problems.append(f"cache counters differ from the untraced run: "
                            f"{result['cache']} != {plain['cache']}")
        runs.append(traced.layer_values(totals, result))
        walls.append(result["wall_ns"])
    values = {name: 0 for name, _ in traced.per_layer_names()}
    if len(runs) == 2:
        combined, differing = traced.combine(runs)
        if differing:
            problems.append(f"counts differ between traced runs: {', '.join(differing)}")
        values.update(combined)
        values["trace.overhead_ratio"] = statistics.median(walls) / plain["wall_ns"]
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    return {"correct": failed == 0 and not problems and len(runs) == 2,
            "attempted": attempted, "failed": failed, "samples": len(runs),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in traced.per_layer_names()}}


def git_commit() -> str | None:
    if not Path(".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = {"python": platform.python_version(), "platform": platform.platform(),
              "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
              "commit": git_commit(), "seed": args.seed, "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace}
    build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        plan = WORKLOADS[name](args.seed, BUILD)
        results[name] = trace(plan, name) if args.trace else measure(plan, args.seconds)
        res = results[name]
        for metric, entry in res["metrics"].items():
            print(f"{name:<11} {metric:<48} {entry['value']:.6g} {entry['unit']}"
                  if isinstance(entry["value"], float) else
                  f"{name:<11} {metric:<48} {entry['value']} {entry['unit']}")
        for metric, values in res.get("series", {}).items():
            print(f"{name:<11} {metric + ' samples':<48} " + " ".join(f"{v:.4g}" for v in values))
        ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"{name:<11} {'failed_ratio':<48} {ratio:.6g} ratio "
              f"({res['failed']}/{res['attempted']} operations, {res['samples']} samples)")
    record["loadavg_end"] = os.getloadavg()
    print("run record: " + json.dumps(record))

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": entry
                   for name, res in results.items() for metric, entry in res["metrics"].items()}
    final = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values()),
             "metrics": metrics}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
