"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
from array import array
from pathlib import Path

import pytest

import run
import traced
import workloads
from spans import SpanLog, self_times, totals_by_name


def ticking(times):
    """A fake clock returning the given readings in order."""
    readings = iter(times)
    return lambda: next(readings)


def synthetic_tree() -> SpanLog:
    # root [0,100] > a [10,60] > a [20,40] > b [25,30]; a > b [45,50]; root > c [70,90]
    log = SpanLog(clock=ticking([0, 10, 20, 25, 30, 40, 45, 50, 60, 70, 90, 100]))
    root, a, b, c = (log.name_id(n) for n in (traced.ROOT, "a", "b", "c"))
    r = log.begin(root)
    outer = log.begin(a)
    inner = log.begin(a)
    log.finish(log.begin(b))
    log.finish(inner)
    log.finish(log.begin(b))
    log.finish(outer)
    log.finish(log.begin(c))
    log.finish(r)
    return log


def test_self_time_of_nested_and_recursive_spans():
    log = synthetic_tree()
    assert list(log.parent) == [-1, 0, 1, 2, 1, 0]
    assert list(self_times(log.parent, log.start, log.end)) == [30, 25, 15, 5, 5, 20]
    assert totals_by_name(log) == {
        traced.ROOT: {"calls": 1, "self_ns": 30, "wall_ns": 100},
        "a": {"calls": 2, "self_ns": 40, "wall_ns": 70},
        "b": {"calls": 2, "self_ns": 10, "wall_ns": 10},
        "c": {"calls": 1, "self_ns": 20, "wall_ns": 20},
    }
    assert traced.self_time_balanced(totals_by_name(log))


def test_a_second_root_unbalances_the_self_times():
    log = synthetic_tree()
    log.clock = ticking([100, 101])
    log.finish(log.begin(log.name_id("c")))
    assert not traced.self_time_balanced(totals_by_name(log))


def test_self_times_of_flat_columns():
    parent, start, end = array("q", [-1, 0, 0]), array("q", [0, 1, 5]), array("q", [10, 4, 9])
    assert list(self_times(parent, start, end)) == [3, 3, 4]


def test_wrapped_recursion_records_one_span_per_call():
    log = SpanLog(clock=ticking(range(100)))
    calls = []

    def factorial(n):
        return 1 if n <= 1 else n * traced_factorial(n - 1)

    traced_factorial = log.wrap(factorial, "factorial",
                                after=lambda args, result: calls.append((args, result)))
    assert traced_factorial(4) == 24
    assert list(log.parent) == [-1, 0, 1, 2]
    assert calls == [((1,), 1), ((2,), 2), ((3,), 6), ((4,), 24)]
    totals = totals_by_name(log)["factorial"]
    assert totals["calls"] == 4 and totals["self_ns"] == log.end[0] - log.start[0]


def test_span_closes_when_the_call_raises():
    log = SpanLog(clock=ticking(range(10)))

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        log.wrap(fail, "fail")()
    assert list(log.start) == [0] and list(log.end) == [1] and log._open == []


def test_out_of_order_finish_is_refused():
    log = SpanLog(clock=ticking(range(10)))
    first = log.begin(log.name_id("x"))
    log.begin(log.name_id("y"))
    with pytest.raises(RuntimeError):
        log.finish(first)


def test_save_and_load_round_trip(tmp_path):
    log = synthetic_tree()
    log.save(tmp_path / "spans")
    loaded = SpanLog.load(tmp_path / "spans")
    assert loaded.names == log.names
    for column in ("name", "parent", "start", "end"):
        assert getattr(loaded, column) == getattr(log, column)


@pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (8, 2), (8, 3)])
def test_line_diagram_oracle_agrees_with_rewriting(n, k):
    from springerrep import jsonio
    from springerrep.formal import FormalSum
    from springerrep.matchings import DottedMatching
    from springerrep.rewriting import reduce_to_standard

    rng = random.Random(f"{n}:{k}")
    terms = [(rng.choice((-3, -2, -1, 1, 2, 3)), arcs, dotted)
             for arcs, dotted in workloads.degree_matchings(n, k)]
    expected = reduce_to_standard(FormalSum(
        (DottedMatching.make(n, arcs, dotted), coef) for coef, arcs, dotted in terms))
    oracle = workloads.normal_form(terms, n, k)
    assert workloads.sum_json(oracle, n) == jsonio.dumps(jsonio.matching_sum_to_obj(expected))


def test_rewrite_input_depends_on_the_seed_only_in_order_and_coefficients():
    first, second = workloads.rewrite_input(1), workloads.rewrite_input(2)
    assert len(first) == 15015 and first != second
    assert sorted(t[1:] for t in first) == sorted(t[1:] for t in second)
    assert workloads.rewrite_input(1) == first


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == traced.per_layer_names()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
