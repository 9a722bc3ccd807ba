"""Self-tests of the benchmark (``python -m pytest bench -q``)."""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import pytest

import repro.assist.circuitry
import repro.circuit
import repro.circuit.oscillator
from repro.em.korhonen import KorhonenSolver

from bench import compare
from bench.clock import ReferenceClock
from bench.layers import TracedPass, merged_counters
from bench.run import (BENCHMARK_PATH, MIN_TIMED_PASSES, Checker, Run,
                       result_line, measure, unit_of)
from bench.trace import Target, Tracer, root_time, self_times, traced
from bench.workloads import TINY, WORKLOADS, PassResult


# -- self times -------------------------------------------------------------


def test_self_times_subtract_only_direct_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6].
    names = ["a", "b", "c", "b"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    own = self_times(names, starts, ends, parents)
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert root_time(starts, ends, parents) == 10.0
    assert sum(own.values()) == root_time(starts, ends, parents)


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.parents == [-1, 0]
    assert self_times(tracer.names, tracer.starts, tracer.ends,
                      tracer.parents) == {"outer": 2.0, "inner": 1.0}
    assert tracer.calls == {"outer": 1, "inner": 1}


# -- wrapping ---------------------------------------------------------------


def test_function_is_wrapped_at_every_binding_and_restored():
    # ``transient`` is imported by name into the package and two
    # other modules besides its own.
    bindings = (sys.modules["repro.circuit.transient"], repro.circuit,
                repro.assist.circuitry, repro.circuit.oscillator)
    original = bindings[0].transient
    assert all(module.transient is original for module in bindings)
    targets = [Target("circuit.transient",
                      "repro.circuit.transient:transient")]
    with traced(Tracer(), targets) as absent:
        assert absent == set()
        inside = {id(module.transient) for module in bindings}
        assert len(inside) == 1 and id(original) not in inside
    assert all(module.transient is original for module in bindings)


def test_method_is_wrapped_traced_and_restored_after_an_error():
    original = vars(KorhonenSolver)["advance"]
    tracer = Tracer()
    targets = [Target("em.korhonen",
                      "repro.em.korhonen:KorhonenSolver.advance")]
    with pytest.raises(RuntimeError):
        with traced(tracer, targets):
            assert vars(KorhonenSolver)["advance"] is not original
            solver = KorhonenSolver(1e-4)
            solver.advance(1.0, 1e-12, 1e10)
            raise RuntimeError("body failed")
    assert vars(KorhonenSolver)["advance"] is original
    assert tracer.calls["em.korhonen"] == 1


def test_missing_targets_are_reported_absent():
    targets = [
        Target("gone.module", "repro.no_such_module:anything"),
        Target("gone.class", "repro.system.aging:NoSuchClass.step"),
        Target("gone.method", "repro.system.aging:FleetEmState.no_method"),
        Target("gone.function", "repro.system.aging:no_such_function"),
        Target("em.korhonen", "repro.em.korhonen:KorhonenSolver.advance"),
    ]
    with traced(Tracer(), targets) as absent:
        assert absent == {"gone.module", "gone.class", "gone.method",
                          "gone.function"}


# -- output checks ----------------------------------------------------------


def _result(summary, digest="d"):
    return PassResult(summary=summary, digest=digest, work={})


def test_checker_requires_repeats_and_the_reference():
    checker = Checker({"x": [1.0, math.inf], "s": "hash"})
    assert checker.problems(_result({"x": [1.0 + 1e-12, math.inf],
                                     "s": "hash"})) == []
    assert checker.problems(_result({"x": [1.0, math.inf], "s": "hash"},
                                    digest="other"))
    assert checker.problems(_result({"x": [1.0 + 1e-6, math.inf],
                                     "s": "hash"}))
    assert checker.problems(_result({"x": [1.0, math.inf], "s": "h2"}))
    assert Checker(None).problems(_result({"x": math.nan}))


# -- comparator -------------------------------------------------------------


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize("change, better, expected", [
    ([v * 0.8 for v in BASE], "lower", "improved"),
    ([v * 1.25 for v in BASE], "higher", "improved"),
    ([v * 1.2 for v in BASE], "lower", "regressed"),
    ([v * 0.8 for v in BASE], "higher", "regressed"),
    ([0.7, 1.3] * 5, "lower", "unresolved"),
    ([v * 1.01 for v in BASE], "lower", "no-regression"),
    (list(BASE), "higher", "no-regression"),
])
def test_comparator_decision_table(change, better, expected):
    assert compare.verdict(BASE, change, better, 0.10)[0] == expected


def test_ties_count_for_neither_side():
    result, wins = compare.verdict(BASE, list(BASE), "lower", 0.10)
    assert (result, wins) == ("no-regression", 0.0)


def _record(pass_s, failed):
    return {"workload": "paper_figures", "attempted": 6, "failed": failed,
            "end_to_end": {"pass_s": pass_s, "setup_s": 1.0,
                           "peak_rss_mb": 100.0, "regen_s": pass_s}}


def test_comparator_flags_a_rising_failure_share():
    base = {"paper_figures": [_record(v, 0) for v in BASE]}
    change = {"paper_figures": [_record(v, 1) for v in BASE]}
    rows, failures_up = compare.compare(base, change)
    assert failures_up == ["paper_figures"]
    # regen_s restates pass_s, so it is shown but not judged again.
    assert {row[1] for row in rows} == {"pass_s", "setup_s", "peak_rss_mb"}
    assert compare.compare(change, base)[1] == []


def test_comparator_flags_crashed_and_missing_runs():
    crashed = {"workload": "paper_figures", "correct": False,
               "error": "exit status 1"}
    base = {"paper_figures": [_record(v, 0) for v in BASE]}
    some_crashed = {"paper_figures": [_record(v, 0) for v in BASE[:8]]
                    + [crashed, crashed]}
    all_crashed = {"paper_figures": [crashed] * 10}
    assert compare.compare(base, some_crashed)[1] == ["paper_figures"]
    assert compare.compare(base, all_crashed) == ([], ["paper_figures"])
    assert compare.compare(base, {})[1] == ["paper_figures"]
    assert compare.compare(some_crashed, base)[1] == []


# -- cache counters of pooled sweeps ----------------------------------------


def _traced_pass(*modes):
    reports = [SimpleNamespace(mode=mode,
                               cache_counters={"c": {"hits": 5}})
               for mode in modes]
    return TracedPass(tracer=None, wall_s=1.0, absent=set(),
                      counters_before={"c": {"hits": 1}},
                      counters_after={"c": {"hits": 3}}, reports=reports)


def test_worker_counters_are_added_only_when_complete():
    assert merged_counters(_traced_pass("serial")) == (
        {"c": {"hits": 2}}, True)
    assert merged_counters(_traced_pass("pool", "fleet+pool")) == (
        {"c": {"hits": 12}}, True)
    assert merged_counters(_traced_pass("pool+serial-fallback"))[1] is False
    assert merged_counters(
        _traced_pass("fleet+pool+serial-fallback"))[1] is False


# -- reference clock --------------------------------------------------------


def test_clock_samples_inside_an_interval_and_leaves_them_out():
    clock = ReferenceClock()
    handler = signal.getsignal(signal.SIGALRM)
    with clock.interval() as measured:
        started, wall_started = clock.now(), time.perf_counter()
        while time.perf_counter() - wall_started < 0.2:
            sum(range(100))
        inner = clock.now() - started
        wall = time.perf_counter() - wall_started
    assert measured.samples >= 5
    assert signal.getsignal(signal.SIGALRM) is handler
    assert inner < wall and measured.wall_s == pytest.approx(inner, abs=0.01)
    assert 0.0 < measured.scale < 10.0
    assert measured.seconds == measured.wall_s * measured.scale


def _busy(seconds):
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        sum(range(100))
    return os.getpid()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="worker samples need fork")
def test_clock_counts_samples_of_forked_pool_workers():
    clock = ReferenceClock()
    context = multiprocessing.get_context("fork")
    with clock.interval() as measured:
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            worker = pool.submit(_busy, 0.3).result()
    assert worker != os.getpid()
    parent_samples = len(clock._speeds) - 2
    assert measured.samples - parent_samples >= 10
    # Outside an interval, a forked process does not sample.
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        pool.submit(_busy, 0.05).result()
    assert clock._workers[:, 1].sum() == measured.samples - parent_samples


# -- workloads and the result line ------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(name):
    run = Run(name, seed=3, size=TINY)
    (measured, first), (_, second) = run.one_pass(), run.one_pass()
    assert run.failed == 0, run.failures
    assert first.digest == second.digest
    for metric in WORKLOADS[name].metrics:
        value = metric.value(second.work,
                             {"pass_s": measured.seconds, **second.parts_s})
        assert math.isfinite(value) and value > 0


def test_benchmark_json_matches_what_a_run_reports():
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["bench/"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    record = measure("design_grid", seed=3, seconds=0.0, trace=True,
                     size=TINY, probes=1)
    assert record["correct"]
    assert record["attempted"] == 1 + MIN_TIMED_PASSES + 1
    for trace, block in ((False, "end_to_end"), (True, "per_layer")):
        line = result_line(record, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in spec[block]]
        for metric in spec[block]:
            assert metric["unit"] == unit_of(metric["name"])
    per_layer = record["per_layer"]
    accounted = sum(value for name, value in per_layer.items()
                    if name.endswith(".s") and not name.startswith("setup."))
    assert accounted == pytest.approx(per_layer["trace.wall_s"])
