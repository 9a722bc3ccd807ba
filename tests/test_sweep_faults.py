"""Fault-injection tests for the crash-safe sweep runner.

The sweep runner (the fleet chunk executor's pool) promises four
things under failure:

* **attribution** -- a task that raises is reported *as that task*
  (``TaskError.task_index`` and ``attempts``, the worker's exception
  chained), never as an anonymous pool crash;
* **bounded retries** -- a flaky task gets up to ``retries``
  re-executions before it counts as failed;
* **recovery** -- a worker death (``BrokenProcessPool``) or an
  unpicklable task/result mid-run degrades to serial re-execution of
  the incomplete tasks with correct, in-order results, and an
  unpicklable function or probe task keeps the whole sweep serial;
* **determinism** -- tasks that seed themselves from
  ``task_seed_sequence`` return byte-identical results to a clean
  serial run after worker death.

Pooled cases force a small pool (``REPRO_SWEEP_TEST_WORKERS``, default
2) so the pooled code path runs even on single-core CI runners;
``run_sweep`` has no task-count gate of its own.
"""

from __future__ import annotations

import os
import threading
from functools import partial

import numpy as np
import pytest

from repro.errors import SimulationError, TaskError
from repro.solvers import (
    FactorizationCache,
    TaskFailure,
    run_sweep,
    task_seed_sequence,
)
from repro.system.scheduler import NoRecoveryPolicy
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import ConstantWorkload

#: Worker count of every pooled case; the CI fault-injection job pins
#: it to 2 so small runners still exercise the pool path.
WORKERS = int(os.environ.get("REPRO_SWEEP_TEST_WORKERS", "2"))

POOL = {"max_workers": WORKERS}


# -- module-level workers (picklable) --------------------------------------


def _double(task):
    return task * 2


def _fail_on(bad, task):
    if task in bad:
        raise ValueError(f"boom on {task}")
    return task * 10


def _seeded_draw(task):
    """Draws from the task's own ``(seed, index)`` stream."""
    seed, index = task
    rng = np.random.default_rng(task_seed_sequence(seed, index))
    return float(rng.normal()) + index


def _flaky(marker_dir, task):
    """Fails the first time each task is attempted, then succeeds."""
    marker = os.path.join(marker_dir, f"{task}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"transient failure on task {task}")
    return task * 3


def _die_in_worker(parent_pid, task):
    if os.getpid() != parent_pid:
        os._exit(1)
    return task * 2


def _seeded_die_in_worker(parent_pid, task):
    if os.getpid() != parent_pid:
        os._exit(1)
    return _seeded_draw(task)


def _type_name(task):
    return type(task).__name__


def _lock_result_on(bad, task):
    if task == bad:
        return threading.Lock()
    return task


class _UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("this exception refuses to pickle")


def _raise_unpicklable(bad, task):
    if task == bad:
        raise _UnpicklableError(f"boom on {task}")
    return task


#: Long-lived named cache, as most of the real ones are (named-cache
#: totals are durable either way, so lifetime only affects ``clear``).
_TEST_CACHE = FactorizationCache(maxsize=64, name="test.sweep.cache")


def _touch_named_cache(task):
    _TEST_CACHE.get_or_build(task, object)
    _TEST_CACHE.get_or_build(task, object)
    return task


def _drive_batched_engine(task):
    # Build, use and drop a batched engine inside the task: its
    # grouped-solve traffic must still reach the chunk telemetry.
    from repro.em.korhonen import KorhonenBatch, KorhonenConfig
    batch = KorhonenBatch(1e-3, 4,
                          KorhonenConfig(n_nodes=21, max_dt_s=10.0))
    batch.advance(20.0, 1e-14, 1e13)
    return task


# -- attribution -----------------------------------------------------------


class TestErrorAttribution:
    def test_pooled_failure_reports_task_index(self):
        fn = partial(_fail_on, frozenset({7}))
        with pytest.raises(TaskError) as excinfo:
            run_sweep(fn, list(range(12)), **POOL)
        error = excinfo.value
        assert error.task_index == 7
        assert error.attempts == 1
        assert isinstance(error.__cause__, ValueError)
        assert "boom on 7" in str(error)

    def test_serial_failure_reports_task_index(self):
        fn = partial(_fail_on, frozenset({2}))
        with pytest.raises(TaskError) as excinfo:
            run_sweep(fn, list(range(5)), max_workers=1)
        assert excinfo.value.task_index == 2
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_unpicklable_exception_still_attributed(self):
        fn = partial(_raise_unpicklable, 5)
        with pytest.raises(TaskError) as excinfo:
            run_sweep(fn, list(range(8)), **POOL)
        error = excinfo.value
        assert error.task_index == 5
        # The exception object could not cross the process boundary,
        # but the worker's traceback text did.
        assert error.__cause__ is None
        assert "worker traceback" in str(error)
        assert "_UnpicklableError" in str(error)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(SimulationError):
            run_sweep(_double, [1, 2], max_workers=-1)
        with pytest.raises(SimulationError):
            run_sweep(_double, [1, 2], retries=-1)


# -- failure collection ----------------------------------------------------


class TestCollectAndSkip:
    """The pooled sweep collects every failed task onto the report and
    skips none of them, even though it raises only for the first."""

    FN = staticmethod(partial(_fail_on, frozenset({2, 5})))

    def test_failures_recorded_on_report(self):
        reports = []
        with pytest.raises(TaskError):
            run_sweep(self.FN, list(range(8)),
                      on_report=reports.append, **POOL)
        (report,) = reports
        assert not report.ok
        assert all(isinstance(f, TaskFailure) for f in report.failures)
        assert [f.task_index for f in report.failures] == [2, 5]
        assert [f.error_type for f in report.failures] == [
            "ValueError", "ValueError"]
        assert sum(chunk.n_failures for chunk in report.chunks) == 2


# -- retries ---------------------------------------------------------------


class TestRetries:
    def test_flaky_tasks_succeed_on_retry(self, tmp_path):
        fn = partial(_flaky, str(tmp_path))
        reports = []
        results = run_sweep(fn, list(range(6)), retries=1,
                            on_report=reports.append, **POOL)
        assert results == [task * 3 for task in range(6)]
        (report,) = reports
        assert report.ok
        assert report.retries == 6  # every task failed exactly once
        assert sum(chunk.retries for chunk in report.chunks) == 6

    def test_exhausted_retries_count_attempts(self):
        fn = partial(_fail_on, frozenset({3}))
        reports = []
        with pytest.raises(TaskError) as excinfo:
            run_sweep(fn, list(range(6)), retries=2,
                      on_report=reports.append, **POOL)
        assert excinfo.value.task_index == 3
        assert excinfo.value.attempts == 3
        (failure,) = reports[0].failures
        assert failure.attempts == 3
        assert failure.error_type == "ValueError"
        assert reports[0].chunks[3].retries == 2


# -- pool breakage recovery ------------------------------------------------


class TestPoolRecovery:
    def test_worker_death_recovers_in_order(self):
        fn = partial(_die_in_worker, os.getpid())
        reports = []
        results = run_sweep(fn, list(range(8)),
                            on_report=reports.append, **POOL)
        assert results == [task * 2 for task in range(8)]
        (report,) = reports
        assert report.mode == "pool+serial-fallback"
        assert report.fallback_reasons
        assert "BrokenProcessPool" in " ".join(report.fallback_reasons)
        assert any(chunk.executed_in == "serial-fallback"
                   for chunk in report.chunks)

    def test_worker_death_keeps_seeded_results_byte_identical(self):
        # Tasks carry their own (seed, index) stream, the way fleet
        # chunks carry their variation seed: serial re-execution after
        # worker death replays the identical draws.
        tasks = [(23, index) for index in range(9)]
        clean = run_sweep(_seeded_draw, tasks, max_workers=1)
        dying = partial(_seeded_die_in_worker, os.getpid())
        recovered = run_sweep(dying, tasks, **POOL)
        assert recovered == clean

    def test_unpicklable_task_mid_list_degrades(self):
        tasks = [0, 1, 2, threading.Lock(), 4, 5, 6, 7]
        reports = []
        results = run_sweep(_type_name, tasks,
                            on_report=reports.append, **POOL)
        assert results == ["int", "int", "int", "lock",
                           "int", "int", "int", "int"]
        (report,) = reports
        assert report.mode == "pool+serial-fallback"
        # Only the task holding the lock degraded; the rest pooled.
        fallbacks = [chunk for chunk in report.chunks
                     if chunk.executed_in == "serial-fallback"]
        assert [chunk.index for chunk in fallbacks] == [3]

    def test_unpicklable_result_degrades(self):
        fn = partial(_lock_result_on, 5)
        results = run_sweep(fn, list(range(8)), **POOL)
        assert results[:5] == [0, 1, 2, 3, 4]
        assert isinstance(results[5], type(threading.Lock()))
        assert results[6:] == [6, 7]

    def test_unpicklable_fn_stays_serial_with_reason(self):
        offset = 10
        reports = []
        results = run_sweep(lambda task: task + offset,
                            list(range(8)), on_report=reports.append,
                            **POOL)
        assert results == [task + 10 for task in range(8)]
        (report,) = reports
        assert report.mode == "serial"
        assert report.serial_reason == "function is not picklable"

    def test_unpicklable_probe_task_stays_serial(self):
        tasks = [threading.Lock(), 1, 2, 3]
        reports = []
        results = run_sweep(_type_name, tasks,
                            on_report=reports.append, **POOL)
        assert results == ["lock", "int", "int", "int"]
        (report,) = reports
        assert report.serial_reason == "probe task is not picklable"


# -- telemetry -------------------------------------------------------------


class TestReportTelemetry:
    def test_clean_pooled_run(self):
        reports = []
        run_sweep(_double, list(range(16)),
                  on_report=reports.append, **POOL)
        (report,) = reports
        assert report.ok
        assert report.mode == "pool"
        assert report.serial_reason is None
        assert not report.fallback_reasons
        assert report.n_tasks == 16 and report.n_chunks == 16
        assert all(chunk.executed_in == "pool"
                   for chunk in report.chunks)
        assert all(chunk.wall_time_s >= 0.0
                   for chunk in report.chunks)
        assert report.wall_time_s > 0.0
        assert "16 tasks" in report.summary()

    def test_chunks_partition_tasks_in_order(self):
        # One record per task, in task order, on both paths.
        for kwargs in ({"max_workers": 1}, dict(POOL)):
            reports = []
            run_sweep(_double, list(range(11)),
                      on_report=reports.append, **kwargs)
            (report,) = reports
            spans = [(chunk.start, chunk.stop)
                     for chunk in report.chunks]
            assert spans == [(task, task + 1) for task in range(11)]

    def test_named_cache_counters_surfaced(self):
        for kwargs in ({"max_workers": 1}, dict(POOL)):
            _TEST_CACHE.clear()  # per-task keys: 1 miss + 1 hit each
            reports = []
            run_sweep(_touch_named_cache, list(range(6)),
                      on_report=reports.append, **kwargs)
            counters = reports[0].cache_counters["test.sweep.cache"]
            assert counters == {"hits": 6, "misses": 6}

    def test_batched_engine_counters_surfaced(self):
        # Two backward-Euler steps of four wires per task: the grouped
        # solves of an engine that lives and dies inside the task must
        # land in the report (with the batched keys alongside the
        # base hit/miss delta).
        for kwargs in ({"max_workers": 1}, dict(POOL)):
            reports = []
            run_sweep(_drive_batched_engine, list(range(3)),
                      on_report=reports.append, **kwargs)
            counters = reports[0].cache_counters[
                "em.korhonen.lu.batched"]
            assert counters["batched_solves"] == 6
            assert counters["batched_rows"] == 24
            assert counters["misses"] == 3

    def test_empty_sweep_reports(self):
        reports = []
        assert run_sweep(_double, [],
                         on_report=reports.append) == []
        (report,) = reports
        assert report.n_tasks == 0 and report.ok

    def test_report_delivered_before_raise(self):
        # Every failed task is on the report, not just the first one,
        # which is the one the TaskError attributes.
        fn = partial(_fail_on, frozenset({1, 3}))
        for kwargs in ({"max_workers": 1}, dict(POOL)):
            reports = []
            with pytest.raises(TaskError) as excinfo:
                run_sweep(fn, list(range(6)),
                          on_report=reports.append, **kwargs)
            assert excinfo.value.task_index == 1
            (report,) = reports
            assert not report.ok
            assert [f.task_index for f in report.failures] == [1, 3]
            assert sum(chunk.n_failures
                       for chunk in report.chunks) == 2


# -- call-site threading ---------------------------------------------------


class TestLifetimeSweepCallSite:
    def test_report_and_policies_threaded_through(self):
        reports = []
        result = run_lifetime_sweep(
            {"none": NoRecoveryPolicy()},
            {"flat": ConstantWorkload(n_cores=4, utilization=0.5)},
            [ChipConfig(2, 2)], n_epochs=3, seed=1, max_workers=1,
            retries=1, on_report=reports.append)
        assert len(result) == 1
        (report,) = reports
        assert report.ok and report.n_tasks == 1
