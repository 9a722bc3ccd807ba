"""Fault-injection tests for the crash-safe sweep runner.

The sweep runner promises three things under failure (PR 5):

* **attribution** -- a task that raises is reported *as that task*
  (``TaskError.task_index``, ``on_error="collect"`` records), never
  as an anonymous pool crash;
* **recovery** -- a worker death (``BrokenProcessPool``) or an
  unpicklable task/result mid-run degrades to chunk-level serial
  re-execution with correct, in-order results;
* **determinism** -- with ``seed`` set, results are byte-identical to
  a clean serial run under every failure / retry scenario, because
  retries and fallbacks re-derive the same per-task seed sequences.

Pooled cases force a small pool (``REPRO_SWEEP_TEST_WORKERS``, default
2) and ``min_tasks_for_pool=1`` so the pooled code path runs even on
single-core CI runners.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial

import numpy as np
import pytest

from repro import units
from repro.analysis.sensitivity import one_at_a_time
from repro.assist.sweeps import sweep_load_size_pooled
from repro.em.statistics import (
    WirePopulationSpec,
    sample_population_ttfs_parallel,
)
from repro.errors import SimulationError, TaskError
from repro.solvers import (
    FactorizationCache,
    SweepReport,
    TaskFailure,
    run_sweep,
)
from repro.system.scheduler import NoRecoveryPolicy
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import ConstantWorkload

#: Worker count of every pooled case; the CI fault-injection job pins
#: it to 2 so small runners still exercise the pool path.
WORKERS = int(os.environ.get("REPRO_SWEEP_TEST_WORKERS", "2"))

#: Force the pool on regardless of task count.
POOL = {"max_workers": WORKERS, "min_tasks_for_pool": 1}


# -- module-level workers (picklable) --------------------------------------


def _double(task):
    return task * 2


def _fail_on(bad, task):
    if task in bad:
        raise ValueError(f"boom on {task}")
    return task * 10


def _seeded_draw(task, seed_sequence):
    rng = np.random.default_rng(seed_sequence)
    return float(rng.normal()) + task


def _flaky(marker_dir, task):
    """Fails the first time each task is attempted, then succeeds."""
    marker = os.path.join(marker_dir, f"{task}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"transient failure on task {task}")
    return task * 3


def _flaky_seeded(marker_dir, task, seed_sequence):
    """Draws from the task stream *before* failing the first attempt,
    so a retry that naively reused the sequence object would differ."""
    rng = np.random.default_rng(seed_sequence)
    value = float(rng.normal()) + task
    marker = os.path.join(marker_dir, f"{task}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"transient failure on task {task}")
    return value


def _die_in_worker(parent_pid, task):
    if os.getpid() != parent_pid:
        os._exit(1)
    return task * 2


def _seeded_die_in_worker(parent_pid, task, seed_sequence):
    if os.getpid() != parent_pid:
        os._exit(1)
    return _seeded_draw(task, seed_sequence)


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


def _noisy_metric(params, seed_sequence=None):
    draw = 0.0
    if seed_sequence is not None:
        draw = float(np.random.default_rng(seed_sequence).normal())
    return params["x"] * 2.0 + 1e-3 * draw


def _fragile_metric(params):
    if params["y"] > 2.0:
        raise ValueError("metric blew up")
    return params["x"] * 2.0


@pytest.fixture()
def no_pool(monkeypatch):
    """Make any pool start-up in run_sweep an immediate failure."""
    import repro.solvers.sweep as sweep_module

    class _Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError(
                "ProcessPoolExecutor must not start here")

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor",
                        _Forbidden)


# -- attribution -----------------------------------------------------------


class TestErrorAttribution:
    def test_pooled_failure_reports_task_index(self):
        fn = partial(_fail_on, frozenset({7}))
        with pytest.raises(TaskError) as excinfo:
            run_sweep(fn, list(range(12)), chunk_size=3, **POOL)
        error = excinfo.value
        assert error.task_index == 7
        assert error.chunk_index == 7 // 3
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
            run_sweep(_double, [1, 2], on_error="explode")
        with pytest.raises(SimulationError):
            run_sweep(_double, [1, 2], retries=-1)


# -- collect / skip policies ----------------------------------------------


class TestCollectAndSkip:
    FN = staticmethod(partial(_fail_on, frozenset({2, 5})))

    def test_collect_preserves_ordering(self):
        results = run_sweep(self.FN, list(range(8)),
                            on_error="collect", **POOL)
        assert len(results) == 8
        for index, result in enumerate(results):
            if index in (2, 5):
                assert isinstance(result, TaskFailure)
                assert result.task_index == index
                assert result.error_type == "ValueError"
            else:
                assert result == index * 10

    def test_skip_omits_failures_in_order(self):
        results = run_sweep(self.FN, list(range(8)),
                            on_error="skip", **POOL)
        assert results == [index * 10 for index in range(8)
                           if index not in (2, 5)]

    def test_failures_recorded_on_report(self):
        reports = []
        run_sweep(self.FN, list(range(8)), on_error="collect",
                  on_report=reports.append, **POOL)
        (report,) = reports
        assert not report.ok
        assert [f.task_index for f in report.failures] == [2, 5]
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

    def test_retry_rederives_identical_seed_stream(self, tmp_path):
        tasks = list(range(10))
        clean = run_sweep(_seeded_draw, tasks, max_workers=1, seed=17)
        flaky = partial(_flaky_seeded, str(tmp_path))
        retried = run_sweep(flaky, tasks, seed=17, retries=1, **POOL)
        assert retried == clean

    def test_exhausted_retries_count_attempts(self):
        fn = partial(_fail_on, frozenset({3}))
        results = run_sweep(fn, list(range(6)), retries=2,
                            on_error="collect", **POOL)
        failure = results[3]
        assert isinstance(failure, TaskFailure)
        assert failure.attempts == 3
        with pytest.raises(TaskError) as excinfo:
            run_sweep(fn, list(range(6)), retries=2, **POOL)
        assert excinfo.value.attempts == 3


# -- pool breakage recovery ------------------------------------------------


class TestPoolRecovery:
    def test_worker_death_recovers_in_order(self):
        fn = partial(_die_in_worker, os.getpid())
        reports = []
        results = run_sweep(fn, list(range(8)), chunk_size=2,
                            on_report=reports.append, **POOL)
        assert results == [task * 2 for task in range(8)]
        (report,) = reports
        assert report.mode == "pool+serial-fallback"
        assert report.fallback_reasons
        assert "BrokenProcessPool" in " ".join(report.fallback_reasons)
        assert any(chunk.executed_in == "serial-fallback"
                   for chunk in report.chunks)

    def test_worker_death_keeps_seeded_results_byte_identical(self):
        tasks = list(range(9))
        clean = run_sweep(_seeded_draw, tasks, max_workers=1, seed=23)
        dying = partial(_seeded_die_in_worker, os.getpid())
        recovered = run_sweep(dying, tasks, seed=23, chunk_size=2,
                              **POOL)
        assert recovered == clean

    def test_unpicklable_task_mid_list_degrades(self):
        tasks = [0, 1, 2, threading.Lock(), 4, 5, 6, 7]
        reports = []
        results = run_sweep(_type_name, tasks, chunk_size=2,
                            on_report=reports.append, **POOL)
        assert results == ["int", "int", "int", "lock",
                           "int", "int", "int", "int"]
        (report,) = reports
        assert report.mode == "pool+serial-fallback"
        # Only the chunk holding the lock degraded; the rest pooled.
        fallbacks = [chunk for chunk in report.chunks
                     if chunk.executed_in == "serial-fallback"]
        assert [chunk.index for chunk in fallbacks] == [1]

    def test_unpicklable_result_degrades(self):
        fn = partial(_lock_result_on, 5)
        results = run_sweep(fn, list(range(8)), chunk_size=2, **POOL)
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
        run_sweep(_double, list(range(16)), chunk_size=4,
                  on_report=reports.append, **POOL)
        (report,) = reports
        assert report.ok
        assert report.mode == "pool"
        assert report.serial_reason is None
        assert not report.fallback_reasons
        assert report.n_tasks == 16 and report.n_chunks == 4
        assert all(chunk.executed_in == "pool"
                   for chunk in report.chunks)
        assert all(chunk.wall_time_s >= 0.0
                   for chunk in report.chunks)
        assert report.wall_time_s > 0.0
        assert "16 tasks" in report.summary()

    def test_chunks_partition_tasks_in_order(self):
        reports = []
        run_sweep(_double, list(range(11)), chunk_size=3,
                  max_workers=1, on_report=reports.append)
        (report,) = reports
        spans = [(chunk.start, chunk.stop) for chunk in report.chunks]
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 11)]

    def test_below_threshold_reason_recorded(self):
        reports = []
        run_sweep(_double, [1, 2, 3], max_workers=8,
                  on_report=reports.append)
        (report,) = reports
        assert report.mode == "serial"
        assert "min_tasks_for_pool" in report.serial_reason

    def test_progress_monotone_to_completion(self):
        for kwargs in ({"max_workers": 1}, dict(POOL)):
            calls = []
            run_sweep(_double, list(range(10)), chunk_size=3,
                      progress=lambda done, total:
                      calls.append((done, total)),
                      **kwargs)
            assert calls[-1] == (10, 10)
            assert [total for _, total in calls] == [10] * len(calls)
            dones = [done for done, _ in calls]
            assert dones == sorted(dones)

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
        reports = []
        fn = partial(_fail_on, frozenset({1}))
        with pytest.raises(TaskError):
            run_sweep(fn, list(range(4)), max_workers=1,
                      on_report=reports.append)
        (report,) = reports
        assert [f.task_index for f in report.failures] == [1]


# -- call-site threading ---------------------------------------------------


class TestSensitivityCallSite:
    BASELINE = {"x": 1.0, "y": 2.0}
    SPANS = {"x": (0.5, 1.5), "y": (1.0, 3.0)}

    def test_threshold_forwarded_keeps_small_studies_serial(
            self, no_pool):
        results = one_at_a_time(_noisy_metric, self.BASELINE,
                                self.SPANS, max_workers=8,
                                min_tasks_for_pool=99)
        assert len(results) == 2

    def test_seed_passthrough_is_deterministic(self):
        first = one_at_a_time(_noisy_metric, self.BASELINE,
                              self.SPANS, seed=3)
        again = one_at_a_time(_noisy_metric, self.BASELINE,
                              self.SPANS, seed=3)
        assert first == again
        # The sequences actually reached the metric: the noise term
        # shifts the result away from the noiseless evaluation.
        noiseless = one_at_a_time(_noisy_metric, self.BASELINE,
                                  self.SPANS)
        assert first != noiseless

    def test_collect_records_nan_for_failed_cells(self):
        reports = []
        results = one_at_a_time(_fragile_metric, self.BASELINE,
                                self.SPANS, on_error="collect",
                                on_report=reports.append)
        by_name = {result.parameter: result for result in results}
        assert math.isnan(by_name["y"].high_metric)  # x stays 1 -> ok
        assert by_name["x"].low_metric == 1.0
        assert len(reports[0].failures) == 1

    def test_skip_policy_rejected(self):
        with pytest.raises(SimulationError):
            one_at_a_time(_noisy_metric, self.BASELINE, self.SPANS,
                          on_error="skip")


class TestStatisticsCallSite:
    SPEC = WirePopulationSpec(n_wires=16,
                              median_ttf_s=units.years(20.0),
                              sigma=0.4)

    def test_report_threaded_through(self):
        reports = []
        ttfs = sample_population_ttfs_parallel(
            self.SPEC, n_chips=100, seed=5, chunk_chips=32,
            max_workers=1, on_report=reports.append)
        assert ttfs.shape == (100,)
        (report,) = reports
        assert report.n_tasks == 4  # ceil(100 / 32) chunks

    def test_failed_chunks_dropped_from_population(self, monkeypatch):
        import repro.em.statistics as statistics_module

        clean = sample_population_ttfs_parallel(
            self.SPEC, n_chips=100, seed=5, chunk_chips=32,
            max_workers=1)
        original = statistics_module._sample_chip_chunk

        def fragile(task, seed_sequence):
            if task[1] < 32:  # the 4-chip remainder chunk
                raise RuntimeError("chunk lost")
            return original(task, seed_sequence)

        monkeypatch.setattr(statistics_module, "_sample_chip_chunk",
                            fragile)
        reports = []
        ttfs = sample_population_ttfs_parallel(
            self.SPEC, n_chips=100, seed=5, chunk_chips=32,
            max_workers=1, on_error="collect",
            on_report=reports.append)
        assert ttfs.shape == (96,)
        assert [f.task_index for f in reports[0].failures] == [3]
        # The surviving chips are the clean run's, byte for byte.
        assert np.array_equal(ttfs, clean[:96])


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


class TestAssistCallSite:
    def test_report_threaded_through(self):
        reports = []
        points = sweep_load_size_pooled(
            (1, 2), max_workers=1, on_report=reports.append)
        assert len(points) == 2
        assert points[0].delay_normalized == 1.0
        (report,) = reports
        assert report.ok and report.n_tasks == 2
