"""Fault-injection tests for the fleet chunk loop.

Every chunk a fleet study executes runs through one attempt wrapper,
in a pool worker or in-process, so the loop promises the same four
things under failure at every worker count:

* **attribution** -- a chunk that raises is reported *as that chunk*
  (``TaskError.task_index`` is its global index, ``attempts`` its
  executions, the original exception chained), never as an anonymous
  pool crash;
* **bounded retries** -- a flaky chunk gets up to ``retries``
  re-executions before it counts as failed, and a failed chunk does
  not stop the others;
* **recovery** -- a worker death (``BrokenProcessPool``) or a chunk
  whose task or result fails to pickle degrades to in-process
  re-execution of just the chunks the pool did not finish, and an
  unpicklable first chunk keeps the whole study serial;
* **determinism** -- recovered and retried runs merge byte-identically
  to a clean serial run (variation draws are by global chip index).

Pooled cases force a small pool (``REPRO_SWEEP_TEST_WORKERS``, default
2), lower ``MIN_CORE_EPOCHS_FOR_POOL`` to 0 and report that many
available CPUs, so the pooled path runs, and cuts the same chunks, on
any CI runner.  Faults are injected by patching
``repro.system.fleet._execute_chunk``, the chunk body the parent and
the forked workers share.
"""

from __future__ import annotations

import os
import threading
from functools import partial

import pytest

import repro.system.fleet as fleet_module
from repro.errors import SimulationError, TaskError
from repro.solvers import FactorizationCache, TaskFailure
from repro.system.fleet import (
    FleetGroup,
    FleetVariationSpec,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import ConstantWorkload, DiurnalWorkload

#: Worker count of every pooled case; the CI fault-injection job pins
#: it to 2 so small runners still exercise the pool path.
WORKERS = int(os.environ.get("REPRO_SWEEP_TEST_WORKERS", "2"))

POOL = {"max_workers": WORKERS}
SERIAL = {"max_workers": 1}

N_CORES = 4  # 2x2 grid
N_CHUNKS = 4  # two groups of four chips, two chips per chunk

RESULT_ARRAYS = (
    "times_s", "worst_degradation", "mean_degradation",
    "dropped_demand", "final_delta_vth_v", "final_permanent_vth_v",
    "final_em_drift_ohm", "em_failures", "migration_events",
    "total_demand", "total_dropped_demand")


def make_groups(first=None, second=None):
    """Group 0 owns chunks 0-1, group 1 chunks 2-3."""
    return (
        FleetGroup(n_chips=4,
                   workload=ConstantWorkload(n_cores=N_CORES,
                                             utilization=0.6),
                   policy=first or RoundRobinRecoveryPolicy(
                       recovery_slots=1)),
        FleetGroup(n_chips=4,
                   workload=DiurnalWorkload(n_cores=N_CORES,
                                            period_epochs=4),
                   policy=second or NoRecoveryPolicy()),
    )


def run_study(groups=None, **overrides):
    return run_fleet_lifetime_study(
        (2, 2), groups=groups or make_groups(), n_epochs=3,
        variation=FleetVariationSpec(capture_sigma=0.1,
                                     recovery_sigma=0.05,
                                     em_current_sigma=0.1),
        seed=5, max_chunk_chips=2, **overrides)


def assert_same_bytes(a, b):
    for name in RESULT_ARRAYS:
        assert getattr(a, name).tobytes() == \
            getattr(b, name).tobytes(), name


@pytest.fixture(autouse=True)
def open_pool(monkeypatch):
    """Drop the work gate so the small study pools, on ``WORKERS``
    CPUs whatever the host has."""
    monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
    monkeypatch.setattr(fleet_module, "available_cpus", lambda: WORKERS)


@pytest.fixture()
def serial_baseline():
    return run_study(**SERIAL)


@pytest.fixture()
def patch_chunk(monkeypatch):
    """Install ``body(real, *args, built, task)`` as the chunk body."""
    real = fleet_module._execute_chunk

    def install(body, *args):
        monkeypatch.setattr(fleet_module, "_execute_chunk",
                            partial(body, real, *args))

    return install


# -- chunk bodies (module level, inherited by forked workers) --------------


def _fail_on(real, bad, built, task):
    if task.chunk.index in bad:
        raise ValueError(f"boom on chunk {task.chunk.index}")
    return real(built, task)


def _flaky(real, marker_dir, built, task):
    """Fails the first attempt of each chunk, then succeeds."""
    marker = os.path.join(marker_dir, f"{task.chunk.index}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(
            f"transient failure on chunk {task.chunk.index}")
    return real(built, task)


def _die_in_worker_on(real, parent_pid, bad, built, task):
    if task.chunk.index == bad and os.getpid() != parent_pid:
        os._exit(1)
    return real(built, task)


def _die_in_workers_fail_on(real, parent_pid, bad, built, task):
    """Every worker dies; the parent fails the chunks in ``bad``."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return _fail_on(real, bad, built, task)


def _lock_result_in_worker_on(real, parent_pid, bad, built, task):
    result = real(built, task)
    if task.chunk.index == bad and os.getpid() != parent_pid:
        return threading.Lock()
    return result


class _UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("this exception refuses to pickle")


def _raise_unpicklable(real, bad, built, task):
    if task.chunk.index == bad:
        raise _UnpicklableError(f"boom on chunk {task.chunk.index}")
    return real(built, task)


#: Long-lived named cache, as most of the real ones are (named-cache
#: totals are durable either way, so lifetime only affects ``clear``).
_TEST_CACHE = FactorizationCache(maxsize=64, name="test.sweep.cache")


def _touch_named_cache(real, built, task):
    _TEST_CACHE.get_or_build(task.chunk.index, object)
    _TEST_CACHE.get_or_build(task.chunk.index, object)
    return real(built, task)


# -- attribution -----------------------------------------------------------


class TestErrorAttribution:
    def test_pooled_failure_reports_task_index(self, patch_chunk):
        patch_chunk(_fail_on, frozenset({2}))
        with pytest.raises(TaskError) as excinfo:
            run_study(**POOL)
        error = excinfo.value
        assert error.task_index == 2
        assert error.attempts == 1
        assert isinstance(error.__cause__, ValueError)
        assert "boom on chunk 2" in str(error)

    def test_serial_failure_reports_task_index(self, patch_chunk):
        patch_chunk(_fail_on, frozenset({2}))
        with pytest.raises(TaskError) as excinfo:
            run_study(**SERIAL)
        assert excinfo.value.task_index == 2
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_unpicklable_exception_still_attributed(self, patch_chunk):
        patch_chunk(_raise_unpicklable, 3)
        with pytest.raises(TaskError) as excinfo:
            run_study(**POOL)
        error = excinfo.value
        assert error.task_index == 3
        # The exception object could not cross the process boundary,
        # but the worker's traceback text did.
        assert error.__cause__ is None
        assert "worker traceback" in str(error)
        assert "_UnpicklableError" in str(error)

    def test_invalid_knobs_rejected(self):
        # The grid call site forwards the knobs to the one loop, which
        # refuses them before any chunk runs.
        def sweep(**knobs):
            run_lifetime_sweep(
                {"none": NoRecoveryPolicy()},
                {"flat": ConstantWorkload(n_cores=N_CORES,
                                          utilization=0.5)},
                [ChipConfig(2, 2)], n_epochs=2, **knobs)

        with pytest.raises(SimulationError):
            sweep(max_workers=-1)
        with pytest.raises(SimulationError):
            sweep(retries=-1)


# -- failure collection ----------------------------------------------------


class TestCollectAndSkip:
    """The study runs every chunk and collects every failure onto the
    report, even though it raises only for the first."""

    def test_failures_recorded_on_report(self, patch_chunk):
        patch_chunk(_fail_on, frozenset({1, 3}))
        reports = []
        with pytest.raises(TaskError):
            run_study(on_report=reports.append, **POOL)
        (report,) = reports
        assert not report.ok
        assert all(isinstance(f, TaskFailure) for f in report.failures)
        assert [f.task_index for f in report.failures] == [1, 3]
        assert [f.error_type for f in report.failures] == [
            "ValueError", "ValueError"]
        assert [chunk.n_failures for chunk in report.chunks] == \
            [0, 1, 0, 1]
        assert report.cache_counters["fleet.engine"]["chunks"] == 2


# -- retries ---------------------------------------------------------------


class TestRetries:
    def test_flaky_tasks_succeed_on_retry(self, tmp_path, patch_chunk,
                                          serial_baseline):
        patch_chunk(_flaky, str(tmp_path))
        reports = []
        result = run_study(retries=1, on_report=reports.append, **POOL)
        assert_same_bytes(serial_baseline, result)
        (report,) = reports
        assert report.ok
        assert report.retries == N_CHUNKS  # every chunk failed once
        assert [chunk.retries for chunk in report.chunks] == \
            [1] * N_CHUNKS

    def test_exhausted_retries_count_attempts(self, patch_chunk):
        patch_chunk(_fail_on, frozenset({3}))
        reports = []
        with pytest.raises(TaskError) as excinfo:
            run_study(retries=2, on_report=reports.append, **POOL)
        assert excinfo.value.task_index == 3
        assert excinfo.value.attempts == 3
        (failure,) = reports[0].failures
        assert failure.attempts == 3
        assert failure.error_type == "ValueError"
        assert reports[0].chunks[3].retries == 2


# -- pool breakage recovery ------------------------------------------------


class TestPoolRecovery:
    def test_worker_death_recovers_in_order(self, patch_chunk):
        # Every worker dies; the chunks re-run in-process, where chunk
        # 2 still fails and is still attributed as chunk 2.
        patch_chunk(_die_in_workers_fail_on, os.getpid(),
                    frozenset({2}))
        reports = []
        with pytest.raises(TaskError) as excinfo:
            run_study(on_report=reports.append, **POOL)
        assert excinfo.value.task_index == 2
        (report,) = reports
        assert report.mode == "fleet+pool+serial-fallback"
        assert "BrokenProcessPool" in " ".join(report.fallback_reasons)
        assert [chunk.executed_in for chunk in report.chunks] == \
            ["serial-fallback"] * N_CHUNKS
        assert [f.task_index for f in report.failures] == [2]

    def test_worker_death_keeps_seeded_results_byte_identical(
            self, patch_chunk, serial_baseline):
        # Only the worker running chunk 2 dies: whatever the pool did
        # not finish re-runs in-process with the identical draws.
        patch_chunk(_die_in_worker_on, os.getpid(), 2)
        reports = []
        recovered = run_study(on_report=reports.append, **POOL)
        assert_same_bytes(serial_baseline, recovered)
        (report,) = reports
        assert report.mode == "fleet+pool+serial-fallback"
        assert report.chunks[2].executed_in == "serial-fallback"

    def test_unpicklable_task_mid_list_degrades(self, serial_baseline):
        # A lambda policy factory in the second group: chunks 0-1
        # pool, and only that group's chunks 2-3 fail to pickle and
        # run in-process.
        groups = make_groups(second=lambda chip: NoRecoveryPolicy())
        reports = []
        result = run_study(groups, on_report=reports.append, **POOL)
        assert_same_bytes(serial_baseline, result)
        (report,) = reports
        assert report.mode == "fleet+pool+serial-fallback"
        assert [chunk.executed_in for chunk in report.chunks] == \
            ["pool", "pool", "serial-fallback", "serial-fallback"]

    def test_unpicklable_result_degrades(self, patch_chunk,
                                         serial_baseline):
        patch_chunk(_lock_result_in_worker_on, os.getpid(), 1)
        reports = []
        result = run_study(on_report=reports.append, **POOL)
        assert_same_bytes(serial_baseline, result)
        (report,) = reports
        assert [chunk.executed_in for chunk in report.chunks] == \
            ["pool", "serial-fallback", "pool", "pool"]

    def test_unpicklable_fn_stays_serial_with_reason(
            self, serial_baseline):
        # A lambda policy factory in the first group fails the probe
        # pickle of chunk 0, so no pool starts.
        groups = make_groups(
            first=lambda chip: RoundRobinRecoveryPolicy(
                recovery_slots=1))
        reports = []
        result = run_study(groups, on_report=reports.append, **POOL)
        assert_same_bytes(serial_baseline, result)
        (report,) = reports
        assert report.mode == "fleet"
        assert report.serial_reason == "probe task is not picklable"

    def test_unpicklable_probe_task_stays_serial(self, serial_baseline):
        # A policy *instance* of a local class deep-copies fine but
        # cannot pickle: the probe keeps the study in-process too.
        class LocalPolicy(RoundRobinRecoveryPolicy):
            pass

        groups = make_groups(first=LocalPolicy(recovery_slots=1))
        reports = []
        result = run_study(groups, on_report=reports.append, **POOL)
        assert_same_bytes(serial_baseline, result)
        (report,) = reports
        assert report.serial_reason == "probe task is not picklable"
        assert all(chunk.executed_in == "serial"
                   for chunk in report.chunks)


# -- telemetry -------------------------------------------------------------


class TestReportTelemetry:
    def test_clean_pooled_run(self):
        reports = []
        run_study(on_report=reports.append, **POOL)
        (report,) = reports
        assert report.ok
        assert report.mode == "fleet+pool"
        assert report.serial_reason is None
        assert not report.fallback_reasons
        assert report.n_chunks == N_CHUNKS
        assert all(chunk.executed_in == "pool"
                   for chunk in report.chunks)
        assert all(chunk.wall_time_s >= 0.0
                   for chunk in report.chunks)
        assert report.wall_time_s > 0.0
        assert report.summary().startswith(f"{N_CHUNKS} chunks ")

    def test_chunks_partition_tasks_in_order(self):
        # One record per chunk, in chunk order, on both paths.
        for kwargs in (SERIAL, POOL):
            reports = []
            run_study(on_report=reports.append, **kwargs)
            (report,) = reports
            assert [chunk.index for chunk in report.chunks] == \
                list(range(N_CHUNKS))

    def test_named_cache_counters_surfaced(self, patch_chunk):
        patch_chunk(_touch_named_cache)
        for kwargs in (SERIAL, POOL):
            _TEST_CACHE.clear()  # per-chunk keys: 1 miss + 1 hit each
            reports = []
            run_study(on_report=reports.append, **kwargs)
            counters = reports[0].cache_counters
            assert counters["test.sweep.cache"] == {
                "hits": N_CHUNKS, "misses": N_CHUNKS}
            assert counters["fleet.engine"]["chunks"] == N_CHUNKS

    def test_report_delivered_before_raise(self, patch_chunk):
        # Every failed chunk is on the report, not just the first one,
        # which is the one the TaskError attributes.
        patch_chunk(_fail_on, frozenset({1, 3}))
        for kwargs in (SERIAL, POOL):
            reports = []
            with pytest.raises(TaskError) as excinfo:
                run_study(on_report=reports.append, **kwargs)
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
        assert report.ok and report.n_chunks == 1
