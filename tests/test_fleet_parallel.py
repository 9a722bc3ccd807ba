"""Parallel chunk execution of the fleet engine.

The chunk executor promises (ISSUE 9 / PR 9):

* **determinism** -- a pooled run merges bitwise-identically to the
  serial chunk stream for every worker count and completion order
  (chunk boundaries come from one ``chunk_tasks`` partition, and
  variation draws are by global chip index);
* **crash safety** -- a worker killed mid-fleet degrades to
  chunk-level serial re-execution with identical results, via
  ``run_sweep``'s recovery machinery;
* **a work-aware serial gate** -- small fleets and single-chunk runs
  never pay pool spawn overhead;
* **aggregated telemetry** -- the ``SweepReport`` sums every worker's
  named-cache counters (``bti.fleet.kernels``, ``fleet.engine``,
  thermal/condition memos), not just the parent's.

Pooled cases force a small pool (``REPRO_SWEEP_TEST_WORKERS``, default
2) and ``min_chunks_for_pool=1`` so the pooled code path runs even on
single-core CI runners; the fault hooks ``_TEST_STAGGER_S`` /
``_TEST_DIE_UNLESS_PID`` are module globals of ``repro.system.fleet``,
inherited by forked workers, mirroring tests/test_sweep_faults.py.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.system.fleet as fleet_module
from repro.errors import SimulationError
from repro.system.fleet import (
    FleetGroup,
    FleetVariationSpec,
    _merge_fleet_results,
    _run_fleet_chunk,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.workload import ConstantWorkload, DiurnalWorkload

#: Worker count of every pooled case; the CI fault-injection job pins
#: it to 2 so small runners still exercise the pool path.
WORKERS = int(os.environ.get("REPRO_SWEEP_TEST_WORKERS", "2"))

N_CORES = 9
N_CHIPS = 14
N_EPOCHS = 5
CHUNK_CHIPS = 4  # -> ceil(14 / 4) = 4 chunks

RESULT_ARRAYS = (
    "times_s", "worst_degradation", "mean_degradation",
    "dropped_demand", "final_delta_vth_v", "final_permanent_vth_v",
    "final_em_drift_ohm", "em_failures", "migration_events",
    "total_demand", "total_dropped_demand")
VARIATION_ARRAYS = ("capture_scale", "recovery_scale",
                    "em_current_scale")


def hetero_groups():
    return (
        FleetGroup(n_chips=8,
                   workload=ConstantWorkload(n_cores=N_CORES,
                                             utilization=0.6),
                   policy=RoundRobinRecoveryPolicy(
                       recovery_slots=3, em_alternate_every=2),
                   phases=(0, 0, 1, 1, 2, 2, 0, 1),
                   name="rotating"),
        FleetGroup(n_chips=6,
                   workload=DiurnalWorkload(n_cores=N_CORES,
                                            period_epochs=4),
                   policy=NoRecoveryPolicy(),
                   name="control"),
    )


def run_study(**overrides):
    kwargs = dict(
        n_epochs=N_EPOCHS, record_every=2,
        variation=FleetVariationSpec(capture_sigma=0.1,
                                     recovery_sigma=0.05,
                                     em_current_sigma=0.1),
        seed=11, max_chunk_chips=CHUNK_CHIPS)
    kwargs.update(overrides)
    return run_fleet_lifetime_study((3, 3), groups=hetero_groups(),
                                    **kwargs)


def assert_bitwise_equal(a, b):
    for field in RESULT_ARRAYS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field
    for field in VARIATION_ARRAYS:
        assert np.array_equal(getattr(a.variation, field),
                              getattr(b.variation, field)), field
    assert a.n_epochs == b.n_epochs


@pytest.fixture()
def serial_baseline():
    return run_study(max_workers=1)


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


# -- determinism -----------------------------------------------------------


class TestParallelDeterminism:
    def test_bitwise_equal_across_worker_counts(self,
                                                serial_baseline):
        for workers in (1, 2, 4):
            reports = []
            pooled = run_study(max_workers=workers,
                               min_chunks_for_pool=1,
                               on_report=reports.append)
            assert_bitwise_equal(serial_baseline, pooled)
            (report,) = reports
            assert report.n_chunks == 4
            if workers == 1:
                assert report.mode == "fleet"
                assert report.serial_reason == "max_workers <= 1"
            else:
                assert report.mode == "fleet+pool"
                assert all(chunk.executed_in == "pool"
                           for chunk in report.chunks)

    def test_out_of_order_completion_bitwise(self, monkeypatch,
                                             serial_baseline):
        # Later chunks finish first: chunk k sleeps proportionally to
        # (n_chunks - 1 - k) inside the worker, so the scatter order
        # reverses while the merged rows must not.
        monkeypatch.setattr(fleet_module, "_TEST_STAGGER_S", 0.05)
        reports = []
        pooled = run_study(max_workers=WORKERS,
                           min_chunks_for_pool=1,
                           on_report=reports.append)
        assert_bitwise_equal(serial_baseline, pooled)
        assert reports[0].mode == "fleet+pool"

    def test_scatter_order_independent_of_chunk_order(
            self, serial_baseline):
        # Run the chunk tasks in reverse order in-process: each chunk
        # is whole-lifetime and independent, so merging the returned
        # results by chunk index gives the serial population, row for
        # row.
        from repro.solvers.sweep import chunk_tasks
        from repro.system.sweeps import ChipConfig
        tasks = chunk_tasks(N_CHIPS, CHUNK_CHIPS)
        parts = {}
        for task in reversed(tasks):
            parts[task.index] = _run_fleet_chunk(
                fleet_module._FleetChunkTask(
                    chunk=task, n_chunks=len(tasks),
                    chip=ChipConfig(3, 3),
                    groups=fleet_module._slice_groups(
                        hetero_groups(), task.start, task.stop),
                    n_epochs=N_EPOCHS, epoch_s=3600.0,
                    record_every=2,
                    variation=FleetVariationSpec(
                        capture_sigma=0.1, recovery_sigma=0.05,
                        em_current_sigma=0.1),
                    seed=11, calibration=None, em_reference=None,
                    state_dtype="<f8"))
        merged = _merge_fleet_results(
            [parts[task.index] for task in tasks])
        assert_bitwise_equal(serial_baseline, merged)


# -- crash safety ----------------------------------------------------------


class TestWorkerDeathRecovery:
    def test_worker_death_recovers_bitwise(self, monkeypatch,
                                           serial_baseline):
        # Every forked worker kills itself on its first chunk; the
        # parent (whose pid matches) survives, and run_sweep re-runs
        # all chunks serially in-process -- same rows, same bytes.
        monkeypatch.setattr(fleet_module, "_TEST_DIE_UNLESS_PID",
                            os.getpid())
        reports = []
        recovered = run_study(max_workers=WORKERS,
                              min_chunks_for_pool=1,
                              on_report=reports.append)
        assert_bitwise_equal(serial_baseline, recovered)
        (report,) = reports
        assert report.mode == "fleet+pool+serial-fallback"
        assert report.fallback_reasons
        assert any(chunk.executed_in == "serial-fallback"
                   for chunk in report.chunks)

    def test_failed_chunk_reports_before_raise(self, monkeypatch):
        def explode(task):
            raise RuntimeError("chunk lost")

        monkeypatch.setattr(fleet_module, "_run_fleet_chunk",
                            explode)
        reports = []
        from repro.errors import TaskError
        with pytest.raises(TaskError):
            run_study(max_workers=WORKERS, min_chunks_for_pool=1,
                      on_report=reports.append)
        (report,) = reports
        assert not report.ok
        assert report.mode in ("fleet+pool",
                               "fleet+pool+serial-fallback", "fleet")


# -- the serial gate -------------------------------------------------------


class TestSerialGate:
    def test_small_fleet_never_pools(self, no_pool):
        # 14 chips x 9 cores x 5 epochs = 630 core-epochs, far below
        # MIN_CORE_EPOCHS_FOR_POOL: even with workers requested, the
        # stream stays serial and no pool is ever constructed.
        reports = []
        run_study(max_workers=4, on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet"
        assert "core-epochs below pool threshold" \
            in report.serial_reason

    def test_single_chunk_stays_serial(self, no_pool):
        reports = []
        run_study(max_workers=4, min_chunks_for_pool=1,
                  max_chunk_chips=None, on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet"
        assert report.serial_reason == "single chunk"
        assert report.n_chunks == 1

    def test_explicit_threshold_respected(self, no_pool):
        reports = []
        run_study(max_workers=4, min_chunks_for_pool=99,
                  on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet"
        assert "min_chunks_for_pool=99" in report.serial_reason

    def test_serial_report_covers_every_chunk(self):
        reports = []
        run_study(max_workers=1, on_report=reports.append)
        (report,) = reports
        assert report.n_chunks == 4
        assert all(chunk.executed_in == "serial"
                   for chunk in report.chunks)
        assert all(chunk.wall_time_s >= 0.0
                   for chunk in report.chunks)

    def test_default_pool_size_follows_cpu_affinity(self, monkeypatch,
                                                    no_pool):
        # A runner pinned to one CPU must not pool by default, however
        # many CPUs the host reports.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        reports = []
        run_study(min_chunks_for_pool=1, on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet"
        assert report.max_workers == 1
        assert report.serial_reason == "max_workers <= 1"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(SimulationError):
            run_study(max_workers=-1)
        with pytest.raises(SimulationError):
            run_study(retries=-1)
        with pytest.raises(SimulationError):
            run_study(max_workers=4, min_chunks_for_pool=0)


# -- aggregated telemetry --------------------------------------------------


class TestCounterAggregation:
    def test_fleet_counters_sum_across_workers(self):
        reports = []
        run_study(max_workers=WORKERS, min_chunks_for_pool=1,
                  on_report=reports.append)
        counters = reports[0].cache_counters
        engine = counters["fleet.engine"]
        # Worker-side run_groups counters survive the process
        # boundary and sum to the population, and the parent's chunk
        # count is folded in.
        assert engine["chips"] == N_CHIPS
        assert engine["epochs"] == 4 * N_EPOCHS  # per-chunk epochs
        assert engine["chunks"] == 4
        kernels = counters["bti.fleet.kernels"]
        assert kernels["kernel_builds"] >= 4
        assert kernels["dedup_rows_in"] > 0
        assert "fleet.conditions" in counters
        assert "thermal.steady" in counters

    def test_serial_stream_reports_same_counter_names(self):
        reports = []
        run_study(max_workers=1, on_report=reports.append)
        counters = reports[0].cache_counters
        assert counters["fleet.engine"]["chips"] == N_CHIPS
        assert counters["fleet.engine"]["chunks"] == 4
        assert "bti.fleet.kernels" in counters


# -- failure telemetry -----------------------------------------------------


class TestFailureTelemetry:
    """A run that dies mid-study must still deliver its report."""

    def test_pool_death_before_report_emits_failed_mode(
            self, monkeypatch):
        # run_sweep raising before producing any report used to leave
        # `inner` empty and on_report never fired -- the telemetry
        # black hole.  The finally block now emits a "fleet+failed"
        # report with the wall time.
        def boom(*args, **kwargs):
            raise RuntimeError("pool exploded before reporting")

        monkeypatch.setattr(fleet_module, "run_sweep", boom)
        reports = []
        with pytest.raises(RuntimeError, match="pool exploded"):
            run_study(max_workers=WORKERS, min_chunks_for_pool=1,
                      on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet+failed"
        assert report.n_chunks == 4
        assert report.wall_time_s >= 0.0
        assert report.chunks == ()

    def test_serial_chunk_failure_reports_completed_chunks(
            self, monkeypatch):
        real = fleet_module._execute_chunk

        def fail_on_second(built, task):
            if task.chunk.index == 1:
                raise RuntimeError("chunk died")
            return real(built, task)

        monkeypatch.setattr(fleet_module, "_execute_chunk",
                            fail_on_second)
        reports = []
        with pytest.raises(RuntimeError, match="chunk died"):
            run_study(max_workers=1, on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet+failed"
        # Chunk 0 completed before the failure and is accounted for.
        assert [chunk.index for chunk in report.chunks] == [0]
        assert report.cache_counters["fleet.engine"]["chunks"] == 1
