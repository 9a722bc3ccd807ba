"""Parallel chunk execution of the fleet engine.

The chunk loop promises:

* **determinism** -- a pooled run merges bitwise-identically to the
  serial chunk stream for every worker count and completion order
  (chunk boundaries come from one ``chunk_tasks`` partition, and
  variation draws are by global chip index);
* **crash safety** -- a worker killed mid-fleet degrades to
  chunk-level in-process re-execution with identical results;
* **one failure rule** -- a flaky chunk is retried, and a chunk that
  exhausts its retries raises ``TaskError`` with the same index,
  attempts and report at every worker count;
* **one partition rule** -- ``max_workers`` alone cuts a study above
  the work gate into one chunk per worker (within the memory limits);
  below it, or at one worker, the study runs the fewest chunks its
  memory limits allow, and small fleets and single-chunk runs never
  pay pool spawn overhead;
* **aggregated telemetry** -- the ``SweepReport`` sums every worker's
  named-cache counters (``bti.fleet.kernels``, ``fleet.engine``,
  thermal/condition memos), not just the parent's.

Pooled cases force a small pool (``REPRO_SWEEP_TEST_WORKERS``, default
2), lower ``MIN_CORE_EPOCHS_FOR_POOL`` to 0 and report that many
available CPUs (the ``open_pool`` fixture), so the pooled code path
runs, and cuts the same chunks, on any CI runner.  Faults
(stragglers, worker deaths, failing chunks) are injected by patching
``repro.system.fleet._execute_chunk``, the chunk body the parent and
the forked workers share.
"""

from __future__ import annotations

import os
import time
from functools import partial

import numpy as np
import pytest

import repro.system.fleet as fleet_module
from repro.errors import SimulationError, TaskError
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
N_CHUNKS = 4

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
def open_pool(monkeypatch):
    """Drop the work gate so a small multi-chunk fleet pools, on
    ``WORKERS`` CPUs whatever the host has."""
    monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
    monkeypatch.setattr(fleet_module, "available_cpus", lambda: WORKERS)


@pytest.fixture()
def no_pool(monkeypatch):
    """Make any pool start-up in the chunk loop an immediate failure."""

    class _Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError(
                "ProcessPoolExecutor must not start here")

    monkeypatch.setattr(fleet_module, "ProcessPoolExecutor",
                        _Forbidden)


def _staggered(real, built, task):
    """Chunk ``k`` sleeps ``0.05 * (N_CHUNKS - 1 - k)`` s first, so
    later chunks finish first."""
    time.sleep(0.05 * (N_CHUNKS - 1 - task.chunk.index))
    return real(built, task)


def _die_unless_in(real, parent_pid, built, task):
    """Hard-kill any process but the parent (a forked worker)."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return real(built, task)


# -- determinism -----------------------------------------------------------


class TestParallelDeterminism:
    def test_bitwise_equal_across_worker_counts(self, open_pool,
                                                serial_baseline):
        for workers in (1, 2, 4):
            reports = []
            pooled = run_study(max_workers=workers,
                               on_report=reports.append)
            assert_bitwise_equal(serial_baseline, pooled)
            (report,) = reports
            assert report.n_chunks == N_CHUNKS
            if workers == 1:
                assert report.mode == "fleet"
                assert report.serial_reason == "max_workers <= 1"
            else:
                assert report.mode == "fleet+pool"
                assert all(chunk.executed_in == "pool"
                           for chunk in report.chunks)

    def test_out_of_order_completion_bitwise(self, monkeypatch,
                                             open_pool,
                                             serial_baseline):
        # Later chunks finish first: chunk k sleeps proportionally to
        # (N_CHUNKS - 1 - k) inside the worker, so the scatter order
        # reverses while the merged rows must not.
        monkeypatch.setattr(
            fleet_module, "_execute_chunk",
            partial(_staggered, fleet_module._execute_chunk))
        reports = []
        pooled = run_study(max_workers=WORKERS,
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
        _, study = fleet_module._fleet_study(
            (3, 3), groups=hetero_groups(), n_epochs=N_EPOCHS,
            epoch_s=3600.0, record_every=2,
            variation=FleetVariationSpec(
                capture_sigma=0.1, recovery_sigma=0.05,
                em_current_sigma=0.1),
            seed=11)
        tasks = chunk_tasks(N_CHIPS, CHUNK_CHIPS)
        parts = {}
        for task in reversed(tasks):
            parts[task.index] = _run_fleet_chunk(
                fleet_module._FleetChunkTask(
                    study=study.rows(task.start, task.stop),
                    chunk=task))
        merged = _merge_fleet_results(
            [parts[task.index] for task in tasks])
        assert_bitwise_equal(serial_baseline, merged)


# -- crash safety ----------------------------------------------------------


class TestWorkerDeathRecovery:
    def test_worker_death_recovers_bitwise(self, monkeypatch,
                                           open_pool,
                                           serial_baseline):
        # Every forked worker kills itself on its first chunk; the
        # parent (whose pid matches) survives, and the chunk loop
        # re-runs all chunks in-process -- same rows, same bytes.
        monkeypatch.setattr(
            fleet_module, "_execute_chunk",
            partial(_die_unless_in, fleet_module._execute_chunk,
                    os.getpid()))
        reports = []
        recovered = run_study(max_workers=WORKERS,
                              on_report=reports.append)
        assert_bitwise_equal(serial_baseline, recovered)
        (report,) = reports
        assert report.mode == "fleet+pool+serial-fallback"
        assert report.fallback_reasons
        assert any(chunk.executed_in == "serial-fallback"
                   for chunk in report.chunks)

    def test_failed_chunk_reports_before_raise(self, monkeypatch,
                                               open_pool):
        # The pool workers and the parent share the chunk body, so
        # every chunk fails inside its attempt wrapper: the pool
        # stays up and every failure is on the report.
        def explode(built, task):
            raise RuntimeError("chunk lost")

        monkeypatch.setattr(fleet_module, "_execute_chunk", explode)
        reports = []
        with pytest.raises(TaskError) as excinfo:
            run_study(max_workers=WORKERS,
                      on_report=reports.append)
        assert excinfo.value.task_index == 0
        (report,) = reports
        assert not report.ok
        assert report.mode == "fleet+pool"
        assert [f.task_index for f in report.failures] == [0, 1, 2, 3]


# -- the serial gate -------------------------------------------------------


class TestSerialGate:
    def test_small_fleet_never_pools(self, no_pool):
        # 14 varied chips (a chip class each) x 9 cores x 5 epochs =
        # 630 core-epochs, far below MIN_CORE_EPOCHS_FOR_POOL: even
        # with workers requested, the stream stays serial and no pool
        # is ever constructed.
        reports = []
        run_study(max_workers=4, on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet"
        assert "core-epochs below pool threshold" \
            in report.serial_reason

    def test_single_chip_study_stays_serial(self, open_pool, no_pool):
        # Above the gate a study splits per worker, but one chip is
        # one chunk: no pool starts for it.
        reports = []
        run_fleet_lifetime_study(
            (3, 3), 1, ConstantWorkload(n_cores=N_CORES, utilization=0.6),
            NoRecoveryPolicy(), n_epochs=N_EPOCHS, max_workers=WORKERS,
            on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet"
        assert report.serial_reason == "single chunk"
        assert report.n_chunks == 1

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
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        reports = []
        run_study(on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet"
        assert report.max_workers == 1
        assert report.serial_reason == "max_workers <= 1"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(SimulationError):
            run_study(max_workers=-1)
        with pytest.raises(SimulationError):
            run_study(retries=-1)


# -- the chunk partition ---------------------------------------------------


class TestChunkPartition:
    """One planning step owns the partition: ``max_workers`` alone
    splits a study above the work gate, the memory limits alone size
    the chunks of any other study."""

    def test_max_workers_alone_pools_above_the_gate(self, open_pool,
                                                    serial_baseline):
        reports = []
        one = run_study(max_chunk_chips=None, max_workers=1,
                        on_report=reports.append)
        pooled = run_study(max_chunk_chips=None, max_workers=2,
                           on_report=reports.append)
        serial, split = reports
        assert serial.n_chunks == 1
        assert serial.serial_reason == "max_workers <= 1"
        # ceil(14 / 2) = 7 chips per chunk.
        assert split.mode == "fleet+pool"
        assert split.n_chunks == 2
        assert all(chunk.executed_in == "pool" for chunk in split.chunks)
        assert_bitwise_equal(one, pooled)
        assert_bitwise_equal(serial_baseline, pooled)

    def test_one_class_fleet_is_not_cut_per_worker(self, open_pool):
        # One cohort without variation is one chip class however it is
        # cut, so a cut per worker would only advance that class again
        # in every chunk: the study stays one chunk.
        def one_cohort(**kwargs):
            return run_fleet_lifetime_study(
                (3, 3), N_CHIPS,
                ConstantWorkload(n_cores=N_CORES, utilization=0.6),
                RoundRobinRecoveryPolicy(recovery_slots=3),
                n_epochs=N_EPOCHS, record_every=2, seed=11, **kwargs)

        reports = []
        one = one_cohort(max_workers=1)
        two = one_cohort(max_workers=2, on_report=reports.append)
        run_study(max_chunk_chips=None, max_workers=2,
                  on_report=reports.append)
        unvaried, varied = reports
        assert unvaried.n_chunks == 1
        assert unvaried.mode == "fleet"
        assert_bitwise_equal(one, two)
        # A varied study above the gate still pools, one chunk per
        # worker.
        assert varied.mode == "fleet+pool"
        assert varied.n_chunks == 2

    def test_cut_per_worker_stays_within_max_chunk_chips(self,
                                                         open_pool):
        # Two cohorts of 7 chips without variation, 5-chip chunks: the
        # chunk [5, 10) spans both cohorts (2 classes), while the
        # 7-chip cut per worker would hold one class each.  The cut
        # must not grow chunks past max_chunk_chips.
        groups = tuple(
            FleetGroup(n_chips=7,
                       workload=ConstantWorkload(n_cores=N_CORES,
                                                 utilization=utilization),
                       policy=RoundRobinRecoveryPolicy(recovery_slots=3))
            for utilization in (0.6, 0.8))
        kwargs = dict(n_epochs=N_EPOCHS, record_every=2, seed=11)
        chip, study = fleet_module._fleet_study(
            (3, 3), groups=groups, epoch_s=3600.0, variation=None,
            **kwargs)
        assert fleet_module._chunk_size(study, chip.n_cores, 2,
                                        max_chunk_chips=5,
                                        state_budget_bytes=None) == 5
        reports = []
        one = run_fleet_lifetime_study((3, 3), groups=groups,
                                       max_workers=1, **kwargs)
        two = run_fleet_lifetime_study((3, 3), groups=groups,
                                       max_workers=2, max_chunk_chips=5,
                                       on_report=reports.append,
                                       **kwargs)
        (report,) = reports
        assert report.n_chunks == 3  # [0, 5), [5, 10), [10, 14)
        assert report.mode == "fleet+pool"
        assert_bitwise_equal(one, two)

    def test_below_the_gate_runs_one_memory_sized_chunk(
            self, monkeypatch, no_pool):
        monkeypatch.setattr(fleet_module, "available_cpus", lambda: 2)
        reports = []
        run_study(max_chunk_chips=None, max_workers=2,
                  on_report=reports.append)
        (report,) = reports
        assert report.n_chunks == 1
        assert report.mode == "fleet"
        # 14 varied chips x 9 cores x 5 epochs.
        assert report.serial_reason == (
            "14 chip classes: 630 core-epochs below pool threshold "
            f"{fleet_module.MIN_CORE_EPOCHS_FOR_POOL}")

    def test_the_gate_counts_the_memory_sized_chunks(self, monkeypatch):
        # 14 varied chips x 9 cores x 5 epochs = 630 core-epochs: a
        # gate at 630 splits the study, one above it does not.
        monkeypatch.setattr(fleet_module, "available_cpus", lambda: 2)
        for threshold, n_chunks in ((631, 1), (630, 2)):
            monkeypatch.setattr(fleet_module,
                                "MIN_CORE_EPOCHS_FOR_POOL", threshold)
            _, study = fleet_module._fleet_study(
                (3, 3), groups=hetero_groups(), n_epochs=N_EPOCHS,
                epoch_s=3600.0, record_every=2,
                variation=FleetVariationSpec(capture_sigma=0.1),
                seed=11)
            chunk_chips = fleet_module._chunk_size(study, N_CORES, 2,
                                                   None, None)
            assert -(-N_CHIPS // chunk_chips) == n_chunks


# -- aggregated telemetry --------------------------------------------------


class TestCounterAggregation:
    def test_fleet_counters_sum_across_workers(self, open_pool):
        reports = []
        run_study(max_workers=WORKERS,
                  on_report=reports.append)
        counters = reports[0].cache_counters
        engine = counters["fleet.engine"]
        # Worker-side engine counters survive the process
        # boundary and sum to the population, and the parent's chunk
        # count is folded in.
        assert engine["chips"] == N_CHIPS
        assert engine["epochs"] == 4 * N_EPOCHS  # per-chunk epochs
        assert engine["chunks"] == 4
        kernels = counters["bti.fleet.kernels"]
        assert kernels["misses"] >= 4
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


class _Interrupt(BaseException):
    """Models a ``KeyboardInterrupt`` raised inside a chunk."""


def _interrupt_on_second(real, built, task):
    if task.chunk.index == 1:
        raise _Interrupt()
    return real(built, task)


class TestFailureTelemetry:
    """A run that dies mid-study must still deliver its report."""

    def test_pool_death_before_report_emits_failed_mode(
            self, monkeypatch, open_pool):
        # An interrupt is never caught as a chunk failure: it ends the
        # run at once, and the finally block still emits a
        # "fleet+failed" report listing the chunk that completed.
        monkeypatch.setattr(
            fleet_module, "_execute_chunk",
            partial(_interrupt_on_second, fleet_module._execute_chunk))
        reports = []
        with pytest.raises(_Interrupt):
            run_study(max_workers=WORKERS, retries=2,
                      on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet+failed"
        assert report.n_chunks == 4
        assert report.wall_time_s >= 0.0
        assert [chunk.index for chunk in report.chunks] == [0]
        assert report.retries == 0

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
        with pytest.raises(TaskError, match="chunk died") as excinfo:
            run_study(max_workers=1, on_report=reports.append)
        assert excinfo.value.task_index == 1
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        (report,) = reports
        assert report.mode == "fleet"
        # The failing chunk did not stop the later ones.
        assert [chunk.index for chunk in report.chunks] == [0, 1, 2, 3]
        assert [chunk.n_failures for chunk in report.chunks] == \
            [0, 1, 0, 0]
        assert report.cache_counters["fleet.engine"]["chunks"] == 3


# -- failure parity across worker counts -----------------------------------


def _fail_first_attempt(real, marker_dir, built, task):
    """Fails each chunk's first attempt, wherever it runs."""
    marker = os.path.join(marker_dir, f"{task.chunk.index}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError(f"transient failure on chunk "
                           f"{task.chunk.index}")
    return real(built, task)


class TestFailureParity:
    """Serial and pooled chunks retry and fail by one rule."""

    @pytest.mark.parametrize("workers", [1, WORKERS])
    def test_flaky_chunks_retry_and_fail_alike(
            self, tmp_path, monkeypatch, open_pool, serial_baseline,
            workers):
        real = fleet_module._execute_chunk

        def flaky(name):
            marker_dir = tmp_path / name
            marker_dir.mkdir()
            monkeypatch.setattr(
                fleet_module, "_execute_chunk",
                partial(_fail_first_attempt, real, str(marker_dir)))

        flaky("retried")
        reports = []
        retried = run_study(max_workers=workers, retries=1,
                            on_report=reports.append)
        assert_bitwise_equal(serial_baseline, retried)
        (report,) = reports
        assert report.ok
        assert report.retries == report.n_chunks == 4
        expected_mode = "fleet" if workers == 1 else "fleet+pool"
        assert report.mode == expected_mode

        flaky("exhausted")
        reports = []
        with pytest.raises(TaskError) as excinfo:
            run_study(max_workers=workers, retries=0,
                      on_report=reports.append)
        assert excinfo.value.task_index == 0
        assert excinfo.value.attempts == 1
        assert "transient failure on chunk 0" in str(excinfo.value)
        (report,) = reports
        assert report.mode == expected_mode
        assert [f.task_index for f in report.failures] == [0, 1, 2, 3]
        assert all(f.attempts == 1 for f in report.failures)
