"""Chip classes of :class:`repro.system.fleet.FleetSimulator`.

Chips of one cohort with bitwise-equal variation scales see the same
inputs every epoch, so the simulator stacks one chip per class and
gathers the class rows onto the chips when it reads out.  These tests
pin the class map (raw-byte keys, one class per cohort without
variation, the identity map with it), that every chip still equals
its one-chip study bit for bit, that sessions continue bitwise on the
classes, and that chunks are sized by what they hold.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.system.fleet as fleet_module
from repro.system.checkpoint import FleetSession
from repro.system.chip import Chip
from repro.system.fleet import (
    FleetGroup,
    FleetVariation,
    FleetVariationSpec,
    _fleet_study,
    chip_classes,
    chunk_state_bytes,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.workload import ConstantWorkload, RandomWorkload

N_CORES = 4  # 2x2 grid
RESULT_ARRAYS = (
    "times_s", "worst_degradation", "mean_degradation",
    "dropped_demand", "final_delta_vth_v", "final_permanent_vth_v",
    "final_em_drift_ohm", "em_failures", "migration_events",
    "total_demand", "total_dropped_demand")


def assert_bitwise(left, right):
    left, right = np.asarray(left), np.asarray(right)
    assert left.shape == right.shape
    assert left.dtype == right.dtype
    assert left.tobytes() == right.tobytes()


def assert_results_bitwise(a, b):
    for name in RESULT_ARRAYS:
        assert_bitwise(getattr(a, name), getattr(b, name))
    assert a.n_epochs == b.n_epochs


def two_groups(n_per_group=5):
    """Two unvaried groups of one cohort each."""
    return (
        FleetGroup(n_chips=n_per_group,
                   workload=RandomWorkload(n_cores=N_CORES, seed=3),
                   policy=RoundRobinRecoveryPolicy(recovery_slots=1,
                                                   em_alternate_every=3)),
        FleetGroup(n_chips=n_per_group,
                   workload=ConstantWorkload(N_CORES, 0.7),
                   policy=NoRecoveryPolicy()),
    )


def simulator(groups, n_epochs=6, variation=None, seed=0):
    """A fresh simulator of a study, advanced over its horizon."""
    chip, study = _fleet_study(
        (2, 2), groups=groups, n_epochs=n_epochs, epoch_s=3600.0,
        record_every=2, variation=variation, seed=seed)
    run = study.simulator(chip)
    run.advance(n_epochs)
    return study, run


def engine_classes(report):
    return report.cache_counters["fleet.engine"]["classes"]


class TestClassMap:
    def test_signed_zero_scales_stay_apart(self):
        ones = np.ones(4)
        scale = np.array([0.0, -0.0, 0.0, -0.0])
        variation = FleetVariation.__new__(FleetVariation)
        for name, value in (("capture_scale", scale),
                            ("recovery_scale", ones),
                            ("em_current_scale", ones)):
            object.__setattr__(variation, name, value)
        chip_class, class_chip = chip_classes(np.zeros(4, np.intp),
                                              variation)
        assert_bitwise(chip_class, np.array([0, 1, 0, 1], np.intp))
        assert_bitwise(class_chip, np.array([0, 1], np.intp))

    def test_one_ulp_apart_is_another_class(self):
        scale = np.array([1.0, np.nextafter(1.0, 2.0), 1.0])
        variation = FleetVariation(capture_scale=np.ones(3),
                                   recovery_scale=scale,
                                   em_current_scale=np.ones(3))
        chip_class, _ = chip_classes(np.zeros(3, np.intp), variation)
        assert list(chip_class) == [0, 1, 0]

    def test_classes_never_span_cohorts_and_are_contiguous(self):
        variation = FleetVariation.none(6)
        chip_class, class_chip = chip_classes(
            np.array([0, 0, 1, 1, 2, 2]), variation)
        assert list(chip_class) == [0, 0, 1, 1, 2, 2]
        assert list(class_chip) == [0, 2, 4]
        # Equal scales that recur after another value keep one class,
        # numbered by its first chip.
        scale = np.array([1.0, 2.0, 1.0, 3.0, 2.0, 1.0])
        varied = FleetVariation(capture_scale=scale,
                                recovery_scale=np.ones(6),
                                em_current_scale=np.ones(6))
        chip_class, class_chip = chip_classes(np.zeros(6, np.intp),
                                              varied)
        assert list(chip_class) == [0, 1, 0, 2, 1, 0]
        assert list(class_chip) == [0, 1, 3]

    def test_varied_fleet_has_the_identity_map(self):
        groups = two_groups()
        _, run = simulator(groups, variation=FleetVariationSpec(
            capture_sigma=0.05), seed=4)
        assert run.n_classes == 10
        assert_bitwise(run.chip_class, np.arange(10, dtype=np.intp))
        assert run.bti.n_chips == 10

    def test_all_ones_arrays_are_one_class_per_cohort(self):
        # A session loaded from a snapshot carries its draw as arrays.
        _, run = simulator(two_groups(),
                           variation=FleetVariation.none(10))
        assert run.n_classes == 2


class TestUnvariedFleet:
    def test_two_group_fleet_advances_one_chip_per_cohort(self):
        reports = []
        result = run_fleet_lifetime_study(
            (2, 2), groups=two_groups(), n_epochs=6, record_every=2,
            max_workers=1, on_report=reports.append)
        study, run = simulator(two_groups())
        assert len(study.cohort_runs()) == 2
        # n_cohorts * n_cores trap and EM rows, not n_chips * n_cores.
        assert run.bti.occupancy.shape[0] == 2 * N_CORES
        assert run.em.progress_s.shape == (2 * N_CORES,)
        (report,) = reports
        assert engine_classes(report) == 2
        assert_results_bitwise(result, run.result())

    def test_every_chip_equals_its_one_chip_study(self):
        result = run_fleet_lifetime_study(
            (2, 2), groups=two_groups(3), n_epochs=6, record_every=2,
            max_workers=1)
        for index, group in enumerate(two_groups(3)):
            single = SystemSimulator(Chip(2, 2)).run(
                6, group.workload, group.policy, record_every=2)
            for chip in range(3 * index, 3 * index + 3):
                member = result.chip_result(chip)
                for name in ("worst_degradation", "mean_degradation",
                             "dropped_demand", "final_delta_vth_v",
                             "final_permanent_vth_v",
                             "final_em_drift_ohm", "em_failures"):
                    assert_bitwise(getattr(member, name),
                                   getattr(single, name))
                assert member.migration_events == single.migration_events

    def test_phase_cohorts_are_separate_classes(self):
        group = FleetGroup(n_chips=6,
                           workload=RandomWorkload(n_cores=N_CORES, seed=5),
                           policy=RoundRobinRecoveryPolicy(
                               recovery_slots=1),
                           phases=(0, 0, 2, 2, 0, 0))
        result = run_fleet_lifetime_study(
            (2, 2), groups=(group,), n_epochs=6, record_every=2,
            max_workers=1)
        _, run = simulator((group,))
        assert run.n_classes == 3
        assert list(run.chip_class) == [0, 0, 1, 1, 2, 2]
        # Chips 0 and 2 differ in phase, so their rows must differ --
        # otherwise the class split above is vacuous.
        assert not np.array_equal(result.final_delta_vth_v[0],
                                  result.final_delta_vth_v[2])
        assert_bitwise(result.final_delta_vth_v[0],
                       result.final_delta_vth_v[4])

    def test_saved_homogeneous_session_continues_bitwise(self, tmp_path):
        def make():
            return FleetSession((2, 2), 12, ConstantWorkload(4, 0.7),
                                RoundRobinRecoveryPolicy(recovery_slots=1),
                                record_every=2)

        session = make().advance(6)
        path = tmp_path / "session.npz"
        session.save(path)
        session.advance(5)
        resumed = FleetSession.load(path)
        # The restored session recomputes its one class.
        assert resumed._simulator.n_classes == 1
        resumed.advance(5)
        assert_results_bitwise(resumed.result(), session.result())
        single = FleetSession((2, 2), 1, ConstantWorkload(4, 0.7),
                              RoundRobinRecoveryPolicy(recovery_slots=1),
                              record_every=2).advance(11)
        for row in resumed.result().final_delta_vth_v:
            assert_bitwise(row, single.result().final_delta_vth_v[0])
        assert_bitwise(resumed.delta_vth_v(),
                       np.repeat(single.delta_vth_v(), 12, axis=0))
        assert_bitwise(resumed.guardbands,
                       np.repeat(single.guardbands, 12))


def state_nbytes(run):
    """Bytes of every state array a simulator holds after a run.

    The trap stack (state and sub-step scratch), the EM accumulators,
    the per-chip variation and class map, the per-class bookkeeping,
    and the per-chip arrays :meth:`result` gathers except the recorded
    timeline.  The bin grid ``tau_c`` is configuration, not state.
    """
    total = 0
    for owner in (run, run.bti, run.em, run.variation):
        for name, value in vars(owner).items():
            if name == "tau_c":
                continue
            items = value if isinstance(value, tuple) else (value,)
            total += sum(item.nbytes for item in items
                         if isinstance(item, np.ndarray))
    result = run.result()
    total += sum(getattr(result, name).nbytes
                 for name in RESULT_ARRAYS[4:])
    return total


class TestChunkSizing:
    @pytest.mark.parametrize("varied", [False, True])
    def test_estimate_bounds_the_real_state(self, varied):
        variation = (FleetVariationSpec(capture_sigma=0.1,
                                        em_current_sigma=0.1)
                     if varied else None)
        study, run = simulator(two_groups(), variation=variation, seed=2)
        assert run.n_classes == (10 if varied else 2)
        assert study.max_classes(10) == run.n_classes
        estimate = chunk_state_bytes(10, study.max_classes(10), N_CORES)
        assert estimate >= state_nbytes(run)

    def test_zero_sigma_spec_counts_as_unvaried(self):
        chip, study = _fleet_study(
            (2, 2), groups=two_groups(), n_epochs=2, epoch_s=3600.0,
            record_every=1, variation=FleetVariationSpec(), seed=0)
        assert study.max_classes(10) == 2
        run = study.simulator(chip)
        assert run.n_classes == 2

    def test_unvaried_4096_chips_fit_one_chunk_of_32_mib(self):
        reports = []
        run_fleet_lifetime_study(
            (3, 3), 4096, ConstantWorkload(9, 0.6),
            RoundRobinRecoveryPolicy(recovery_slots=3), n_epochs=2,
            record_every=2, state_budget_bytes=32 * 2 ** 20,
            max_workers=1, on_report=reports.append)
        (report,) = reports
        assert report.n_chunks == 1
        assert engine_classes(report) == 1

    def test_varied_chips_still_cost_a_class_each(self):
        spec = FleetVariationSpec(capture_sigma=0.1)
        _, study = _fleet_study(
            (3, 3), 4096, ConstantWorkload(9, 0.6), NoRecoveryPolicy(),
            n_epochs=2, epoch_s=3600.0, record_every=1, variation=spec,
            seed=0)
        budget = 32 * 2 ** 20
        chunk = fleet_module._chunk_size(study, 9, 1, None, budget)
        assert chunk == budget // fleet_module.state_bytes_per_chip(9)
        assert chunk_state_bytes(chunk, chunk, 9) <= budget
        assert chunk_state_bytes(chunk + 1, chunk + 1, 9) > budget


class TestWorkerCap:
    def test_explicit_workers_are_capped_at_available_cpus(
            self, monkeypatch):
        monkeypatch.setattr(fleet_module, "available_cpus", lambda: 1)
        reports = []
        run_fleet_lifetime_study(
            (2, 2), 6, ConstantWorkload(N_CORES, 0.5), NoRecoveryPolicy(),
            n_epochs=2, max_chunk_chips=2, max_workers=8,
            on_report=reports.append)
        (report,) = reports
        assert report.max_workers == 1
        assert report.mode == "fleet"
        assert report.serial_reason == "max_workers <= 1"


class TestPoolGate:
    def test_unvaried_chunks_gate_on_their_classes(self, monkeypatch):
        # Two 6-chip chunks without variation hold one chip class
        # each: 12 chips x 4 cores x 3 epochs is 144 core-epochs, but
        # the chunks advance 2 x 4 x 3 = 24.  A threshold between the
        # two keeps the study serial, and the report says why.
        monkeypatch.setattr(fleet_module, "available_cpus", lambda: 2)
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 100)
        reports = []
        run_fleet_lifetime_study(
            (2, 2), 12, ConstantWorkload(N_CORES, 0.5), NoRecoveryPolicy(),
            n_epochs=3, max_chunk_chips=6, max_workers=2,
            on_report=reports.append)
        (report,) = reports
        assert report.n_chunks == 2
        assert report.mode == "fleet"
        assert report.serial_reason == (
            "2 chip classes: 24 core-epochs below pool threshold 100")
