"""Tests for the vectorized per-core aging states (BTI trap stack, EM)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import units
from repro.bti.fleet import StackedTrapPopulations
from repro.bti.traps import TrapPopulation, TrapPopulationConfig
from repro.em.line import PAPER_EM_STRESS
from repro.errors import SimulationError
from repro.system.aging import FleetEmState


class TestStackedTrapPopulations:
    """The per-core BTI state of one chip: a one-chip
    :class:`StackedTrapPopulations`, as
    :class:`~repro.system.simulator.SystemSimulator` runs it."""

    def test_matches_single_population_under_stress(self, calibration):
        """The batched dynamics must agree with TrapPopulation."""
        config = calibration.model_config.population
        stack = StackedTrapPopulations(1, 3, config)
        single = TrapPopulation(config)
        dt = units.hours(5.0)
        stack.step(dt, np.array([[True, True, True]]),
                   np.ones((1, 3)), np.ones((1, 3)))
        single.stress(dt)
        assert stack.delta_vth_v()[0, 0] == pytest.approx(
            single.total_vth_v, rel=1e-9)

    def test_matches_single_population_under_recovery(self, calibration):
        config = calibration.model_config.population
        stack = StackedTrapPopulations(1, 2, config)
        single = TrapPopulation(config)
        stress_dt = units.hours(3.0)
        stack.step(stress_dt, np.array([[True, True]]), np.ones((1, 2)),
                   np.ones((1, 2)))
        single.stress(stress_dt)
        accel = 1e5
        stack.step(units.hours(1.0), np.array([[False, False]]),
                   np.ones((1, 2)), np.full((1, 2), accel))
        single.recover(units.hours(1.0), accel)
        assert stack.delta_vth_v()[0, 0] == pytest.approx(
            single.total_vth_v, rel=1e-6)

    def test_mixed_epoch_diverges_units(self):
        stack = StackedTrapPopulations(1, 2)
        stack.step(units.hours(2.0), np.array([[True, False]]),
                   np.ones((1, 2)), np.ones((1, 2)))
        shifts = stack.delta_vth_v()[0]
        assert shifts[0] > shifts[1]

    def test_occupancy_stays_bounded(self):
        stack = StackedTrapPopulations(1, 2)
        stack.step(units.days(5.0), np.array([[True, True]]),
                   np.full((1, 2), 3.0), np.ones((1, 2)))
        assert np.all(stack.occupancy >= 0.0)
        assert np.all(stack.occupancy <= 1.0 + 1e-12)

    def test_capture_acceleration_scales_lock_in(self):
        config = TrapPopulationConfig(n_bins=48,
                                      lock_age_s=units.minutes(75.0),
                                      lock_rate_per_s=5e-5)
        fast = StackedTrapPopulations(1, 1, config)
        slow = StackedTrapPopulations(1, 1, config)
        fast.step(units.hours(8.0), np.array([[True]]),
                  np.array([[1.0]]), np.array([[1.0]]))
        slow.step(units.hours(8.0), np.array([[True]]),
                  np.array([[0.1]]), np.array([[1.0]]))
        assert fast.permanent_v[0] > slow.permanent_v[0]

    def test_rejects_wrong_shapes(self):
        stack = StackedTrapPopulations(1, 2)
        with pytest.raises(SimulationError):
            stack.step(1.0, np.array([[True]]), np.ones((1, 2)),
                       np.ones((1, 2)))

    def test_rejects_zero_units(self):
        with pytest.raises(SimulationError):
            StackedTrapPopulations(1, 0)


N_UNITS = 3
DT_S = 3600.0


def assert_bitwise(left, right):
    left, right = np.asarray(left), np.asarray(right)
    assert left.shape == right.shape
    assert left.tobytes() == right.tobytes()


def rotating_inputs(n_chips, epoch):
    """One stressed-unit rotation shared by every chip of the stack."""
    stressing = np.zeros((n_chips, N_UNITS), dtype=bool)
    stressing[:, epoch % N_UNITS] = True
    stressing[:, (epoch + 1) % N_UNITS] = True
    capture = np.tile([6.0, 7.5, 9.0], (n_chips, 1))
    recovery = np.tile([2.0, 3.0, 40.0], (n_chips, 1))
    return stressing, capture, recovery


class TestStackState:
    """Reads, snapshots and restores of a multi-chip stack."""

    def test_signed_zero_rows_keep_their_own_kernels(self):
        # Kernel rows are deduplicated on raw bytes: a -0.0 and a 0.0
        # capture row each match their one-chip stack bit for bit.
        stack = StackedTrapPopulations(2, 1)
        stressing = np.ones((2, 1), dtype=bool)
        capture = np.array([[-0.0], [0.0]])
        stack.step(DT_S, stressing, capture, np.ones((2, 1)))
        for i, value in enumerate((-0.0, 0.0)):
            single = StackedTrapPopulations(1, 1)
            single.step(DT_S, stressing[:1], np.array([[value]]),
                        np.ones((1, 1)))
            for name in ("occupancy", "age_s", "weights", "permanent_v"):
                assert_bitwise(getattr(stack, name)[i:i + 1],
                               getattr(single, name))

    def test_per_row_reads_are_read_only(self):
        for n_chips in (1, 3):
            stack = StackedTrapPopulations(n_chips, N_UNITS)
            stack.step(DT_S, *rotating_inputs(n_chips, 0))
            with pytest.raises(ValueError):
                stack.occupancy[0, 0] = 1.0
            assert stack.occupancy.shape == (n_chips * N_UNITS, 64)

    def test_a_loaded_stack_continues_bitwise(self):
        n_chips = 4
        stack = StackedTrapPopulations(n_chips, N_UNITS)
        for epoch in range(5):
            stack.step(DT_S, *rotating_inputs(n_chips, epoch),
                       kernel_key=epoch % N_UNITS)
        state = stack.state_arrays()
        assert set(state) == {"weights", "occupancy", "age_s",
                              "permanent_v", "time_s"}
        assert state["weights"].shape == (n_chips * N_UNITS, 64)
        loaded = StackedTrapPopulations(n_chips, N_UNITS)
        loaded.load_state(state)
        for epoch in range(5, 12):
            for target in (stack, loaded):
                target.step(DT_S, *rotating_inputs(n_chips, epoch),
                            kernel_key=epoch % N_UNITS)
        assert stack.permanent_v.max() > 0.0
        for name, array in stack.state_arrays().items():
            assert_bitwise(loaded.state_arrays()[name], array)

    def test_load_state_refuses_a_bad_layout_before_writing(self):
        stack = StackedTrapPopulations(3, N_UNITS)
        stack.step(DT_S, *rotating_inputs(3, 0))
        before = stack.state_arrays()
        truncated = dict(before, occupancy=before["occupancy"][:-1])
        with pytest.raises(SimulationError, match="occupancy"):
            stack.load_state(truncated)
        missing = {k: v for k, v in before.items() if k != "age_s"}
        with pytest.raises(SimulationError, match="age_s"):
            stack.load_state(missing)
        single = dict(before, weights=before["weights"].astype(np.float32))
        with pytest.raises(SimulationError, match="weights"):
            stack.load_state(single)
        after = stack.state_arrays()
        for name, array in before.items():
            assert_bitwise(after[name], array)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("n_chips", [1, 3])
    @pytest.mark.parametrize("dt_s", [float("nan"), float("inf")])
    def test_step_refuses_a_non_finite_length(self, n_chips, dt_s):
        stack = StackedTrapPopulations(n_chips, N_UNITS)
        with pytest.raises(SimulationError, match="dt_s"):
            stack.step(dt_s, *rotating_inputs(n_chips, 0))
        assert stack.time_s == 0.0

    @pytest.mark.parametrize("n_chips", [1, 3])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_step_refuses_a_non_finite_sub_step_count(self, n_chips, bad):
        stack = StackedTrapPopulations(n_chips, N_UNITS)
        stressing, capture, recovery = rotating_inputs(n_chips, 0)
        capture[0, 0] = bad  # unit 0 is stressing
        with pytest.raises(SimulationError, match="sub-step count"):
            stack.step(DT_S, stressing, capture, recovery)
        assert stack.time_s == 0.0


def cycled_drift(calibration, epoch_h, capture):
    """Relative end-of-run gap between a one-unit stack and
    TrapPopulation over ten 24 h stress / 24 h recovery cycles
    (recovery acceleration 1000x), in ``epoch_h``-hour steps:
    ``(total shift, permanent shift)``."""
    config = replace(calibration.model_config.population, n_bins=64)
    stack = StackedTrapPopulations(1, 1, config)
    single = TrapPopulation(config)
    dt = units.hours(epoch_h)
    for _ in range(10):
        for _ in range(24 // epoch_h):
            stack.step(dt, np.array([[True]]), np.array([[capture]]),
                       np.ones((1, 1)))
            single.stress(dt, capture)
        for _ in range(24 // epoch_h):
            stack.step(dt, np.array([[False]]), np.ones((1, 1)),
                       np.array([[1e3]]))
            single.recover(dt, 1e3)
    total = abs(stack.delta_vth_v()[0, 0] / single.total_vth_v - 1.0)
    permanent = abs(stack.permanent_v[0] / single.permanent_v - 1.0)
    return total, permanent


class TestSubStepCap:
    """The stack caps an epoch at 64 sub-steps where TrapPopulation, the
    calibration reference, allows 256 (see the repro.bti.fleet
    docstring).  These pin how far that lets the two drift apart."""

    def test_day_long_epochs_at_1x_drift_about_2e_4(self, calibration):
        total, _ = cycled_drift(calibration, 24, 1.0)
        assert 1e-4 < total < 3e-4

    @pytest.mark.parametrize("capture", [3.0, 10.0])
    def test_day_long_epochs_at_3x_and_above_agree_to_1e_9(
            self, calibration, capture):
        total, permanent = cycled_drift(calibration, 24, capture)
        assert total < 1e-9
        # The permanent share alone still carries the cap.
        assert permanent < 3e-4

    def test_hour_long_epochs_agree_to_rounding(self, calibration):
        total, permanent = cycled_drift(calibration, 1, 1.0)
        assert total < 1e-12
        assert permanent < 1e-12


class TestFleetEmState:
    def test_nucleates_at_the_reference_time(self):
        fleet = FleetEmState(1, PAPER_EM_STRESS)
        j = np.array([PAPER_EM_STRESS.current_density_a_m2])
        temp = np.array([PAPER_EM_STRESS.temperature_k])
        step = units.minutes(10.0)
        elapsed = 0.0
        while not fleet.nucleated[0] and elapsed < units.minutes(300):
            fleet.step(step, j, temp)
            elapsed += step
        assert fleet.nucleated[0]
        assert elapsed == pytest.approx(fleet.nucleation_time_ref_s,
                                        abs=2 * step)

    def test_reverse_current_unwinds_progress(self):
        fleet = FleetEmState(1, PAPER_EM_STRESS)
        j = np.array([PAPER_EM_STRESS.current_density_a_m2])
        temp = np.array([PAPER_EM_STRESS.temperature_k])
        fleet.step(units.minutes(30.0), j, temp)
        forward = fleet.progress_s[0]
        fleet.step(units.minutes(30.0), -j, temp)
        assert fleet.progress_s[0] == pytest.approx(0.0, abs=1e-9)
        assert forward > 0.0

    def test_void_grows_and_resistance_rises(self):
        fleet = FleetEmState(1, PAPER_EM_STRESS)
        j = np.array([PAPER_EM_STRESS.current_density_a_m2])
        temp = np.array([PAPER_EM_STRESS.temperature_k])
        fleet.step(units.minutes(600.0), j, temp)
        assert fleet.nucleated[0]
        assert fleet.delta_resistance_ohm()[0] > 0.0

    def test_recovery_refills_faster_than_growth(self):
        fleet = FleetEmState(1, PAPER_EM_STRESS)
        j = np.array([PAPER_EM_STRESS.current_density_a_m2])
        temp = np.array([PAPER_EM_STRESS.temperature_k])
        fleet.step(units.minutes(400.0), j, temp)
        worn = fleet.delta_resistance_ohm()[0]
        fleet.step(units.minutes(100.0), -j, temp)
        healed = fleet.delta_resistance_ohm()[0]
        assert healed < 0.5 * worn

    def test_locked_void_survives_recovery(self):
        fleet = FleetEmState(1, PAPER_EM_STRESS)
        j = np.array([PAPER_EM_STRESS.current_density_a_m2])
        temp = np.array([PAPER_EM_STRESS.temperature_k])
        fleet.step(units.minutes(600.0), j, temp)
        fleet.step(units.minutes(600.0), -j, temp)
        assert fleet.void_locked_m[0] > 0.0

    def test_failure_flags(self):
        fleet = FleetEmState(2, PAPER_EM_STRESS)
        j = np.array([PAPER_EM_STRESS.current_density_a_m2, 0.0])
        temp = np.full(2, PAPER_EM_STRESS.temperature_k)
        fleet.step(units.hours(40.0), j, temp)
        failed = fleet.failed(PAPER_EM_STRESS.temperature_k)
        assert failed[0]
        assert not failed[1]

    def test_rejects_reverse_reference(self):
        with pytest.raises(SimulationError):
            FleetEmState(1, PAPER_EM_STRESS.reversed())

    def test_rejects_bad_temperature(self):
        fleet = FleetEmState(1, PAPER_EM_STRESS)
        with pytest.raises(SimulationError):
            fleet.step(1.0, np.array([1e10]), np.array([0.0]))
