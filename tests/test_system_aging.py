"""Tests for the vectorized per-core aging states (BTI trap stack, EM)."""

import numpy as np
import pytest

from repro import units
from repro.bti.fleet import StackedTrapPopulations
from repro.bti.traps import TrapPopulation, TrapPopulationConfig
from repro.em.line import PAPER_EM_STRESS
from repro.errors import SimulationError
from repro.system.aging import FleetEmState


class TestFleetBtiState:
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
