"""Equivalence and property tests for the SoA fleet engine.

The fleet engine advances a whole population of chips as stacked
arrays (:mod:`repro.system.fleet` over
:mod:`repro.bti.fleet`).  These tests pin the contract that makes it
safe to replace the pooled per-cell path for homogeneous populations:

* stacking invariance: a fleet chip's full trajectory matches its
  one-chip study (:class:`~repro.system.simulator.SystemSimulator`,
  the same epoch loop on a one-chip stack) built with the same
  :class:`~repro.system.simulator.ChipVariation` to <= 1e-10 on every
  ``SystemResult`` field (in practice bit-exact), including through
  BTI/EM recovery intervals and across sub-step-count groups (the
  oracle outside that loop, the seed's scalar loop, is pinned in
  ``tests/test_system_engine.py``);
* stacking chips never changes a chip's trap trajectory relative to
  a one-chip :class:`~repro.bti.fleet.StackedTrapPopulations`;
* variation draws are per-chip deterministic and independent of the
  population size;
* the batched EM statistics samplers agree with the existing
  weakest-link paths;
* the work-aware serial gates keep sub-threshold sweeps off the pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.em.statistics import (
    WirePopulationSpec,
    sample_mixed_population_ttfs,
    sample_population_ttf_matrix,
    sample_population_ttfs,
)
from repro.bti.fleet import StackedTrapPopulations
from repro.errors import SimulationError
from repro.system.aging import FleetEmState
from repro.system.chip import Chip
from repro.system.fleet import (
    FleetVariation,
    FleetVariationSpec,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import ChipVariation, SystemSimulator
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import ConstantWorkload

RESULT_TOLERANCE = 1e-10

ARRAY_FIELDS = ("times_s", "worst_degradation", "mean_degradation",
                "dropped_demand", "final_delta_vth_v",
                "final_permanent_vth_v", "final_em_drift_ohm")


def assert_results_match(fleet_result, reference, tolerance=0.0):
    """Fleet chip view vs a standalone SystemResult, field by field."""
    for field in ARRAY_FIELDS:
        a = np.asarray(getattr(fleet_result, field), dtype=float)
        b = np.asarray(getattr(reference, field), dtype=float)
        assert a.shape == b.shape, field
        worst = float(np.abs(a - b).max(initial=0.0))
        assert worst <= tolerance, (field, worst)
    assert np.array_equal(fleet_result.em_failures,
                          reference.em_failures)
    assert fleet_result.migration_events == reference.migration_events
    assert fleet_result.n_epochs == reference.n_epochs
    assert fleet_result.total_demand == reference.total_demand
    assert fleet_result.total_dropped_demand \
        == reference.total_dropped_demand


class TestFleetVsSerial:
    """The ISSUE acceptance property: 4 chips, element-wise <= 1e-10."""

    N_CHIPS = 4
    N_EPOCHS = 30
    SPEC = FleetVariationSpec(capture_sigma=0.05, recovery_sigma=0.08,
                              em_current_sigma=0.05)
    SEED = 3

    @staticmethod
    def policy():
        # recovery_slots=1 rotates BTI recovery through all 4 cores
        # and em_alternate_every=2 inserts reverse-current epochs, so
        # the horizon contains many recovery intervals of both kinds.
        return RoundRobinRecoveryPolicy(recovery_slots=1,
                                        em_alternate_every=2)

    @staticmethod
    def workload():
        return ConstantWorkload(n_cores=4, utilization=0.5)

    @pytest.fixture(scope="class")
    def fleet_result(self):
        return run_fleet_lifetime_study(
            (2, 2), self.N_CHIPS, self.workload(), self.policy(),
            n_epochs=self.N_EPOCHS, variation=self.SPEC,
            seed=self.SEED)

    def test_each_chip_matches_standalone_simulator(self, fleet_result):
        variation = self.SPEC.draw(self.N_CHIPS, self.SEED)
        for index in range(self.N_CHIPS):
            simulator = SystemSimulator(
                Chip(2, 2), variation=variation.chip(index))
            reference = simulator.run(self.N_EPOCHS, self.workload(),
                                      self.policy())
            assert_results_match(fleet_result.chip_result(index),
                                 reference,
                                 tolerance=RESULT_TOLERANCE)

    def test_equivalence_holds_after_recovery_interval(self):
        """Stop exactly one epoch after a BTI recovery interval ends.

        With recovery_slots=1 on 4 cores, core 0 heals in epoch 0 and
        is stressed again from epoch 1; running 6 epochs puts every
        core through a full heal-stress cycle before the comparison.
        """
        fleet = run_fleet_lifetime_study(
            (2, 2), self.N_CHIPS, self.workload(), self.policy(),
            n_epochs=6, variation=self.SPEC, seed=self.SEED)
        variation = self.SPEC.draw(self.N_CHIPS, self.SEED)
        for index in range(self.N_CHIPS):
            simulator = SystemSimulator(
                Chip(2, 2), variation=variation.chip(index))
            reference = simulator.run(6, self.workload(),
                                      self.policy())
            assert_results_match(fleet.chip_result(index), reference,
                                 tolerance=RESULT_TOLERANCE)

    def test_variation_actually_spreads_the_population(self,
                                                       fleet_result):
        assert np.ptp(fleet_result.guardbands) > 0.0
        assert np.ptp(fleet_result.final_delta_vth_v.max(axis=1)) > 0.0

    def test_guardband_accessors(self, fleet_result):
        bands = fleet_result.guardbands
        assert bands.shape == (self.N_CHIPS,)
        assert fleet_result.guardband_quantile(0.0) \
            == pytest.approx(bands.min())
        assert fleet_result.guardband_quantile(1.0) \
            == pytest.approx(bands.max())
        assert "chips" in fleet_result.describe()
        with pytest.raises(SimulationError):
            fleet_result.guardband_quantile(1.5)


class TestFleetSubStepGroups:
    """Chips with different sub-step counts advance independently."""

    def test_wild_variation_still_matches_serial(self):
        # Capture sigma large enough that per-chip n_steps straddles
        # several ceil boundaries, forcing the grouped gather/scatter
        # path in StackedTrapPopulations.step.
        spec = FleetVariationSpec(capture_sigma=1.2,
                                  recovery_sigma=0.5,
                                  em_current_sigma=0.4)
        n_chips, n_epochs = 6, 12
        policy = RoundRobinRecoveryPolicy(recovery_slots=2,
                                          em_alternate_every=3)
        workload = ConstantWorkload(n_cores=9, utilization=0.7)
        fleet = run_fleet_lifetime_study(
            (3, 3), n_chips, workload, policy, n_epochs=n_epochs,
            variation=spec, seed=11)
        variation = spec.draw(n_chips, 11)
        for index in range(n_chips):
            simulator = SystemSimulator(
                Chip(3, 3), variation=variation.chip(index))
            reference = simulator.run(
                n_epochs, ConstantWorkload(n_cores=9, utilization=0.7),
                RoundRobinRecoveryPolicy(recovery_slots=2,
                                         em_alternate_every=3))
            assert_results_match(fleet.chip_result(index), reference,
                                 tolerance=RESULT_TOLERANCE)

    def test_stacked_traps_match_per_chip_fleet_states(self):
        """Direct kernel check: a 3-chip stack vs 3 one-chip stacks.

        Two chip sets pin both step paths of the stack, each against
        the one-chip path: per-chip sub-step counts of 1, ~6 and 64
        (three groups), and three different stress masks that all
        land on 7 sub-steps (one group covering the stack).
        """
        n_units = 2
        everything = np.ones((3, n_units), dtype=bool)
        mixed = np.array([[True, True], [True, False], [False, True]])
        for accelerations, stress in (([0.05, 0.9, 12.0], everything),
                                      ([0.95, 1.0, 0.9], mixed)):
            self._assert_stack_matches_one_chip_stacks(
                n_units, accelerations, stress)

    @staticmethod
    def _assert_stack_matches_one_chip_stacks(n_units, accelerations,
                                              stress):
        n_chips = len(accelerations)
        stacked = StackedTrapPopulations(n_chips, n_units)
        singles = [StackedTrapPopulations(1, n_units)
                   for _ in accelerations]
        dt = 3600.0
        capture = np.array([[a, a * 1.1] for a in accelerations])
        recovery = np.ones((n_chips, n_units))

        def step_all(stressing, recovery_acceleration):
            stacked.step(dt, stressing, capture, recovery_acceleration)
            for i, single in enumerate(singles):
                single.step(dt, stressing[i:i + 1], capture[i:i + 1],
                            recovery_acceleration[i:i + 1])

        for _ in range(4):
            step_all(stress, recovery)
        # And one all-recovery interval.
        step_all(np.zeros((n_chips, n_units), dtype=bool),
                 np.full((n_chips, n_units), 40.0))
        assert stacked.permanent_v.max() > 0.0, \
            "schedule must exercise the lock-in branch"
        for i, single in enumerate(singles):
            rows = slice(i * n_units, (i + 1) * n_units)
            assert np.array_equal(stacked.occupancy[rows],
                                  single.occupancy)
            assert np.array_equal(stacked.age_s[rows], single.age_s)
            assert np.array_equal(stacked.weights[rows], single.weights)
            assert np.array_equal(stacked.permanent_vth_v()[i],
                                  single.permanent_vth_v()[0])
        assert stacked.delta_vth_v().shape == (n_chips, n_units)

    def test_stacked_traps_validation(self):
        with pytest.raises(SimulationError):
            StackedTrapPopulations(0, 4)
        with pytest.raises(SimulationError):
            StackedTrapPopulations(2, 0)
        stacked = StackedTrapPopulations(2, 2)
        with pytest.raises(SimulationError):
            stacked.step(-1.0, np.ones((2, 2), dtype=bool),
                         np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(SimulationError):
            stacked.step(1.0, np.ones((3, 2), dtype=bool),
                         np.ones((2, 2)), np.ones((2, 2)))


class TestHomogeneousFleet:
    """Without variation every chip is the same chip, exactly."""

    def test_identical_chips_identical_columns(self):
        fleet = run_fleet_lifetime_study(
            (2, 2), 3, ConstantWorkload(n_cores=4, utilization=0.6),
            NoRecoveryPolicy(), n_epochs=10)
        for index in (1, 2):
            assert np.array_equal(fleet.worst_degradation[:, 0],
                                  fleet.worst_degradation[:, index])
            assert np.array_equal(fleet.final_delta_vth_v[0],
                                  fleet.final_delta_vth_v[index])

    def test_matches_lifetime_sweep_cells(self):
        """A direct fleet study reproduces the sweep's cell summaries."""
        policy = RoundRobinRecoveryPolicy(recovery_slots=1,
                                          em_alternate_every=2)
        workload = ConstantWorkload(n_cores=4, utilization=0.5)
        chips = [ChipConfig(2, 2, name=f"chip{i}") for i in range(3)]
        sweep = run_lifetime_sweep({"rr1": policy},
                                   {"flat": workload}, chips,
                                   n_epochs=8, seed=7)
        fleet = run_fleet_lifetime_study(
            (2, 2), 3, ConstantWorkload(n_cores=4, utilization=0.5),
            RoundRobinRecoveryPolicy(recovery_slots=1,
                                     em_alternate_every=2),
            n_epochs=8)
        bands = fleet.guardbands
        for index, cell in enumerate(sweep.cells):
            assert abs(cell.guardband - bands[index]) \
                <= RESULT_TOLERANCE
            assert abs(cell.final_delta_vth_v
                       - fleet.final_delta_vth_v[index].max()) \
                <= RESULT_TOLERANCE


class TestVariationDraws:
    def test_draw_matches_draw_chip(self):
        spec = FleetVariationSpec(0.1, 0.2, 0.3)
        population = spec.draw(5, seed=42)
        for index in range(5):
            chip = spec.draw_chip(index, seed=42)
            assert population.capture_scale[index] \
                == chip.capture_scale
            assert population.recovery_scale[index] \
                == chip.recovery_scale
            assert population.em_current_scale[index] \
                == chip.em_current_scale

    def test_draw_independent_of_population_size(self):
        spec = FleetVariationSpec(0.1, 0.1, 0.1)
        small = spec.draw(3, seed=9)
        large = spec.draw(8, seed=9)
        assert np.array_equal(small.capture_scale,
                              large.capture_scale[:3])

    def test_zero_sigma_is_exactly_one(self):
        population = FleetVariationSpec().draw(4, seed=1)
        assert np.all(population.capture_scale == 1.0)
        assert np.all(population.recovery_scale == 1.0)
        assert np.all(population.em_current_scale == 1.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            FleetVariationSpec(capture_sigma=-0.1)
        with pytest.raises(SimulationError):
            ChipVariation(capture_scale=0.0)
        with pytest.raises(SimulationError):
            FleetVariation(capture_scale=np.array([1.0, -1.0]),
                           recovery_scale=np.ones(2),
                           em_current_scale=np.ones(2))
        with pytest.raises(SimulationError):
            FleetVariation.none(0)

    def test_simulator_rejects_mismatched_draw(self):
        with pytest.raises(SimulationError, match="covers 2 chips"):
            run_fleet_lifetime_study(
                (2, 2), 3, ConstantWorkload(n_cores=4),
                NoRecoveryPolicy(), n_epochs=1,
                variation=FleetVariation.none(2))


class TestFleetValidation:
    def test_run_arguments(self):
        def run(n_chips=2, **overrides):
            kwargs = {"n_epochs": 1, "max_workers": 1, **overrides}
            return run_fleet_lifetime_study(
                (2, 2), n_chips, ConstantWorkload(n_cores=4),
                NoRecoveryPolicy(), **kwargs)

        with pytest.raises(SimulationError):
            run(n_epochs=0)
        with pytest.raises(SimulationError):
            run(record_every=0)
        with pytest.raises(SimulationError):
            run(0)
        with pytest.raises(SimulationError):
            run(epoch_s=0.0)

    @pytest.mark.parametrize("epoch_s", [float("nan"), float("inf")])
    def test_non_finite_epoch_length(self, epoch_s):
        # NaN passed an ``epoch_s <= 0`` check and ran to all-zero
        # guardbands; the study now refuses it before running.
        with pytest.raises(SimulationError, match="epoch_s"):
            run_fleet_lifetime_study(
                (2, 2), 3, ConstantWorkload(4, 0.5), NoRecoveryPolicy(),
                n_epochs=2, epoch_s=epoch_s, max_workers=1)

    def test_chip_result_bounds(self):
        fleet = run_fleet_lifetime_study(
            (2, 2), 2, ConstantWorkload(n_cores=4),
            NoRecoveryPolicy(), n_epochs=2)
        with pytest.raises(SimulationError):
            fleet.chip_result(2)
        with pytest.raises(SimulationError):
            fleet.chip_result(-1)


class TestFleetEmKey:
    def test_key_token_matches_byte_keyed_cache(self):
        reference = FleetEmState(3, _em_reference())
        keyed = FleetEmState(3, _em_reference())
        j = np.array([2e10, -2e10, 0.0])
        temps = np.array([360.0, 355.0, 350.0])
        for epoch in range(6):
            flip = 1.0 if epoch % 2 == 0 else -1.0
            reference.step(3600.0, flip * j, temps)
            keyed.step(3600.0, flip * j, temps,
                       key=("assignment", flip))
        assert np.array_equal(reference.progress_s, keyed.progress_s)
        assert np.array_equal(reference.void_reversible_m,
                              keyed.void_reversible_m)
        assert keyed._step_cache.hits == 4

    def test_step_cache_size_validation(self):
        with pytest.raises(SimulationError):
            FleetEmState(2, _em_reference(), step_cache_size=0)


def _em_reference():
    from repro import units
    from repro.em.line import EmStressCondition
    return EmStressCondition(current_density_a_m2=2e10,
                             temperature_k=units.celsius_to_kelvin(85.0),
                             name="test reference")


class TestBatchedEmStatistics:
    SPEC = WirePopulationSpec(n_wires=40, median_ttf_s=1e8, sigma=0.4)

    def test_matrix_min_equals_population_ttfs(self):
        matrix = sample_population_ttf_matrix(self.SPEC, n_chips=50,
                                              seed=5)
        assert matrix.shape == (50, 40)
        assert np.array_equal(matrix.min(axis=1),
                              sample_population_ttfs(self.SPEC,
                                                     n_chips=50,
                                                     seed=5))

    def test_single_group_mixed_is_plain_population(self):
        mixed = sample_mixed_population_ttfs([self.SPEC], n_chips=30,
                                             seed=2)
        assert np.array_equal(
            mixed, sample_population_ttfs(self.SPEC, n_chips=30,
                                          seed=2))

    def test_mixed_population_is_series_system(self):
        """Quantiles track the product of the groups' survivals."""
        rails = WirePopulationSpec(n_wires=30, median_ttf_s=5e7,
                                   sigma=0.3)
        stubs = WirePopulationSpec(n_wires=100, median_ttf_s=4e8,
                                   sigma=0.5)
        samples = sample_mixed_population_ttfs([rails, stubs],
                                               n_chips=4000, seed=8)
        assert samples.shape == (4000,)
        # Weakest link: dominated by (but never above) the weaker
        # group alone; empirical median within MC scatter of the
        # closed-form series combination.
        time = float(np.median(samples))
        both = 1.0 - ((1.0 - rails.chip_failure_probability(time))
                      * (1.0 - stubs.chip_failure_probability(time)))
        assert 0.45 <= both <= 0.55
        with pytest.raises(SimulationError):
            sample_mixed_population_ttfs([], n_chips=10)
        with pytest.raises(SimulationError):
            sample_mixed_population_ttfs([rails], n_chips=0)


class TestWorkAwareGates:
    def test_small_lifetime_sweep_stays_serial(self):
        # max_workers forwards to the fleet chunk executor, whose
        # work-aware gate keeps a tiny grid off the pool.
        reports = []
        run_lifetime_sweep(
            {"none": NoRecoveryPolicy()},
            {"flat": ConstantWorkload(n_cores=4)},
            [ChipConfig(2, 2, name=f"c{i}") for i in range(5)],
            n_epochs=4, max_workers=4, on_report=reports.append)
        assert reports[-1].mode == "fleet"
        assert "pool threshold" in reports[-1].serial_reason

