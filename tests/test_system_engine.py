"""Property and equivalence tests for the vectorized epoch engine.

The system simulator's hot path was rewritten array-native (PR 3):
condition-kernel lookup tables, memoized thermal / condition / aging /
EM-rate computations, and in-place masked trap updates.  These tests
pin the contract that made the rewrite safe:

* every array kernel matches its scalar origin elementwise (<= 1e-9);
* the full simulator matches the seed's scalar epoch loop (kept
  verbatim in :mod:`benchmarks.seed_system`, driven by the seed's
  per-chip policies) to 1e-10 on every ``SystemResult`` field;
* every cache (thermal steady state, condition bundle, BTI sub-step
  kernel, EM rate factors) is observably hit *and* changes nothing;
* the pooled lifetime sweep equals the serial one cell for cell.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro import units
from repro.bti.conditions import (
    ACTIVE_RECOVERY_BIAS_V,
    BtiConditionKernels,
    BtiRecoveryCondition,
    BtiStressCondition,
)
from repro.bti.fleet import StackedTrapPopulations
from repro.bti.traps import TrapPopulationConfig
from repro.em.line import EmStressCondition
from repro.errors import SensorError, SimulationError
from repro.sensors.ring_oscillator import RingOscillator
from repro.solvers import cache_counters
from repro.system.aging import FleetEmState
from repro.system.chip import Chip
from repro.system.dark_silicon import DarkSiliconRotationPolicy
from repro.system.fleet import (
    FleetGroup,
    FleetSimulator,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    PhasedWorkload,
    RandomWorkload,
)
from repro.thermal.floorplan import Floorplan
from repro.thermal.network import ThermalNetworkConfig, ThermalRCNetwork

from benchmarks.seed_system import (
    SeedDarkSiliconRotationPolicy,
    SeedFleetBtiState,
    SeedRoundRobinRecoveryPolicy,
    SeedSystemSimulator,
)

KERNEL_RTOL = 1e-9
RESULT_RTOL = 1e-10

#: Temperatures straddling the kernels' default (250, 450) K grid --
#: the affine-in-1/T exponents extrapolate exactly outside it.
TEMPERATURES_K = np.array(
    [230.0, 250.0, 293.15, 322.7, 358.0, 383.15, 450.0, 475.0])


def relative_error(values, reference):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = max(float(np.abs(reference).max(initial=0.0)), 1e-30)
    return float(np.abs(values - reference).max(initial=0.0)) / scale


def result_difference(result, reference):
    """Worst scaled difference over every ``SystemResult`` field."""
    worst = 0.0
    for field in ("times_s", "worst_degradation", "mean_degradation",
                  "dropped_demand", "final_delta_vth_v",
                  "final_permanent_vth_v", "final_em_drift_ohm"):
        a = np.asarray(getattr(result, field), dtype=float)
        b = np.asarray(getattr(reference, field), dtype=float)
        assert a.shape == b.shape, field
        scale = max(float(np.abs(b).max(initial=0.0)), 1.0)
        worst = max(worst,
                    float(np.abs(a - b).max(initial=0.0)) / scale)
    assert np.array_equal(result.em_failures, reference.em_failures)
    assert result.migration_events == reference.migration_events
    assert result.n_epochs == reference.n_epochs
    for field in ("total_demand", "total_dropped_demand"):
        a, b = getattr(result, field), getattr(reference, field)
        worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    return worst


def assert_results_equal(result, reference):
    """Every ``SystemResult`` field bitwise equal."""
    for field in dataclasses.fields(result):
        a = np.asarray(getattr(result, field.name))
        b = np.asarray(getattr(reference, field.name))
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name


def counter_totals(name):
    """The named counter totals, zero-filled before first use."""
    totals = {"hits": 0, "misses": 0}
    totals.update(cache_counters().get(name, {}))
    return totals


@pytest.fixture(scope="module")
def kernels(calibration):
    config = calibration.model_config
    return BtiConditionKernels(config.acceleration,
                               config.reference_stress,
                               stress_voltage_v=0.45)


class TestConditionKernels:
    """Array kernels vs the scalar condition objects they replace."""

    def test_capture_matches_scalar(self, kernels, calibration):
        reference = calibration.model_config.reference_stress
        for utilization in (0.05, 0.3, 0.72, 1.0):
            util = np.full(TEMPERATURES_K.shape, utilization)
            accel = kernels.capture_acceleration_array(
                TEMPERATURES_K, util)
            expected = np.array([
                utilization * BtiStressCondition(
                    voltage=0.45, temperature_k=t)
                .capture_acceleration(reference)
                for t in TEMPERATURES_K])
            assert relative_error(accel, expected) <= KERNEL_RTOL

    def test_idle_cores_pin_to_exact_zero(self, kernels):
        accel = kernels.capture_acceleration_array(
            TEMPERATURES_K, np.zeros_like(TEMPERATURES_K))
        assert np.array_equal(accel, np.zeros_like(TEMPERATURES_K))

    def test_recovery_matches_scalar(self, kernels, calibration):
        params = calibration.model_config.acceleration
        for recovering in (np.zeros(len(TEMPERATURES_K), dtype=bool),
                           np.ones(len(TEMPERATURES_K), dtype=bool),
                           TEMPERATURES_K > 330.0):
            accel = kernels.recovery_acceleration_array(
                TEMPERATURES_K, recovering)
            expected = np.array([
                BtiRecoveryCondition(
                    gate_bias_v=ACTIVE_RECOVERY_BIAS_V if active
                    else 0.0,
                    temperature_k=t).acceleration(params)
                for t, active in zip(TEMPERATURES_K, recovering)])
            assert relative_error(accel, expected) <= KERNEL_RTOL

    def test_nonpositive_temperature_rejected(self, kernels):
        with pytest.raises(ValueError):
            kernels.capture_acceleration_array(
                np.array([300.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            kernels.recovery_acceleration_array(
                np.array([-10.0]), np.array([True]))


class TestOscillatorArrays:
    """Vectorized RO paths vs the scalar model, including edges."""

    def test_matches_scalar_everywhere(self):
        oscillator = RingOscillator()
        overdrive = oscillator.supply_v - oscillator.fresh_vth_v
        shifts = np.array([0.0, 1e-6, 0.013, 0.21, overdrive / 2.0,
                           overdrive, overdrive + 0.1])
        frequency = oscillator.frequency_hz_array(shifts)
        delay = oscillator.delay_degradation_array(shifts)
        loss = oscillator.frequency_degradation_array(shifts)
        for i, shift in enumerate(shifts):
            assert frequency[i] == oscillator.frequency_hz(shift)
            assert delay[i] == oscillator.delay_degradation(shift)
            assert loss[i] == oscillator.frequency_degradation(shift)
        # Exhausted overdrive: 0 Hz, infinite delay degradation.
        assert frequency[-1] == 0.0
        assert np.isinf(delay[-1])

    def test_all_positive_fast_path(self):
        oscillator = RingOscillator()
        shifts = np.linspace(0.0, 0.3, 11)
        delay = oscillator.delay_degradation_array(shifts)
        expected = np.array([oscillator.delay_degradation(s)
                             for s in shifts])
        assert np.array_equal(delay, expected)
        assert np.all(np.isfinite(delay))

    def test_negative_shift_rejected(self):
        with pytest.raises(SensorError):
            RingOscillator().frequency_hz_array(
                np.array([0.1, -1e-12]))


class TestThermalMemoization:
    """steady_state_cached: identical results, observable hits."""

    def _network(self, **kwargs):
        return ThermalRCNetwork(Floorplan.grid(3, 3), **kwargs)

    def test_hit_is_bit_identical_to_solve(self):
        network = self._network()
        cached = self._network()
        rng = np.random.default_rng(3)
        vectors = [rng.uniform(0.1, 1.5, size=9) for _ in range(4)]
        for power in vectors * 3:
            direct = network.steady_state(power)
            memoized = cached.steady_state_cached(power)
            assert np.array_equal(direct, memoized)
            assert np.array_equal(cached.temperatures_k, direct)
        assert cached.steady_cache.misses == len(vectors)
        assert cached.steady_cache.hits == 2 * len(vectors)

    def test_returned_array_is_a_private_copy(self):
        network = self._network()
        power = np.full(9, 0.8)
        first = network.steady_state_cached(power)
        first += 1e6
        again = network.steady_state_cached(power)
        assert again.max() < 1e5

    def test_quantized_mode_coalesces_nearby_powers(self):
        network = self._network(steady_cache_quantum_w=1e-3)
        base = np.full(9, 0.75)
        first = network.steady_state_cached(base)
        second = network.steady_state_cached(base + 1e-5)
        assert np.array_equal(first, second)
        assert network.steady_cache.hits == 1

    def test_lru_capacity_is_bounded(self):
        network = self._network(steady_cache_size=2)
        for scale in (0.2, 0.4, 0.6, 0.8):
            network.steady_state_cached(np.full(9, scale))
        assert len(network.steady_cache) == 2


class TestFleetBtiEquivalence:
    """One-chip trap stack vs the seed's fancy-indexed loop."""

    N_UNITS = 8
    DT_S = units.hours(1.0)

    def _pair(self):
        return StackedTrapPopulations(1, self.N_UNITS), \
            SeedFleetBtiState(self.N_UNITS)

    def _step(self, state, seed_state, stressing, capture, recovery,
              kernel_key=None):
        state.step(self.DT_S, stressing[None, :], capture[None, :],
                   recovery[None, :], kernel_key=kernel_key)
        seed_state.step(self.DT_S, stressing, capture, recovery)

    def _compare(self, state, seed_state, n_epochs):
        assert relative_error(state.occupancy,
                              seed_state.occupancy) <= RESULT_RTOL
        assert relative_error(state.weights,
                              seed_state.weights) <= RESULT_RTOL
        assert relative_error(state.permanent_v,
                              seed_state.permanent_v) <= RESULT_RTOL
        assert relative_error(state.delta_vth_v()[0],
                              seed_state.delta_vth_v()) <= RESULT_RTOL
        # The stack adds each epoch length once; the seed sums
        # dt / n_steps once per sub-step, which rounds differently for
        # most sub-step counts.
        assert state.time_s == n_epochs * self.DT_S
        assert seed_state.time_s == pytest.approx(state.time_s,
                                                  rel=1e-12)

    def test_random_schedule_matches_seed(self):
        state, seed_state = self._pair()
        rng = np.random.default_rng(17)
        for _ in range(60):
            stressing = rng.random(self.N_UNITS) < 0.7
            capture = rng.uniform(0.2, 40.0, self.N_UNITS)
            recovery = rng.uniform(1.0, 2000.0, self.N_UNITS)
            self._step(state, seed_state, stressing, capture, recovery)
        assert state.permanent_v.max() > 0.0, \
            "schedule must exercise the lock-in branch"
        self._compare(state, seed_state, 60)

    def test_cyclic_schedule_hits_kernel_cache(self):
        state, seed_state = self._pair()
        patterns = []
        for shift in range(4):
            stressing = np.ones(self.N_UNITS, dtype=bool)
            stressing[shift * 2:(shift + 1) * 2] = False
            patterns.append((stressing,
                             np.where(stressing, 12.0, 0.0),
                             np.where(stressing, 1.0, 900.0)))
        before = counter_totals("bti.fleet.kernels")
        for epoch in range(48):
            self._step(state, seed_state, *patterns[epoch % 4],
                       kernel_key=epoch % 4)
        after = counter_totals("bti.fleet.kernels")
        assert after["misses"] - before["misses"] == 4
        assert after["hits"] - before["hits"] == 44
        self._compare(state, seed_state, 48)

    def test_all_resting_fleet_only_drains(self):
        state, seed_state = self._pair()
        stressed = np.ones(self.N_UNITS, dtype=bool)
        accel = np.full(self.N_UNITS, 10.0)
        self._step(state, seed_state, stressed, accel, accel)
        self._step(state, seed_state, ~stressed, accel,
                   np.full(self.N_UNITS, 500.0))
        assert np.all(state.occupancy <= 1.0)
        self._compare(state, seed_state, 2)


class TestKernelMemo:
    """The BTI kernel memo: one entry per row-block kernel, as many as
    its byte budget holds, at most 64."""

    N_UNITS = 4

    def _cycle(self, stack, n_keys, rounds):
        for _ in range(rounds):
            for key in range(n_keys):
                stressing = np.ones((1, self.N_UNITS), dtype=bool)
                capture = np.full((1, self.N_UNITS), 1.0 + key)
                stack.step(units.hours(1.0), stressing, capture,
                           np.ones((1, self.N_UNITS)), kernel_key=key)

    def test_holds_a_64_kernel_cycle(self):
        stack = StackedTrapPopulations(1, self.N_UNITS)
        before = counter_totals("bti.fleet.kernels")
        self._cycle(stack, 64, rounds=3)
        after = counter_totals("bti.fleet.kernels")
        assert after["misses"] - before["misses"] == 64
        assert after["hits"] - before["hits"] == 128
        assert len(stack.kernel_cache) == 64

    def test_capacity_follows_the_budget(self):
        import repro.bti.fleet as bti_fleet

        def capacity(n_chips, n_units, n_bins):
            config = TrapPopulationConfig(n_bins=n_bins)
            return StackedTrapPopulations(
                n_chips, n_units, config).kernel_cache.maxsize

        # At 64 bins a full 256-row block kernel is 266 KB, so the
        # budget holds more than the 64-entry cap.
        block_bytes = 256 * (16 * 64 + 17)
        assert bti_fleet._KERNEL_MEMO_BYTES // block_bytes > 64
        assert capacity(1, 256, 64) == 64
        assert capacity(3, 100, 64) == 64
        # Wide bins make a block kernel 4 MB: the budget binds.
        wide = 256 * (16 * 1024 + 17)
        assert capacity(3, 100, 1024) \
            == bti_fleet._KERNEL_MEMO_BYTES // wide == 4
        # A narrow stack's kernels are only as tall as the stack.
        assert capacity(1, 4, 1024) == 64
        stack = StackedTrapPopulations(1, self.N_UNITS,
                                       TrapPopulationConfig(n_bins=1024))
        self._cycle(stack, 70, rounds=1)
        assert len(stack.kernel_cache) == 64


class TestOneTrapEngine:
    """The system simulator runs on the fleet's stacked trap engine."""

    def test_simulator_bti_is_a_one_chip_stack(self, monkeypatch):
        built = []
        original = FleetSimulator.__init__

        def spy(self, *args):
            original(self, *args)
            built.append(self)

        monkeypatch.setattr(FleetSimulator, "__init__", spy)
        before = counter_totals("fleet.engine")
        SystemSimulator(Chip(2, 2)).run(
            3, ConstantWorkload(n_cores=4, utilization=0.5),
            NoRecoveryPolicy())
        after = counter_totals("fleet.engine")
        # The run is one advance of one one-chip FleetSimulator.
        assert len(built) == 1
        bti = built[0].bti
        assert isinstance(bti, StackedTrapPopulations)
        assert (bti.n_chips, bti.n_units) == (1, 4)
        assert built[0].epoch == 3
        assert after["chips"] - before.get("chips", 0) == 1
        assert after["epochs"] - before.get("epochs", 0) == 3

    def test_one_kernel_build_per_distinct_assignment(self):
        keys = set()

        class RecordingPolicy(RoundRobinRecoveryPolicy):
            def assign(self, *args):
                assignment = super().assign(*args)
                keys.add((assignment.utilization.tobytes(),
                          assignment.bti_recovering.tobytes(),
                          assignment.em_recovering.tobytes()))
                return assignment

        simulator = SystemSimulator(Chip(2, 3))
        before = counter_totals("bti.fleet.kernels")
        simulator.run(24, ConstantWorkload(n_cores=6, utilization=0.5),
                      RecordingPolicy(recovery_slots=1,
                                      em_alternate_every=4))
        after = counter_totals("bti.fleet.kernels")
        # The schedule repeats every 12 epochs: 6 healing positions
        # under normal current plus 3 under EM reversal (epochs 0, 4
        # and 8), so later epochs revisit built kernels.
        assert len(keys) == 9
        assert after["misses"] - before["misses"] == len(keys)
        assert after["hits"] - before["hits"] == 24 - len(keys)

    def test_system_package_exports_no_trap_engine(self):
        import repro.system
        import repro.system.aging

        assert not [name for name in repro.system.__all__
                    if "Bti" in name]
        assert not [name for name in vars(repro.system.aging)
                    if "Bti" in name]


class TestFleetEmStepCache:
    """EM rate factors: keyed by content, observable hits, no drift."""

    def _reference(self):
        # The grid reference every fleet (and one-chip) study uses.
        return EmStressCondition(
            current_density_a_m2=Chip(2, 2).core
            .grid_current_density_a_m2,
            temperature_k=units.celsius_to_kelvin(85.0),
            name="grid reference")

    def test_repeating_patterns_hit_cache(self):
        reference = self._reference()
        state = FleetEmState(4, reference)
        twin = FleetEmState(4, reference)
        j = reference.current_density_a_m2 * np.array(
            [1.0, 0.6, -0.8, 0.0])
        temp = np.array([350.0, 342.0, 356.0, 330.0])
        for _ in range(20):
            # Fresh arrays with identical content must hit (tobytes
            # keying), and the hit trajectory must equal the twin's.
            state.step(3600.0, j.copy(), temp.copy())
            twin.step(3600.0, j, temp)
        assert state._step_cache.misses == 1
        assert state._step_cache.hits == 19
        assert np.array_equal(state.progress_s, twin.progress_s)
        assert np.array_equal(state.void_reversible_m,
                              twin.void_reversible_m)
        assert np.array_equal(state.void_locked_m, twin.void_locked_m)

    def test_temperature_validation_survives_memoization(self):
        state = FleetEmState(2, self._reference())
        with pytest.raises(SimulationError):
            state.step(3600.0, np.array([1e9, 1e9]),
                       np.array([350.0, -1.0]))


class TestSimulatorEquivalence:
    """Full epoch loop vs the seed's scalar loop (the tentpole)."""

    def test_16_core_500_epochs(self):
        workload = ConstantWorkload(n_cores=16, utilization=0.45)
        policy = RoundRobinRecoveryPolicy(recovery_slots=2,
                                          em_alternate_every=2)
        result = SystemSimulator(Chip(4, 4)).run(
            500, workload, policy)
        reference = SeedSystemSimulator(Chip(4, 4)).run(
            500, workload,
            SeedRoundRobinRecoveryPolicy(recovery_slots=2,
                                         em_alternate_every=2))
        assert result_difference(result, reference) <= RESULT_RTOL

    def test_condition_bundle_cache_is_hit(self):
        names = ("fleet.conditions", "fleet.base_conditions",
                 "thermal.steady")
        before = {name: counter_totals(name) for name in names}
        SystemSimulator(Chip(3, 3)).run(
            60, ConstantWorkload(n_cores=9, utilization=0.5),
            RoundRobinRecoveryPolicy(recovery_slots=1))
        delta = {name: {key: value - before[name][key]
                        for key, value in counter_totals(name).items()}
                 for name in names}
        bundles = delta["fleet.conditions"]
        # Round-robin at 9 cores cycles through 9 healing positions
        # times 2 EM polarities (em_alternate_every=2).
        assert bundles["misses"] <= 18
        assert bundles["hits"] >= 42
        # Only base-memo misses ever reach the thermal cache, and the
        # two EM polarities of a healing position share one power
        # vector.
        thermal = delta["thermal.steady"]
        assert thermal["hits"] + thermal["misses"] \
            == delta["fleet.base_conditions"]["misses"]
        assert thermal["misses"] <= 9

    def test_each_run_starts_fresh(self):
        # A stateful workload: an AR(1) stream that refuses to rewind.
        workload = RandomWorkload(n_cores=4, seed=5)
        simulator = SystemSimulator(Chip(2, 2))
        first = simulator.run(30, workload, NoRecoveryPolicy())
        second = simulator.run(30, workload, NoRecoveryPolicy())
        assert_results_equal(first, second)
        # The caller's workload was never stepped.
        assert workload.demand(0) == RandomWorkload(
            n_cores=4, seed=5).demand(0)

    def test_phased_multi_group_fleet_matches_seed(self):
        # Every chip of a phased, multi-group fleet without variation
        # against the seed's scalar loop and per-chip policies: an
        # oracle outside the epoch loop and the batched policies that
        # the one-chip facade and the fleet share.
        n_epochs = 60
        seed_policies = (
            lambda: SeedRoundRobinRecoveryPolicy(
                recovery_slots=1, em_alternate_every=3),
            lambda: SeedRoundRobinRecoveryPolicy(recovery_slots=2),
            lambda: SeedDarkSiliconRotationPolicy(
                Chip(2, 3), n_dark=2, dwell_epochs=3))
        groups = (
            FleetGroup(n_chips=3,
                       workload=DiurnalWorkload(n_cores=6,
                                                period_epochs=14),
                       policy=RoundRobinRecoveryPolicy(
                           recovery_slots=1, em_alternate_every=3),
                       phases=(0, 5, 5)),
            FleetGroup(n_chips=2,
                       workload=RandomWorkload(n_cores=6, seed=9),
                       policy=RoundRobinRecoveryPolicy(
                           recovery_slots=2),
                       phases=(0, 4)),
            FleetGroup(n_chips=3,
                       workload=DiurnalWorkload(n_cores=6,
                                                period_epochs=10),
                       policy=DarkSiliconRotationPolicy(
                           Chip(2, 3), n_dark=2, dwell_epochs=3),
                       phases=(2, 2, 7)),
        )
        fleet = run_fleet_lifetime_study(
            (2, 3), groups=groups, n_epochs=n_epochs, record_every=4)
        chip = 0
        for group, seed_policy in zip(groups, seed_policies):
            for phase in group.phases:
                workload = copy.deepcopy(group.workload)
                if phase:
                    workload = PhasedWorkload(workload, phase)
                reference = SeedSystemSimulator(Chip(2, 3)).run(
                    n_epochs, workload, seed_policy(), record_every=4)
                assert result_difference(
                    fleet.chip_result(chip), reference) <= RESULT_RTOL
                chip += 1

    def test_lost_demand_fraction_ignores_record_every(self):
        # Demand exceeds the non-healing capacity -> drops every epoch.
        workload = ConstantWorkload(n_cores=9, utilization=1.0)
        results = [
            SystemSimulator(Chip(3, 3)).run(
                48, workload,
                RoundRobinRecoveryPolicy(recovery_slots=2),
                record_every=every)
            for every in (1, 5)]
        assert results[0].lost_demand_fraction > 0.0
        assert results[0].lost_demand_fraction \
            == results[1].lost_demand_fraction
        # 2 of 9 cores heal each epoch; the rest saturate at 1.0.
        assert results[0].lost_demand_fraction \
            == pytest.approx(2.0 / 9.0)

    def test_no_demand_means_no_lost_fraction(self):
        result = SystemSimulator(Chip(2, 2)).run(
            4, ConstantWorkload(n_cores=4, utilization=0.0),
            NoRecoveryPolicy())
        assert result.lost_demand_fraction == 0.0


class TestFloorplanGridNames:
    def test_large_grids_have_unique_names(self):
        floorplan = Floorplan.grid(16, 16)
        names = [block.name for block in floorplan.blocks]
        assert len(names) == 256
        assert len(set(names)) == 256

    def test_small_grid_keeps_historical_names(self):
        floorplan = Floorplan.grid(3, 3)
        assert [block.name for block in floorplan.blocks][:4] \
            == ["core00", "core01", "core02", "core10"]


class TestLifetimeSweep:
    """run_lifetime_sweep: grid fan-out, determinism, accessors."""

    POLICIES = {
        "none": NoRecoveryPolicy(),
        "rr2": RoundRobinRecoveryPolicy(recovery_slots=2,
                                        em_alternate_every=2),
    }
    WORKLOADS = {
        "flat": ConstantWorkload(n_cores=9, utilization=0.6),
        "random": RandomWorkload(n_cores=9, mean_utilization=0.5),
    }
    CHIPS = [ChipConfig(3, 3)]

    def _sweep(self, **kwargs):
        return run_lifetime_sweep(self.POLICIES, self.WORKLOADS,
                                  self.CHIPS, n_epochs=36, seed=7,
                                  **kwargs)

    def test_pool_matches_serial(self):
        serial = self._sweep(max_workers=1)
        pooled = self._sweep(max_workers=2)
        assert pooled.cells == serial.cells

    def test_grid_order_and_accessors(self):
        result = self._sweep(max_workers=1)
        assert len(result) == 4
        assert [cell.policy for cell in result.cells] \
            == ["none", "none", "rr2", "rr2"]
        assert result.cell("rr2", "flat", "3x3").policy == "rr2"
        guardbands = result.column("guardband")
        assert guardbands.shape == (4,)
        assert np.all(guardbands > 0.0)
        # Healing must beat the baseline on its own worst case.
        assert result.best_policy() == "rr2"
        table = result.table()
        assert "policy" in table and "rr2" in table
        with pytest.raises(SimulationError):
            result.column("not_a_column")
        with pytest.raises(KeyError):
            result.cell("rr2", "flat", "9x9")

    def test_policy_factory_receives_the_cell_chip(self):
        seen = []

        def factory(chip):
            seen.append(chip.n_cores)
            return NoRecoveryPolicy()

        result = run_lifetime_sweep(
            {"factory": factory}, {"flat": self.WORKLOADS["flat"]},
            [ChipConfig(2, 2), ChipConfig(3, 3)],
            n_epochs=4, max_workers=1)
        assert len(result) == 2
        assert seen == [4, 9]

    def test_seed_controls_random_workloads(self):
        first = self._sweep(max_workers=1)
        again = self._sweep(max_workers=1)
        differently = run_lifetime_sweep(
            self.POLICIES, self.WORKLOADS, self.CHIPS,
            n_epochs=36, seed=8, max_workers=1)
        assert first.cells == again.cells
        random_cells = [cell for cell in first.cells
                        if cell.workload == "random"]
        changed = [cell for cell, other in
                   zip(random_cells, (c for c in differently.cells
                                      if c.workload == "random"))
                   if cell != other]
        assert changed, "reseeding must reach RandomWorkload cells"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SimulationError):
            run_lifetime_sweep(
                self.POLICIES, self.WORKLOADS,
                [ChipConfig(3, 3), ChipConfig(3, 3)], n_epochs=2)

    def test_invalid_grid_rejected(self):
        with pytest.raises(SimulationError):
            run_lifetime_sweep({}, self.WORKLOADS, self.CHIPS,
                               n_epochs=2)
        with pytest.raises(SimulationError):
            self._sweep(record_every=0)
