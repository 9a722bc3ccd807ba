"""Verbatim pre-vectorization replicas of the system epoch loop.

The vectorized epoch engine (condition-kernel lookup tables, memoized
thermal steady state, hoisted/memoized fleet-BTI sub-step kernels,
array-native power/degradation math) must match the original scalar
path to 1e-10 on every ``SystemResult`` field.  These classes keep
that original path alive, byte for byte, as the timing baseline and
the equivalence oracle for ``benchmarks/test_system_engine.py`` and
``tests/test_system_engine.py``:

* :class:`SeedFleetBtiState` -- the seed's one-chip trap state as it
  was: the fill/drain/lock-in factors recomputed inside every
  sub-step, applied with boolean fancy indexing.
* :class:`SeedSystemSimulator` -- ``SystemSimulator`` as it was:
  per-core ``BtiStressCondition`` / ``BtiRecoveryCondition`` objects
  and ``math.exp`` per epoch, a per-core power list comprehension, an
  uncached thermal solve, and a scalar ``delay_degradation`` loop.

The only deliberate difference is that the replica also accumulates
``total_demand`` / ``total_dropped_demand`` (two scalar adds per
epoch) so the fixed ``SystemResult.lost_demand_fraction`` compares
field-for-field across both paths.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro import units
from repro.bti.calibration import BtiCalibration, default_calibration
from repro.bti.conditions import (
    ACTIVE_RECOVERY_BIAS_V,
    BtiRecoveryCondition,
    BtiStressCondition,
)
from repro.bti.traps import TrapPopulationConfig
from repro.em.line import EmStressCondition
from repro.errors import SimulationError
from repro.solvers import FactorizationCache
from repro.system.aging import FleetEmState
from repro.system.chip import Chip
from repro.system.simulator import SystemResult


class SeedFleetBtiState:
    """The seed's per-sub-step fancy-indexed trap update, verbatim."""

    def __init__(self, n_units: int,
                 config: Optional[TrapPopulationConfig] = None,
                 kernel_cache_size: int = 64):
        if n_units < 1:
            raise SimulationError("n_units must be at least 1")
        self.n_units = n_units
        self.config = config or TrapPopulationConfig(n_bins=64)
        cfg = self.config
        self.tau_c = np.logspace(math.log10(cfg.tau_min_s),
                                 math.log10(cfg.tau_max_s), cfg.n_bins)
        fresh_weight = cfg.vth_full_shift_v / cfg.n_bins
        self.weights = np.full((n_units, cfg.n_bins), fresh_weight)
        self.occupancy = np.zeros((n_units, cfg.n_bins))
        self.age_s = np.zeros((n_units, cfg.n_bins))
        self.permanent_v = np.zeros(n_units)
        self.time_s = 0.0
        self.kernel_cache = FactorizationCache(
            maxsize=kernel_cache_size, name="system.aging.kernels")
        shape = (n_units, cfg.n_bins)
        self._buf_a = np.empty(shape)
        self._buf_b = np.empty(shape)
        self._buf_c = np.empty(shape)
        self._mask = np.empty(shape, dtype=bool)
        self._mask_b = np.empty(shape, dtype=bool)

    # -- observables ----------------------------------------------------

    def delta_vth_v(self) -> np.ndarray:
        """Per-unit total threshold shift (volts)."""
        return self.recoverable_vth_v() + self.permanent_v

    def recoverable_vth_v(self) -> np.ndarray:
        """Per-unit recoverable shift (volts)."""
        # Fused multiply-reduce: no (n_units, n_bins) temporary.
        return np.einsum("ij,ij->i", self.occupancy, self.weights)

    def step(self, dt_s: float, stressing: np.ndarray,
             capture_acceleration: np.ndarray,
             recovery_acceleration: np.ndarray) -> None:
        if dt_s < 0.0:
            raise SimulationError("dt_s must be non-negative")
        stressing = np.asarray(stressing, dtype=bool)
        capture = np.asarray(capture_acceleration, dtype=float)
        recovery = np.asarray(recovery_acceleration, dtype=float)
        for array in (stressing, capture, recovery):
            if array.shape != (self.n_units,):
                raise SimulationError(
                    f"per-unit arrays must have shape ({self.n_units},)")
        cfg = self.config
        peak_accel = float(capture[stressing].max()) \
            if np.any(stressing) else 1.0
        n_steps = int(np.ceil(dt_s * max(peak_accel, 1e-12)
                              / max(cfg.lock_age_s / 8.0, 1e-9)))
        n_steps = min(max(n_steps, 1), 64)
        step = dt_s / n_steps
        tau_e = cfg.emission_scale * self.tau_c
        for _ in range(n_steps):
            equivalent = np.where(stressing, capture * step, 0.0)
            if np.any(stressing):
                fill = -np.expm1(-equivalent[stressing, None]
                                 / self.tau_c[None, :])
                self.occupancy[stressing] += (
                    (1.0 - self.occupancy[stressing]) * fill)
            resting = ~stressing
            if np.any(resting):
                drain = np.exp(-step * recovery[resting, None]
                               / tau_e[None, :])
                self.occupancy[resting] *= drain
            occupied = self.occupancy >= cfg.age_on_occupancy
            emptied = self.occupancy <= cfg.age_off_occupancy
            self.age_s += np.where(occupied, equivalent[:, None], 0.0)
            self.age_s[emptied] = 0.0
            if cfg.lock_rate_per_s > 0.0 and np.any(stressing):
                aged = (self.age_s > cfg.lock_age_s) \
                    & stressing[:, None]
                if np.any(aged):
                    fraction = -np.expm1(
                        -cfg.lock_rate_per_s * equivalent)[:, None]
                    converted_v = np.where(
                        aged, self.weights * self.occupancy * fraction,
                        0.0)
                    self.permanent_v += converted_v.sum(axis=1)
                    new_weights = np.where(
                        aged,
                        self.weights * (1.0 - self.occupancy * fraction),
                        self.weights)
                    remaining_charge = self.weights * self.occupancy \
                        - converted_v
                    self.occupancy = np.where(
                        aged & (new_weights > 0.0),
                        remaining_charge / np.maximum(new_weights, 1e-300),
                        self.occupancy)
                    self.weights = new_weights
            self.time_s += step


class SeedSystemSimulator:
    """The seed's scalar per-epoch simulator loop, verbatim."""

    def __init__(self, chip: Chip,
                 calibration: Optional[BtiCalibration] = None,
                 em_reference: Optional[EmStressCondition] = None,
                 epoch_s: float = units.hours(1.0)):
        if epoch_s <= 0.0:
            raise SimulationError("epoch_s must be positive")
        self.chip = chip
        self.calibration = calibration or default_calibration()
        self.epoch_s = epoch_s
        n = chip.n_cores
        population = self.calibration.model_config.population
        self.bti = SeedFleetBtiState(
            n, replace(population, n_bins=64))
        self.em_reference = em_reference or EmStressCondition(
            current_density_a_m2=chip.core.grid_current_density_a_m2,
            temperature_k=units.celsius_to_kelvin(85.0),
            name="grid reference")
        self.em = FleetEmState(n, self.em_reference)
        self._accel_params = self.calibration.model_config.acceleration
        self._reference_stress = \
            self.calibration.model_config.reference_stress

    def _capture_acceleration(self, utilization: np.ndarray,
                              temps_k: np.ndarray) -> np.ndarray:
        accel = np.zeros(len(utilization))
        for i, (util, temp) in enumerate(zip(utilization, temps_k)):
            if util <= 0.0:
                continue
            condition = BtiStressCondition(
                voltage=self.chip.core.stress_voltage_v,
                temperature_k=float(temp))
            accel[i] = util * condition.capture_acceleration(
                self._reference_stress)
        return accel

    def _recovery_acceleration(self, bti_recovering: np.ndarray,
                               temps_k: np.ndarray) -> np.ndarray:
        accel = np.ones(len(bti_recovering))
        for i, temp in enumerate(temps_k):
            bias = ACTIVE_RECOVERY_BIAS_V if bti_recovering[i] else 0.0
            condition = BtiRecoveryCondition(
                gate_bias_v=bias, temperature_k=float(temp))
            accel[i] = condition.acceleration(self._accel_params)
        return accel

    def run(self, n_epochs: int, workload, policy,
            record_every: int = 1) -> SystemResult:
        if n_epochs < 1:
            raise SimulationError("n_epochs must be at least 1")
        if record_every < 1:
            raise SimulationError("record_every must be at least 1")
        n = self.chip.n_cores
        oscillator = self.chip.core.oscillator
        previous_utilization: Optional[np.ndarray] = None
        previous_recovering = np.zeros(n, dtype=bool)
        migration_events = 0
        total_demand = 0.0
        total_dropped = 0.0
        times: List[float] = []
        worst: List[float] = []
        mean: List[float] = []
        dropped: List[float] = []
        for epoch in range(n_epochs):
            demand = workload.demand(epoch)
            assignment = policy.assign(
                epoch, demand, self.bti.delta_vth_v(),
                previous_utilization)
            powers = np.array([
                self.chip.core.recovery_power_w
                if assignment.bti_recovering[i]
                else self.chip.core.power_w(
                    float(assignment.utilization[i]))
                for i in range(n)])
            temps = self.chip.thermal.steady_state(powers)
            stressing = ~assignment.bti_recovering
            capture = self._capture_acceleration(
                assignment.utilization, temps)
            active = stressing & (assignment.utilization > 0.0)
            recovery = self._recovery_acceleration(
                assignment.bti_recovering, temps)
            capture_safe = np.where(capture > 0.0, capture, 1.0)
            self.bti.step(self.epoch_s, active, capture_safe, recovery)
            j = (self.chip.core.grid_current_density_a_m2
                 * assignment.utilization)
            j = np.where(assignment.em_recovering, -j, j)
            self.em.step(self.epoch_s, j, temps)
            migration_events += int(np.count_nonzero(
                assignment.bti_recovering & ~previous_recovering))
            previous_recovering = assignment.bti_recovering
            previous_utilization = assignment.utilization
            total_demand += demand
            total_dropped += assignment.dropped_demand
            if (epoch + 1) % record_every == 0 or epoch == n_epochs - 1:
                degradation = np.array([
                    oscillator.delay_degradation(float(dv))
                    for dv in self.bti.delta_vth_v()])
                times.append((epoch + 1) * self.epoch_s)
                worst.append(float(degradation.max()))
                mean.append(float(degradation.mean()))
                dropped.append(assignment.dropped_demand)
        read_t = float(np.max(self.chip.thermal.temperatures_k))
        return SystemResult(
            times_s=np.array(times),
            worst_degradation=np.array(worst),
            mean_degradation=np.array(mean),
            dropped_demand=np.array(dropped),
            final_delta_vth_v=self.bti.delta_vth_v(),
            final_permanent_vth_v=self.bti.permanent_v.copy(),
            final_em_drift_ohm=self.em.delta_resistance_ohm(),
            em_failures=self.em.failed(read_t),
            migration_events=migration_events,
            n_epochs=n_epochs,
            total_demand=total_demand,
            total_dropped_demand=total_dropped)
