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
* :class:`SeedNoRecoveryPolicy`, :class:`SeedRoundRobinRecoveryPolicy`
  and :class:`SeedDarkSiliconRotationPolicy` with their
  :class:`SeedCoreAssignment` -- the scheduling policies as they were
  before they decided for a group's cohorts at once: one call per
  chip and epoch on a 1-D age vector, one validated assignment per
  call, and a dark-silicon policy that holds the live chip.  The
  seed loop runs them, so the equivalence tests cover the batched
  policies too.

The only deliberate difference is that the replica also accumulates
``total_demand`` / ``total_dropped_demand`` (two scalar adds per
epoch) so the fixed ``SystemResult.lost_demand_fraction`` compares
field-for-field across both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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


# -- the per-chip scheduling policies, verbatim ------------------------------


@dataclass(frozen=True)
class SeedCoreAssignment:
    """One epoch's scheduling decision.

    Attributes:
        utilization: per-core utilization in [0, 1].
        bti_recovering: per-core flags -- core idles with swapped rails
            (BTI active recovery; contributes no compute).
        em_recovering: per-core flags -- core runs with reversed grid
            current (EM active recovery; still contributes compute).
        dropped_demand: demand (core-equivalents) that could not be
            placed this epoch because too few cores were available.
    """

    utilization: np.ndarray
    bti_recovering: np.ndarray
    em_recovering: np.ndarray
    dropped_demand: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.utilization)
        if len(self.bti_recovering) != n or len(self.em_recovering) != n:
            raise SimulationError("assignment arrays must align")
        low = self.utilization.min(initial=0.0)
        high = self.utilization.max(initial=0.0)
        if low < 0.0 or high > 1.0:
            raise SimulationError("utilizations must be within [0, 1]")
        if (self.bti_recovering & (self.utilization > 0.0)).any():
            raise SimulationError(
                "a BTI-recovering core cannot carry load")

    def cache_key(self) -> tuple:
        """A hashable digest of the assignment's full content.

        Everything the epoch engines derive from an assignment (power
        vector, thermal solve, condition-kernel lookups, signed grid
        current) is a pure function of these three arrays, so the
        scalar and fleet simulators memoize their per-assignment
        condition bundles on exactly this key.  Keying on the raw
        bytes -- never on rounded floats -- keeps distinct assignments
        distinct bit for bit.
        """
        return (self.utilization.tobytes(),
                self.bti_recovering.tobytes(),
                self.em_recovering.tobytes())


def _spread(demand: float, available: np.ndarray) -> np.ndarray:
    """Distribute demand evenly over the available cores (capped at 1)."""
    n = len(available)
    utilization = np.zeros(n)
    idx = np.nonzero(available)[0]
    if idx.size == 0:
        return utilization
    per_core = min(demand / idx.size, 1.0)
    utilization[idx] = per_core
    return utilization


@dataclass(frozen=True)
class SeedNoRecoveryPolicy:
    """Baseline: spread the demand, never heal."""

    def assign(self, epoch: int, demand: float,
               delta_vth_v: np.ndarray,
               previous_utilization: Optional[np.ndarray] = None
               ) -> SeedCoreAssignment:
        """Evenly load all cores; no recovery epochs ever."""
        n = len(delta_vth_v)
        available = np.ones(n, dtype=bool)
        utilization = _spread(demand, available)
        placed = float(utilization.sum())
        return SeedCoreAssignment(
            utilization=utilization,
            bti_recovering=np.zeros(n, dtype=bool),
            em_recovering=np.zeros(n, dtype=bool),
            dropped_demand=max(demand - placed, 0.0))


@dataclass
class SeedRoundRobinRecoveryPolicy:
    """Rotating BTI recovery plus alternating EM recovery.

    Every epoch, ``recovery_slots`` cores (a rotating window) go into
    BTI active recovery; their share of the demand migrates to the
    remaining cores.  Independently, every ``em_alternate_every``
    epochs the *active* cores run one epoch with reversed grid
    current -- EM active recovery costs no compute, so it can simply
    alternate with normal polarity.

    Attributes:
        recovery_slots: cores in BTI recovery per epoch.
        em_alternate_every: period (in epochs) of EM reverse-current
            epochs for the active cores; 0 disables EM recovery.
    """

    recovery_slots: int = 1
    em_alternate_every: int = 2
    _cursor: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.recovery_slots < 0:
            raise SimulationError("recovery_slots must be >= 0")
        if self.em_alternate_every < 0:
            raise SimulationError("em_alternate_every must be >= 0")

    def assign(self, epoch: int, demand: float,
               delta_vth_v: np.ndarray,
               previous_utilization: Optional[np.ndarray] = None
               ) -> SeedCoreAssignment:
        """Rotate the healing window and spread demand over the rest."""
        n = len(delta_vth_v)
        if self.recovery_slots >= n:
            raise SimulationError(
                "recovery_slots must leave at least one active core")
        healing = np.zeros(n, dtype=bool)
        for slot in range(self.recovery_slots):
            healing[(self._cursor + slot) % n] = True
        self._cursor = (self._cursor + self.recovery_slots) % n
        available = ~healing
        utilization = _spread(demand, available)
        placed = float(utilization.sum())
        em = np.zeros(n, dtype=bool)
        if self.em_alternate_every and \
                epoch % self.em_alternate_every == 0:
            em = available & (utilization > 0.0)
        return SeedCoreAssignment(
            utilization=utilization,
            bti_recovering=healing,
            em_recovering=em,
            dropped_demand=max(demand - placed, 0.0))


@dataclass
class SeedDarkSiliconRotationPolicy:
    """Heal the most-aged cores in the warmest dark slots.

    Attributes:
        chip: the chip (needed for neighbour lookups).
        n_dark: cores kept dark (healing) each epoch.
        heat_aware: prefer dark slots adjacent to loaded cores, so
            neighbour heat accelerates the recovery.
        dwell_epochs: minimum epochs a core stays dark once selected.
        em_alternate_every: period of EM reverse-current epochs for
            the active cores; 0 disables.
        age_weight: relative weight of wearout vs neighbour heat in
            the dark-slot score.
    """

    chip: Chip
    n_dark: int = 1
    heat_aware: bool = True
    dwell_epochs: int = 4
    em_alternate_every: int = 2
    age_weight: float = 1.0
    _dark_set: List[int] = field(default_factory=list, repr=False)
    _dwell_left: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.n_dark < self.chip.n_cores:
            raise SimulationError(
                "n_dark must leave at least one active core")
        if self.dwell_epochs < 1:
            raise SimulationError("dwell_epochs must be at least 1")
        if self.age_weight < 0.0:
            raise SimulationError("age_weight must be non-negative")

    def _score(self, delta_vth_v: np.ndarray,
               previous_utilization: Optional[np.ndarray]) -> np.ndarray:
        scale = max(float(delta_vth_v.max()), 1e-12)
        score = self.age_weight * delta_vth_v / scale
        if self.heat_aware and previous_utilization is not None:
            for index in range(self.chip.n_cores):
                neighbours = self.chip.neighbours_of(index)
                if neighbours:
                    heat = float(np.mean(
                        previous_utilization[neighbours]))
                    score[index] += 0.5 * heat
        return score

    def assign(self, epoch: int, demand: float,
               delta_vth_v: np.ndarray,
               previous_utilization: Optional[np.ndarray] = None
               ) -> SeedCoreAssignment:
        """Pick the dark set, then spread the demand over the rest."""
        n = self.chip.n_cores
        delta_vth_v = np.asarray(delta_vth_v, dtype=float)
        if delta_vth_v.shape != (n,):
            raise SimulationError(
                f"delta_vth_v must have shape ({n},)")
        if self.n_dark == 0:
            dark = np.zeros(n, dtype=bool)
        else:
            if self._dwell_left <= 0 or not self._dark_set:
                score = self._score(delta_vth_v, previous_utilization)
                self._dark_set = list(
                    np.argsort(score)[::-1][:self.n_dark])
                self._dwell_left = self.dwell_epochs
            self._dwell_left -= 1
            dark = np.zeros(n, dtype=bool)
            dark[self._dark_set] = True
        available = ~dark
        utilization = _spread(demand, available)
        placed = float(utilization.sum())
        em = np.zeros(n, dtype=bool)
        if self.em_alternate_every and \
                epoch % self.em_alternate_every == 0:
            em = available & (utilization > 0.0)
        return SeedCoreAssignment(
            utilization=utilization,
            bti_recovering=dark,
            em_recovering=em,
            dropped_demand=max(demand - placed, 0.0))
