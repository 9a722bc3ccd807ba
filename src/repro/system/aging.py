"""Vectorized per-core EM states for system-level simulation.

The mechanistic models in :mod:`repro.em` track a single wire with
high fidelity.  A system simulation needs the same dynamics for every
core of a fleet over years of epochs, so this module re-expresses them
with the unit (core) dimension vectorized in numpy:

* :class:`FleetEmState` -- a lumped per-core EM state built on the
  square-root stress kernel of :mod:`repro.em.lumped`: nucleation
  progress accumulates at a rate proportional to ``j^2 * kappa(T)``
  (the inverse of the closed-form nucleation time), reverses under
  reverse current, and post-nucleation void growth/refill/lock-in
  follows the same rates as :class:`repro.em.line.EmLine`.

Per-core BTI trap dynamics live in
:class:`repro.bti.fleet.StackedTrapPopulations`.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

import numpy as np

from repro.bti.fleet import StateLayout, check_state
from repro.em.line import EmLineConfig, EmStressCondition
from repro.em.lumped import LumpedEmModel
from repro.em.wire import PAPER_TEST_WIRE, Wire
from repro.errors import SimulationError
from repro.solvers import FactorizationCache

#: The stored per-unit EM state, in the order :meth:`state_arrays`
#: returns it.
_STATE_NAMES = ("progress_s", "nucleated", "void_reversible_m",
                "void_locked_m")

#: Byte budget of the step-rate memo, at most 64 entries of five
#: ``(n_units,)`` arrays each.
_STEP_MEMO_BYTES = 64 * 2 ** 20


class FleetEmState:
    """Batched lumped EM state for the local grid of each core.

    Nucleation progress is tracked as the *equivalent stress time at a
    reference condition*: a unit accrues progress at the rate
    ``j^2 kappa(T) / (j_ref^2 kappa(T_ref))`` (forward current),
    unwinds it under reverse current, and nucleates when the progress
    reaches the closed-form nucleation time of the reference
    condition.  After nucleation the void grows at the drift velocity,
    refills at ``recovery_boost`` times it under reverse current, and
    immobilizes at the calibrated lock rate.
    """

    def __init__(self, n_units: int,
                 reference: EmStressCondition,
                 wire: Wire = PAPER_TEST_WIRE,
                 config: Optional[EmLineConfig] = None):
        if n_units < 1:
            raise SimulationError("n_units must be at least 1")
        if reference.current_density_a_m2 <= 0.0:
            raise SimulationError(
                "reference condition must carry forward current")
        self.n_units = n_units
        self.wire = wire
        self.config = config or EmLineConfig()
        self.reference = reference
        self._lumped = LumpedEmModel(wire, self.config.failure_fraction)
        self.nucleation_time_ref_s = self._lumped.nucleation_time(reference)
        material = wire.material
        self._ref_rate = (reference.current_density_a_m2 ** 2
                          * material.stress_diffusivity_at(
                              reference.temperature_k))
        if self._ref_rate <= 0.0:
            raise SimulationError(
                "reference condition must carry forward current")
        self.progress_s = np.zeros(n_units)
        self.nucleated = np.zeros(n_units, dtype=bool)
        self.void_reversible_m = np.zeros(n_units)
        self.void_locked_m = np.zeros(n_units)
        self.time_s = 0.0
        # The Arrhenius/drift factors of a step depend only on
        # (dt, j, T), never on the void state, so epoch loops that
        # revisit a few (current, temperature) patterns skip both
        # exponential evaluations on a hit.  The memo's size follows
        # from the unit count under its byte budget.
        self._step_cache = FactorizationCache(
            maxsize=max(1, min(64, _STEP_MEMO_BYTES // (5 * 8 * n_units))),
            name="system.aging.steps")

    # -- state ----------------------------------------------------------

    def state_layout(self) -> StateLayout:
        """``(shape, dtype)`` of every :meth:`state_arrays` entry."""
        units, f64 = (self.n_units,), np.dtype(np.float64)
        return {"progress_s": (units, f64),
                "nucleated": (units, np.dtype(bool)),
                "void_reversible_m": (units, f64),
                "void_locked_m": (units, f64), "time_s": ((), f64)}

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The advancing state, as fresh arrays.

        Keys are ``progress_s``, ``nucleated``, ``void_reversible_m``,
        ``void_locked_m`` (each ``(n_units,)``) and ``time_s`` (0-d
        float64).  :meth:`load_state` takes the same mapping.
        """
        arrays = {name: getattr(self, name).copy()
                  for name in _STATE_NAMES}
        arrays["time_s"] = np.array(self.time_s, dtype=np.float64)
        return arrays

    def load_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Overwrite the state with a :meth:`state_arrays` mapping.

        Every array is checked before anything is written, so a
        refused mapping raises :class:`~repro.errors.SimulationError`
        and leaves the state as it was.
        """
        check_state(arrays, self.state_layout())
        for name in _STATE_NAMES:
            setattr(self, name, np.array(arrays[name]))
        self.time_s = float(arrays["time_s"])

    # -- observables ----------------------------------------------------

    def total_void_m(self) -> np.ndarray:
        """Per-unit total void length."""
        return self.void_reversible_m + self.void_locked_m

    def delta_resistance_ohm(self) -> np.ndarray:
        """Per-unit resistance drift from voiding."""
        return self.wire.void_resistance_per_m * self.total_void_m()

    def failed(self, temperature_k: float) -> np.ndarray:
        """Per-unit hard-failure flags at a read-out temperature."""
        fresh = self.wire.resistance_at(temperature_k)
        return self.delta_resistance_ohm() >= \
            self.config.failure_fraction * fresh

    def step(self, dt_s: float, current_density_a_m2: np.ndarray,
             temperature_k: np.ndarray, key=None) -> None:
        """Advance every unit by ``dt_s``.

        Args:
            dt_s: epoch length.
            current_density_a_m2: signed per-unit grid current density
                (negative = active EM recovery).
            temperature_k: per-unit grid temperature.
            key: optional hashable cache key standing in for the
                ``(dt_s, j, T)`` content.  By default the rate cache
                keys on the raw array bytes; a fleet-scale caller that
                already identifies the epoch's conditions by a compact
                token (e.g. the assignment digest) can pass it here to
                avoid hashing megabytes per epoch.  The caller must
                guarantee the key uniquely determines the inputs.
        """
        if dt_s < 0.0:
            raise SimulationError("dt_s must be non-negative")
        j = np.asarray(current_density_a_m2, dtype=float)
        temp = np.asarray(temperature_k, dtype=float)
        if j.shape != (self.n_units,) or temp.shape != (self.n_units,):
            raise SimulationError(
                f"per-unit arrays must have shape ({self.n_units},)")
        if key is None:
            key = (dt_s, j.tobytes(), temp.tobytes())
        signed_rate, forward, reverse, growth_m, healed_m = \
            self._step_cache.get_or_build(
                key, lambda: self._build_step_rates(dt_s, j, temp))
        # Nucleation progress: accrues forward, unwinds in reverse.
        self.progress_s = np.maximum(
            self.progress_s + signed_rate, 0.0)
        self.nucleated |= self.progress_s >= self.nucleation_time_ref_s
        # Void dynamics for nucleated units.  Masked full-array writes
        # replace boolean fancy indexing: the update expressions are
        # evaluated elementwise either way, so the written values are
        # bit-identical.
        growing = self.nucleated & forward
        np.add(self.void_reversible_m, growth_m,
               out=self.void_reversible_m, where=growing)
        refilling = reverse & (self.void_reversible_m > 0.0)
        np.copyto(self.void_reversible_m,
                  np.maximum(self.void_reversible_m - healed_m, 0.0),
                  where=refilling)
        # Lock-in of existing reversible void volume.
        if self.config.lock_rate_per_s > 0.0:
            locked = self.void_reversible_m * (
                -math.expm1(-self.config.lock_rate_per_s * dt_s))
            self.void_reversible_m -= locked
            self.void_locked_m += locked
        self.time_s += dt_s

    def _build_step_rates(self, dt_s: float, j: np.ndarray,
                          temp: np.ndarray):
        """State-independent rate factors for one ``(dt, j, T)`` key.

        Copies nothing: every returned array is freshly allocated and
        consumed read-only by :meth:`step`.
        """
        if np.any(temp <= 0.0):
            raise SimulationError("temperatures must be positive")
        material = self.wire.material
        # One vectorized Arrhenius/drift evaluation for the whole
        # fleet (the former per-core Python loops dominated the epoch).
        kappa = material.stress_diffusivities_at(temp)
        rate = (j * j) * kappa / self._ref_rate
        signed_rate = np.where(j >= 0.0, rate, -rate) * dt_s
        drift = np.abs(material.drift_velocities(j, temp))
        growth_m = drift * dt_s
        healed_m = self.config.recovery_boost * drift * dt_s
        return (signed_rate, j > 0.0, j < 0.0, growth_m, healed_m)
