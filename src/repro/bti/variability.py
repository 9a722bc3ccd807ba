"""Device-to-device variability of BTI in scaled technologies.

The paper's IoT motivation rests on near-threshold operation, where
"the sensitivity of transistor ON current to threshold voltages is much
higher than in super-threshold regimes".  In scaled devices BTI is not
only larger in relative terms -- it is *stochastic*: the shift is
carried by a countable number of trapped charges, so small transistors
show a distribution of shifts around the deterministic mean.

The standard description (Kaczer et al.) makes the trap count Poisson
with mean ``N(t)`` and the per-trap impact exponentially distributed
with mean ``eta``; then::

    mean(dVth)     = N * eta
    variance(dVth) = 2 * N * eta^2

This module layers that statistical envelope on any deterministic mean
model (the calibrated trap population or the compact power law) to
answer design questions like "what N-sigma margin does a million-device
near-threshold array need?" -- with and without deep healing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

from repro.errors import SimulationError


@dataclass(frozen=True)
class BtiVariabilityModel:
    """Stochastic envelope around a deterministic mean shift.

    Attributes:
        per_trap_impact_v: mean threshold impact of one trapped charge
            (``eta``); scales inversely with device area, a few mV for
            near-minimum devices in scaled nodes.
    """

    per_trap_impact_v: float = 2e-3

    def __post_init__(self) -> None:
        if self.per_trap_impact_v <= 0.0:
            raise SimulationError("per_trap_impact_v must be positive")

    # -- moments ----------------------------------------------------------

    def mean_trap_count(self, mean_shift_v: float) -> float:
        """Poisson mean implied by a deterministic mean shift."""
        if mean_shift_v < 0.0:
            raise SimulationError("mean shift must be non-negative")
        return mean_shift_v / self.per_trap_impact_v

    def std_v(self, mean_shift_v: float) -> float:
        """Standard deviation of the shift across devices."""
        count = self.mean_trap_count(mean_shift_v)
        return math.sqrt(2.0 * count) * self.per_trap_impact_v

    def quantile_v(self, mean_shift_v: float, fraction: float) -> float:
        """Shift below which ``fraction`` of devices stay (normal
        approximation; adequate for trap counts above ~10)."""
        if not 0.0 < fraction < 1.0:
            raise SimulationError("fraction must be in (0, 1)")
        return max(mean_shift_v + float(ndtri(fraction))
                   * self.std_v(mean_shift_v), 0.0)

    def worst_of_population_v(self, mean_shift_v: float,
                              n_devices: int) -> float:
        """Expected worst shift among ``n_devices`` (extreme value).

        Uses the standard normal extreme-value approximation: the
        maximum of n samples sits near the ``1 - 1/n`` quantile.
        """
        if n_devices < 1:
            raise SimulationError("n_devices must be at least 1")
        if n_devices == 1:
            return mean_shift_v
        return self.quantile_v(mean_shift_v, 1.0 - 1.0 / n_devices)

    # -- sampling -----------------------------------------------------------

    def sample(self, mean_shift_v: float, n_devices: int,
               rng: np.random.Generator) -> np.ndarray:
        """Monte Carlo shifts for ``n_devices`` (Poisson x exponential)."""
        if n_devices < 1:
            raise SimulationError("n_devices must be at least 1")
        count_mean = self.mean_trap_count(mean_shift_v)
        counts = rng.poisson(count_mean, size=n_devices)
        shifts = np.zeros(n_devices)
        # Sum of k exponentials with mean eta is Gamma(k, eta).
        occupied = counts > 0
        shifts[occupied] = rng.gamma(
            shape=counts[occupied], scale=self.per_trap_impact_v)
        return shifts

    # -- design margins ------------------------------------------------------

    def population_margin_v(self, mean_shift_v: float,
                            n_devices: int) -> float:
        """Threshold-shift budget that covers a whole device array.

        The binding constraint of an array is its worst device, so the
        array's wearout margin is the expected population maximum --
        substantially above the mean for large arrays, which is what
        makes the *mean*-reducing effect of deep healing so much more
        valuable at scale.
        """
        return self.worst_of_population_v(mean_shift_v, n_devices)


def margin_amplification(variability: BtiVariabilityModel,
                         mean_shift_v: float,
                         n_devices: int) -> float:
    """How much a population inflates the margin over the mean.

    Returns ``worst-of-n / mean``; diverges as the mean shrinks (the
    stochastic part dominates small shifts), which quantifies the
    paper's near-threshold sensitivity argument.
    """
    if mean_shift_v <= 0.0:
        raise SimulationError("mean shift must be positive")
    return variability.population_margin_v(mean_shift_v, n_devices) \
        / mean_shift_v
