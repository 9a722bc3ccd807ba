"""Scheduling policies: which cores run, which cores heal.

A policy decides for ``k`` cohorts at once -- the cohorts of one fleet
group, or the one chip of a system study.  It turns (epoch, the
``(k,)`` demands, the ``(k, n_cores)`` aging observables) into one
:class:`CoreAssignment`: per-core utilizations plus per-core recovery
flags, one row per cohort.  The baseline :class:`NoRecoveryPolicy`
never heals; :class:`RoundRobinRecoveryPolicy` rotates short BTI
recovery intervals through the chip and alternates EM recovery epochs
on the active cores (the "EM active period can be scheduled
alternately with normal operation" recipe of Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class CoreAssignment:
    """One epoch's scheduling decision for ``k`` cohorts, one row each.

    Attributes:
        utilization: ``(k, n_cores)`` per-core utilization in [0, 1].
        bti_recovering: ``(k, n_cores)`` flags -- core idles with
            swapped rails (BTI active recovery; contributes no
            compute).
        em_recovering: ``(k, n_cores)`` flags -- core runs with
            reversed grid current (EM active recovery; still
            contributes compute).
        dropped_demand: ``(k,)`` demand (core-equivalents) that could
            not be placed this epoch because too few cores were
            available.
    """

    utilization: np.ndarray
    bti_recovering: np.ndarray
    em_recovering: np.ndarray
    dropped_demand: np.ndarray

    def __post_init__(self) -> None:
        shape = self.utilization.shape
        if (len(shape) != 2 or self.bti_recovering.shape != shape
                or self.em_recovering.shape != shape
                or self.dropped_demand.shape != shape[:1]):
            raise SimulationError("assignment arrays must align")
        low = self.utilization.min(initial=0.0)
        high = self.utilization.max(initial=0.0)
        if low < 0.0 or high > 1.0:
            raise SimulationError("utilizations must be within [0, 1]")
        if np.maximum.reduce(self.utilization, axis=None, initial=0.0,
                             where=self.bti_recovering) > 0.0:
            raise SimulationError(
                "a BTI-recovering core cannot carry load")


def _spread(demand: np.ndarray, healing: np.ndarray,
            n_active: int) -> np.ndarray:
    """Distribute each row's demand evenly over the ``n_active`` cores
    of its row that do not heal (capped at 1)."""
    per_core = np.minimum(demand / n_active, 1.0)
    return np.where(healing, 0.0, per_core[:, None])


def _assignment(epoch: int, demand: np.ndarray, healing: np.ndarray,
                n_active: int, em_alternate_every: int) -> CoreAssignment:
    """Spread the demand over the ``n_active`` cores of each row that
    do not heal; every ``em_alternate_every``-th epoch (0: never) the
    loaded ones run with reversed grid current."""
    utilization = _spread(demand, healing, n_active)
    if em_alternate_every and epoch % em_alternate_every == 0:
        em = utilization > 0.0
    else:
        em = np.zeros(healing.shape, dtype=bool)
    placed = np.add.reduce(utilization, axis=1)
    return CoreAssignment(
        utilization=utilization, bti_recovering=healing,
        em_recovering=em, dropped_demand=np.maximum(demand - placed, 0.0))


@dataclass(frozen=True)
class NoRecoveryPolicy:
    """Baseline: spread the demand, never heal."""

    def assign(self, epoch: int, demand: np.ndarray, worst: np.ndarray,
               previous_utilization: Optional[np.ndarray] = None
               ) -> CoreAssignment:
        """Evenly load all cores; no recovery epochs ever."""
        shape = np.shape(worst)
        return _assignment(epoch, demand, np.zeros(shape, dtype=bool),
                           shape[1], 0)


@dataclass
class RoundRobinRecoveryPolicy:
    """Rotating BTI recovery plus alternating EM recovery.

    Every epoch, ``recovery_slots`` cores (a rotating window) go into
    BTI active recovery; their share of the demand migrates to the
    remaining cores.  Independently, every ``em_alternate_every``
    epochs the *active* cores run one epoch with reversed grid
    current -- EM active recovery costs no compute, so it can simply
    alternate with normal polarity.  Every cohort of a call gets the
    same window, so one cursor serves them all.

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

    def assign(self, epoch: int, demand: np.ndarray, worst: np.ndarray,
               previous_utilization: Optional[np.ndarray] = None
               ) -> CoreAssignment:
        """Rotate the healing window and spread demand over the rest."""
        k, n = np.shape(worst)
        if self.recovery_slots >= n:
            raise SimulationError(
                "recovery_slots must leave at least one active core")
        healing = np.zeros((k, n), dtype=bool)
        for slot in range(self.recovery_slots):
            healing[:, (self._cursor + slot) % n] = True
        self._cursor = (self._cursor + self.recovery_slots) % n
        return _assignment(epoch, demand, healing,
                           n - self.recovery_slots, self.em_alternate_every)
