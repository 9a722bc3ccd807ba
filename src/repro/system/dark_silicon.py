"""Dark-silicon-aware healing rotation (Section IV-B of the paper).

"The 'dark' parts of the chip usually lead to some 'redundant'
resources which have intrinsic OFF periods ... if these redundant
resources can be scheduled and allocated in such a way that they can be
healed by the generated heat from the neighboring active elements, the
recovery can be further sped up."

The policy keeps ``n_dark`` cores dark each epoch.  Dark cores are in
BTI active recovery; which cores go dark is chosen by a score that
prefers (a) the most-aged cores -- they need healing most -- and,
optionally, (b) cores with many *loaded* neighbours -- they will sit in
the hottest spot of the floorplan, and heat accelerates recovery.
A dwell counter prevents thrashing.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.system.chip import Chip
from repro.system.scheduler import CoreAssignment, _assignment


@dataclass(eq=False)
class DarkSiliconRotationPolicy:
    """Heal the most-aged cores in the warmest dark slots.

    Every cohort of a call picks its own dark set from its own row;
    all of them are called every epoch from the first, so one dwell
    counter serves them all.  The policy keeps the chip's neighbour
    table, not the chip, so it copies and pickles cheaply.

    Attributes:
        chip: the chip whose geometry gives the neighbour table
            (read at construction only).
        n_dark: cores kept dark (healing) each epoch.
        heat_aware: prefer dark slots adjacent to loaded cores, so
            neighbour heat accelerates the recovery.
        dwell_epochs: minimum epochs a core stays dark once selected.
        em_alternate_every: period of EM reverse-current epochs for
            the active cores; 0 disables.
        age_weight: relative weight of wearout vs neighbour heat in
            the dark-slot score.
    """

    chip: InitVar[Chip]
    n_dark: int = 1
    heat_aware: bool = True
    dwell_epochs: int = 4
    em_alternate_every: int = 2
    age_weight: float = 1.0
    _dark_set: Optional[np.ndarray] = field(default=None, init=False,
                                            repr=False)
    _dwell_left: int = field(default=0, init=False, repr=False)

    def __post_init__(self, chip: Chip) -> None:
        n = chip.n_cores
        if not 0 <= self.n_dark < n:
            raise SimulationError(
                "n_dark must leave at least one active core")
        if self.dwell_epochs < 1:
            raise SimulationError("dwell_epochs must be at least 1")
        if self.age_weight < 0.0:
            raise SimulationError("age_weight must be non-negative")
        # Core c's neighbours, padded with index n: the zero column the
        # heat score appends to the utilization.
        near = [chip.neighbours_of(index) for index in range(n)]
        self._counts = np.array([len(cores) for cores in near])
        self._neighbours = np.full((n, max(map(len, near))), n)
        for index, cores in enumerate(near):
            self._neighbours[index, :len(cores)] = cores

    def _score(self, worst: np.ndarray,
               previous_utilization: Optional[np.ndarray]) -> np.ndarray:
        scale = np.maximum(worst.max(axis=1), 1e-12)
        score = self.age_weight * worst / scale[:, None]
        if self.heat_aware and previous_utilization is not None:
            padded = np.pad(previous_utilization, ((0, 0), (0, 1)))
            heat = padded[:, self._neighbours].sum(axis=2) / self._counts
            score += 0.5 * heat
        return score

    def assign(self, epoch: int, demand: np.ndarray, worst: np.ndarray,
               previous_utilization: Optional[np.ndarray] = None
               ) -> CoreAssignment:
        """Pick the dark sets, then spread the demand over the rest."""
        n = len(self._neighbours)
        worst = np.asarray(worst, dtype=float)
        if worst.ndim != 2 or worst.shape[1] != n:
            raise SimulationError(f"worst must have shape (k, {n})")
        dark = np.zeros(worst.shape, dtype=bool)
        if self.n_dark:
            if self._dwell_left <= 0 or self._dark_set is None:
                score = self._score(worst, previous_utilization)
                self._dark_set = np.argsort(score, axis=1)[
                    :, ::-1][:, :self.n_dark]
                self._dwell_left = self.dwell_epochs
            self._dwell_left -= 1
            np.put_along_axis(dark, self._dark_set, True, axis=1)
        return _assignment(epoch, demand, dark, n - self.n_dark,
                           self.em_alternate_every)
