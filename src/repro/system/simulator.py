"""The one-chip system study of Fig. 12(b), run on the fleet engine.

Each epoch the engine:

1. asks the workload for the compute demand,
2. asks the policy which cores run, which heal, and how the demand is
   spread (migrating work away from healing cores),
3. solves the thermal network for per-core temperatures,
4. advances the per-core BTI and EM states under the resulting
   stress/recovery conditions, and
5. records the chip's performance envelope.

:class:`SystemSimulator` is a one-chip study of
:class:`~repro.system.fleet.FleetSimulator`: the same epoch loop,
condition memos and stacked trap engine a fleet study runs, so a chip
alone and the same chip inside a fleet follow one code path.  The
output exposes the Fig. 12(b) observables directly: the worst-core
performance degradation over time with and without scheduled
recovery, the implied guardband, and EM failure times of the local
grids.

The result, variation and policy/workload protocol types live with
the engine in :mod:`repro.system.fleet` and are re-exported here.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import units
from repro.errors import SimulationError
from repro.system.chip import Chip
from repro.system.fleet import (
    ChipVariation,
    FleetVariation,
    SchedulingPolicy,
    SystemResult,
    Workload,
    _fleet_study,
    base_epoch_conditions,
)

__all__ = ["ChipVariation", "SchedulingPolicy", "SystemResult",
           "SystemSimulator", "Workload", "base_epoch_conditions"]


class SystemSimulator:
    """Drives a chip + workload + policy through its lifetime.

    A thin facade over a one-chip
    :class:`~repro.system.fleet.FleetSimulator` on :attr:`chip`.
    """

    def __init__(self, chip: Chip,
                 epoch_s: float = units.hours(1.0),
                 variation: Optional[ChipVariation] = None):
        if not (math.isfinite(epoch_s) and epoch_s > 0.0):
            raise SimulationError("epoch_s must be finite and positive")
        self.chip = chip
        self.epoch_s = epoch_s
        self.variation = variation or ChipVariation()

    def run(self, n_epochs: int, workload: Workload,
            policy: SchedulingPolicy,
            record_every: int = 1) -> SystemResult:
        """Simulate ``n_epochs`` epochs and collect the timeline.

        Every call starts from a fresh (unaged) chip, so two calls
        with equal inputs return equal results.  The run steps a deep
        copy of ``workload``, which stays untouched; ``policy`` is used
        as is (it may hold the live chip, as
        :class:`~repro.system.dark_silicon.DarkSiliconRotationPolicy`
        does), so a stateful policy's cursor carries over to the next
        call.  The chip's thermal network is left holding the last
        epoch's temperatures.

        Args:
            n_epochs: horizon in epochs.
            workload: demand generator.
            policy: scheduling policy.
            record_every: decimation factor of the recorded timeline.

        Raises:
            SimulationError: for ``n_epochs`` or ``record_every`` below 1
                (the study checks both before anything runs).
        """
        v = self.variation
        _, study = _fleet_study(
            self.chip, 1, workload, lambda _chip: policy,
            n_epochs=n_epochs, epoch_s=self.epoch_s,
            record_every=record_every,
            variation=FleetVariation(
                capture_scale=np.array([v.capture_scale]),
                recovery_scale=np.array([v.recovery_scale]),
                em_current_scale=np.array([v.em_current_scale])),
            seed=0)
        simulator = study.simulator(self.chip)
        simulator.advance(n_epochs)
        return simulator.result().chip_result(0)
