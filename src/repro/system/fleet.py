"""Structure-of-arrays fleet engine: the one epoch loop, for one chip
or a population.

The paper's headline results (Figs. 12-14) are population statements --
guardband reduction and EM lifetime gains across many chips -- and its
Fig. 12 system study is one chip under a run-time recovery schedule.
Both run on the epoch loop of this module, which advances every chip
of a study in lockstep (the one-chip study is
:class:`~repro.system.simulator.SystemSimulator`):

* :class:`FleetSimulator` is one population: its aging state as
  stacked arrays -- trap occupancies/ages/weights and permanent Vth in
  a :class:`~repro.bti.fleet.StackedTrapPopulations`, EM
  nucleation/void accumulators in one flat
  :class:`~repro.system.aging.FleetEmState`, the per-chip
  process-variation scales drawn up front -- plus its condition and
  kernel memos and its resumable epoch loop.  Each epoch asks every
  cohort's workload for demand and its policy for an assignment,
  then evaluates the BTI condition kernels and EM rate factors over
  the whole ``(n_chips, n_cores)`` stack in single ufunc passes.
  Base epoch conditions are computed once per distinct assignment of
  the run (memoized on its ``cache_key``) and gathered onto the chip
  rows, so condition builds scale with the distinct decisions, not
  with the cohorts.
* :class:`FleetGroup` generalizes the engine beyond "one workload, one
  policy": a population is a sequence of groups, each with its own
  workload, scheduling policy, and optional per-chip *workload phase*
  offsets.  Internally each group splits into *cohorts* -- maximal
  runs of consecutive chips sharing one phase -- and every cohort gets
  its own fresh policy/workload copy and its own per-epoch scheduling
  decision (policy calls are O(cohorts) per epoch), while the BTI/EM
  state still advances in one stacked sweep over all cohorts.  Chips
  in different timezones, racks with different healing policies, and
  a control group all batch into one tensor advance.
* :func:`run_fleet_lifetime_study` is the population entry point.  It
  normalizes its arguments once into one validated study object --
  the one :class:`~repro.system.checkpoint.FleetSession` builds too,
  and the only builder of a :class:`FleetSimulator` -- and runs it
  through one chunk loop: whole-lifetime row chunks under
  a byte budget (``max_chunk_chips`` / ``state_budget_bytes``), each
  the study's own row slice.  The parent restores any chunk a
  checkpoint directory already holds, then runs the pending ones
  in-process on one shared chip (warm thermal memo) or, with
  ``max_workers > 1`` and enough work, on a process pool.  Every
  executed chunk gets the same bounded retries and failure
  attribution wherever it runs.  Results merge in chunk order --
  bitwise identical for every worker count, completion order and mix
  of restored chunks -- and one :class:`~repro.solvers.SweepReport`
  describes every run.  ``state_budget_bytes`` is a *per-worker*
  budget.

Exactness: chip ``i`` of a fleet advances bit-identically to a
one-chip study (:class:`~repro.system.simulator.SystemSimulator`
built with ``variation.chip(i)``), driven by the chip's
(phase-shifted) workload and a fresh copy of its group's policy --
every row gets :func:`base_epoch_conditions` of its cohort's
assignment times its own variation scales, and the stacked BTI/EM
steps are elementwise in the unit dimension (see
:mod:`repro.bti.fleet`).  The one coupling is
the aging observable handed to the policy: a cohort's policy sees the
*cohort-worst* per-core shift.  With no variation the cohort's rows
are identical, so this equals every member's own observable and the
equivalence is exact for any policy; with variation it stays exact for
policies that ignore the shift values (the round-robin and
no-recovery policies) and for singleton cohorts.  The same contract
makes chunked execution invariant in the chunk size.
"""

from __future__ import annotations

import copy
import math
import operator
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import (Callable, Dict, List, Optional, Protocol, Sequence,
                    Tuple, Union)

import numpy as np

from repro import units
from repro.bti.calibration import default_calibration
from repro.bti.conditions import BtiConditionKernels
from repro.bti.fleet import StackedTrapPopulations
from repro.em.line import EmStressCondition
from repro.errors import CheckpointError, SimulationError, TaskError
from repro.solvers import FactorizationCache, record_counters
from repro.solvers.sweep import (
    ChunkRecord,
    ChunkTask,
    SweepReport,
    _merge_cache_deltas,
    _run_task,
    _TaskOutput,
    available_cpus,
    chunk_tasks,
    task_seed_sequence,
)
from repro.system.aging import FleetEmState
from repro.system.chip import Chip
from repro.system.scheduler import CoreAssignment
from repro.system.sweeps import ChipConfig
from repro.system.workload import PhasedWorkload

#: Trap-bin count of the system-level population (the fleet engine
#: always runs the 64-bin configuration).
_FLEET_N_BINS = 64

#: Memory budget of each condition-side memo: the EM step rates, the
#: epoch condition bundles and the per-assignment base conditions (the
#: BTI kernel memo bounds itself, see :mod:`repro.bti.fleet`).
_MEMO_BUDGET_BYTES = 64 * 2 ** 20


# -- one chip's inputs and result -------------------------------------------


@dataclass(frozen=True)
class ChipVariation:
    """Per-chip process-variation multipliers on the aging rates.

    A fleet study draws one of these per chip (see
    :class:`FleetVariationSpec`, :meth:`FleetVariation.chip`); the
    one-chip :class:`~repro.system.simulator.SystemSimulator` accepts
    the same description, so a fleet member can be re-run alone for
    cross-checks.  The defaults are exact no-ops (multiplying by 1.0
    is bitwise identity), so a run without variation reproduces the
    pre-variation trajectories bit-for-bit.

    Attributes:
        capture_scale: multiplier on the BTI capture acceleration
            (fast-aging corner > 1).
        recovery_scale: multiplier on the BTI de-trapping acceleration.
        em_current_scale: multiplier on the signed grid current
            density (local-grid IR/width variation).
    """

    capture_scale: float = 1.0
    recovery_scale: float = 1.0
    em_current_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("capture_scale", "recovery_scale",
                     "em_current_scale"):
            if getattr(self, name) <= 0.0:
                raise SimulationError(f"{name} must be positive")


def base_epoch_conditions(chip: Chip, kernels: BtiConditionKernels,
                          assignment: CoreAssignment):
    """Variation-independent per-core conditions of one assignment.

    The power vector, memoized thermal solve, BTI condition-kernel
    lookups and signed grid current for one :class:`CoreAssignment`.
    :class:`FleetSimulator` computes them once per distinct
    assignment and applies each chip's variation scales *on top*, so
    a chip sees the same conditions alone or stacked.

    Returns:
        ``(temps, active, capture, recovery, j)`` -- per-core
        temperatures (K), stressing mask, unscaled capture and
        recovery accelerations, and signed grid current density.
    """
    core = chip.core
    utilization = assignment.utilization
    recovering = assignment.bti_recovering
    powers = np.where(
        recovering, core.recovery_power_w,
        core.idle_power_w + utilization
        * (core.active_power_w - core.idle_power_w))
    temps = chip.thermal.steady_state_cached(powers)
    capture = kernels.capture_acceleration_array(temps, utilization)
    # Cores that are "stressing" but idle (zero utilization)
    # accumulate nothing and recover passively; model that by
    # marking them as recovering at bias 0.
    active = ~recovering & (utilization > 0.0)
    recovery = kernels.recovery_acceleration_array(temps, recovering)
    j = core.grid_current_density_a_m2 * utilization
    j = np.where(assignment.em_recovering, -j, j)
    return temps, active, capture, recovery, j


class SchedulingPolicy(Protocol):
    """Interface every scheduling policy implements."""

    def assign(self, epoch: int, demand: float,
               delta_vth_v: np.ndarray,
               previous_utilization: Optional[np.ndarray] = None
               ) -> CoreAssignment:
        """Produce the epoch's core assignment."""
        ...


class Workload(Protocol):
    """Interface every workload generator implements."""

    def demand(self, epoch: int) -> float:
        """Compute demand (core-equivalents) for an epoch."""
        ...


@dataclass(frozen=True)
class SystemResult:
    """Timeline and summary of one system simulation.

    Attributes:
        times_s: end-of-epoch time stamps.
        worst_degradation: per-epoch worst-core fractional delay
            degradation (the Fig. 12(b) performance envelope, flipped).
        mean_degradation: per-epoch fleet-average degradation.
        dropped_demand: per-epoch unplaced demand (core-equivalents).
        final_delta_vth_v: per-core BTI shift at the end.
        final_permanent_vth_v: per-core permanent component at the end.
        final_em_drift_ohm: per-core grid resistance drift at the end.
        em_failures: per-core hard-failure flags at the end.
        migration_events: number of core transitions into BTI recovery
            over the run; each one implies a state-retention or
            workload-migration action (Section IV-B: "certain states
            need to be in retention mode, alternatively, workload can
            be shifted to other redundant resources").
        n_epochs: simulated epoch count (for overhead normalization).
        total_demand: demanded core-epochs summed over *all* epochs
            (not just the recorded ones).
        total_dropped_demand: unplaced core-epochs over all epochs.
    """

    times_s: np.ndarray
    worst_degradation: np.ndarray
    mean_degradation: np.ndarray
    dropped_demand: np.ndarray
    final_delta_vth_v: np.ndarray
    final_permanent_vth_v: np.ndarray
    final_em_drift_ohm: np.ndarray
    em_failures: np.ndarray
    migration_events: int = 0
    n_epochs: int = 0
    total_demand: float = 0.0
    total_dropped_demand: float = 0.0

    @property
    def guardband(self) -> float:
        """Delay margin this run would require (peak worst-core
        degradation over the horizon)."""
        return float(self.worst_degradation.max(initial=0.0))

    @property
    def lost_demand_fraction(self) -> float:
        """Unplaced fraction of total demanded compute.

        ``total_dropped_demand / total_demand`` over every simulated
        epoch, so the value is independent of ``record_every`` (0 when
        nothing was demanded).
        """
        if self.total_demand <= 0.0:
            return 0.0
        return float(self.total_dropped_demand / self.total_demand)

    def migration_overhead(self, cost_epoch_fraction: float = 0.01
                           ) -> float:
        """Compute overhead of recovery-entry migrations.

        Each transition into BTI recovery costs
        ``cost_epoch_fraction`` of one core-epoch (state save +
        workload shift); returns the total as a fraction of the
        simulated core-epochs.  The paper expects this to be "a small
        switching overhead" -- typically well under a percent.
        """
        if cost_epoch_fraction < 0.0:
            raise SimulationError(
                "cost_epoch_fraction must be non-negative")
        core_epochs = max(self.n_epochs, 1) \
            * max(len(self.final_delta_vth_v), 1)
        return self.migration_events * cost_epoch_fraction \
            / core_epochs

    def describe(self) -> str:
        """One-line summary used by examples and benches."""
        return (f"guardband {self.guardband:.2%}, "
                f"final worst dVth "
                f"{self.final_delta_vth_v.max() * 1e3:.2f} mV "
                f"(permanent {self.final_permanent_vth_v.max() * 1e3:.2f}"
                f" mV), EM failures {int(self.em_failures.sum())}")


# -- process variation ------------------------------------------------------


@dataclass(frozen=True)
class FleetVariation:
    """Drawn per-chip variation scales for a whole population.

    Attributes:
        capture_scale / recovery_scale / em_current_scale: positive
            ``(n_chips,)`` multipliers; see
            :class:`~repro.system.simulator.ChipVariation` for their
            meaning.
    """

    capture_scale: np.ndarray
    recovery_scale: np.ndarray
    em_current_scale: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.capture_scale)
        for name in ("capture_scale", "recovery_scale",
                     "em_current_scale"):
            array = getattr(self, name)
            if array.shape != (n,):
                raise SimulationError(
                    "variation arrays must share one (n_chips,) shape")
            if np.any(array <= 0.0):
                raise SimulationError(f"{name} must be positive")

    @property
    def n_chips(self) -> int:
        """Population size of the draw."""
        return len(self.capture_scale)

    @classmethod
    def none(cls, n_chips: int) -> "FleetVariation":
        """An exact no-op draw (every scale 1.0)."""
        if n_chips < 1:
            raise SimulationError("n_chips must be at least 1")
        ones = np.ones(n_chips)
        return cls(capture_scale=ones.copy(),
                   recovery_scale=ones.copy(),
                   em_current_scale=ones.copy())

    def chip(self, index: int) -> ChipVariation:
        """The scalar :class:`ChipVariation` of one fleet member."""
        return ChipVariation(
            capture_scale=float(self.capture_scale[index]),
            recovery_scale=float(self.recovery_scale[index]),
            em_current_scale=float(self.em_current_scale[index]))

    def slice_range(self, start: int, stop: int) -> "FleetVariation":
        """The draw restricted to chips ``[start, stop)``.

        Chunked execution slices a pre-drawn population so chip ``k``
        keeps exactly the scales it would have in the unchunked run.
        """
        if not 0 <= start < stop <= self.n_chips:
            raise SimulationError(
                "slice must satisfy 0 <= start < stop <= n_chips")
        return FleetVariation(
            capture_scale=self.capture_scale[start:stop].copy(),
            recovery_scale=self.recovery_scale[start:stop].copy(),
            em_current_scale=self.em_current_scale[start:stop].copy())

    @classmethod
    def concatenate(cls, parts: Sequence["FleetVariation"]
                    ) -> "FleetVariation":
        """Stitch chunked draws back into one population draw."""
        if not parts:
            raise SimulationError("need at least one part")
        return cls(
            capture_scale=np.concatenate(
                [p.capture_scale for p in parts]),
            recovery_scale=np.concatenate(
                [p.recovery_scale for p in parts]),
            em_current_scale=np.concatenate(
                [p.em_current_scale for p in parts]))


@dataclass(frozen=True)
class FleetVariationSpec:
    """Lognormal process-variation law for a fleet draw.

    Each chip's scales are ``exp(sigma * z)`` with independent
    standard-normal ``z`` per knob, so the medians stay at 1.0 and a
    sigma of 0 degenerates to *exactly* 1.0 (bitwise no-op).  Chip
    ``k`` draws from ``task_seed_sequence(seed, k)`` -- the same
    deterministic per-index stream the sweep runner uses -- so the
    draw of a chip never depends on the population size (or on how
    the population is chunked) and a fleet member can be reproduced
    standalone.

    Attributes:
        capture_sigma / recovery_sigma / em_current_sigma: log-space
            standard deviations of the three scales.
    """

    capture_sigma: float = 0.0
    recovery_sigma: float = 0.0
    em_current_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("capture_sigma", "recovery_sigma",
                     "em_current_sigma"):
            if getattr(self, name) < 0.0:
                raise SimulationError(f"{name} must be non-negative")

    def draw_chip(self, index: int, seed: int = 0) -> ChipVariation:
        """The variation of one chip (independent of fleet size)."""
        rng = np.random.default_rng(task_seed_sequence(seed, index))
        z = rng.standard_normal(3)
        return ChipVariation(
            capture_scale=float(np.exp(self.capture_sigma * z[0])),
            recovery_scale=float(np.exp(self.recovery_sigma * z[1])),
            em_current_scale=float(
                np.exp(self.em_current_sigma * z[2])))

    def draw_range(self, start: int, stop: int,
                   seed: int = 0) -> FleetVariation:
        """Draw chips ``[start, stop)`` by their global indices.

        Chunked execution draws each chunk's rows directly, so the
        concatenation over chunks is bit-identical to one
        :meth:`draw` of the whole population.
        """
        if start < 0 or stop <= start:
            raise SimulationError(
                "draw range must satisfy 0 <= start < stop")
        n = stop - start
        capture = np.empty(n)
        recovery = np.empty(n)
        em = np.empty(n)
        for offset, index in enumerate(range(start, stop)):
            chip = self.draw_chip(index, seed)
            capture[offset] = chip.capture_scale
            recovery[offset] = chip.recovery_scale
            em[offset] = chip.em_current_scale
        return FleetVariation(capture_scale=capture,
                              recovery_scale=recovery,
                              em_current_scale=em)

    def draw(self, n_chips: int, seed: int = 0) -> FleetVariation:
        """Draw a whole population (chip ``k`` == ``draw_chip(k)``)."""
        if n_chips < 1:
            raise SimulationError("n_chips must be at least 1")
        return self.draw_range(0, n_chips, seed)


# -- population structure ---------------------------------------------------


@dataclass(frozen=True)
class FleetGroup:
    """A contiguous slice of the population sharing workload and policy.

    A heterogeneous fleet is a sequence of groups laid out
    back-to-back in chip order.  Every chip of a group runs the same
    scheduling policy and draws demand from the same workload
    template, optionally shifted by a per-chip ``phases`` offset (the
    chip observes ``workload.demand(epoch + phase)`` while its policy
    still sees the unshifted epoch -- see
    :class:`~repro.system.workload.PhasedWorkload`).

    The engine treats ``workload`` and ``policy`` as *templates*: each
    internal cohort (a maximal run of chips sharing one phase) gets a
    fresh ``copy.deepcopy`` before the run, so stateful policies
    (rotation cursors) and workloads (AR(1) streams) start fresh and a
    group's trajectory never depends on how the population is chunked.
    A ``policy`` without an ``assign`` method is treated as a factory
    called with the chip, mirroring the sweep layer.

    Attributes:
        n_chips: chips in the group.
        workload: shared demand template.
        policy: shared scheduling policy template (or factory).
        phases: optional per-chip non-negative epoch offsets,
            ``len == n_chips``.  Consecutive equal phases batch into
            one cohort, so sorted/blocked phase layouts schedule in
            O(distinct phases) per epoch.
        name: optional label for reports.
    """

    n_chips: int
    workload: Workload
    policy: SchedulingPolicy
    phases: Optional[Tuple[int, ...]] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.n_chips < 1:
            raise SimulationError("group n_chips must be at least 1")
        if self.phases is not None:
            phases = tuple(int(p) for p in self.phases)
            object.__setattr__(self, "phases", phases)
            if len(phases) != self.n_chips:
                raise SimulationError(
                    "phases must provide one offset per chip")
            if any(p < 0 for p in phases):
                raise SimulationError(
                    "phases must be non-negative")


class _Cohort:
    """One run of consecutive chips sharing workload, phase, policy."""

    __slots__ = ("start", "stop", "workload", "policy",
                 "previous_utilization", "previous_recovering")

    def __init__(self, start: int, stop: int, workload, policy,
                 n_cores: int):
        self.start = start
        self.stop = stop
        self.workload = workload
        self.policy = policy
        self.previous_utilization: Optional[np.ndarray] = None
        self.previous_recovering = np.zeros(n_cores, dtype=bool)


# -- results ----------------------------------------------------------------


@dataclass(frozen=True)
class FleetResult:
    """Timeline and summary of one fleet simulation.

    Every observable carries a chip axis -- a heterogeneous fleet has
    per-chip schedules, so demand bookkeeping and migration counts are
    per-chip arrays (for a homogeneous fleet every column/entry is
    identical).

    Attributes:
        times_s: recorded end-of-epoch stamps, ``(n_records,)``.
        worst_degradation: worst-core delay degradation per record and
            chip, ``(n_records, n_chips)``.
        mean_degradation: chip-mean degradation, same shape.
        dropped_demand: unplaced demand per record and chip,
            ``(n_records, n_chips)``.
        final_delta_vth_v: ``(n_chips, n_cores)`` total shift at the
            end; ``final_permanent_vth_v`` / ``final_em_drift_ohm`` /
            ``em_failures`` likewise.
        variation: the per-chip scales the fleet ran with.
        migration_events: per-chip transitions into BTI recovery,
            ``(n_chips,)``.
        n_epochs: epochs simulated (shared).
        total_demand / total_dropped_demand: per-chip demand
            bookkeeping, ``(n_chips,)``.
    """

    times_s: np.ndarray
    worst_degradation: np.ndarray
    mean_degradation: np.ndarray
    dropped_demand: np.ndarray
    final_delta_vth_v: np.ndarray
    final_permanent_vth_v: np.ndarray
    final_em_drift_ohm: np.ndarray
    em_failures: np.ndarray
    variation: FleetVariation
    migration_events: np.ndarray
    n_epochs: int
    total_demand: np.ndarray
    total_dropped_demand: np.ndarray

    @property
    def n_chips(self) -> int:
        """Population size."""
        return self.final_delta_vth_v.shape[0]

    @property
    def guardbands(self) -> np.ndarray:
        """Per-chip required delay margin, ``(n_chips,)``."""
        return self.worst_degradation.max(axis=0, initial=0.0)

    def guardband_quantile(self, fraction: float) -> float:
        """Population quantile of the per-chip guardband."""
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError("fraction must be in [0, 1]")
        return float(np.quantile(self.guardbands, fraction))

    @property
    def em_failure_fraction(self) -> float:
        """Fraction of chips with at least one failed local grid."""
        return float(self.em_failures.any(axis=1).mean())

    def chip_result(self, index: int) -> SystemResult:
        """The :class:`SystemResult` view of one fleet member.

        Field-for-field what a one-chip study
        (:class:`~repro.system.simulator.SystemSimulator`) with this
        chip's variation, (phase-shifted) workload and a fresh policy
        copy returns (the stacking-invariance tests compare exactly
        this object).
        """
        if not 0 <= index < self.n_chips:
            raise SimulationError(
                f"chip index must be in [0, {self.n_chips})")
        return SystemResult(
            times_s=self.times_s.copy(),
            worst_degradation=self.worst_degradation[:, index].copy(),
            mean_degradation=self.mean_degradation[:, index].copy(),
            dropped_demand=self.dropped_demand[:, index].copy(),
            final_delta_vth_v=self.final_delta_vth_v[index].copy(),
            final_permanent_vth_v=self.final_permanent_vth_v[
                index].copy(),
            final_em_drift_ohm=self.final_em_drift_ohm[index].copy(),
            em_failures=self.em_failures[index].copy(),
            migration_events=int(self.migration_events[index]),
            n_epochs=self.n_epochs,
            total_demand=float(self.total_demand[index]),
            total_dropped_demand=float(
                self.total_dropped_demand[index]))

    def describe(self) -> str:
        """One-line population summary used by examples and benches."""
        bands = self.guardbands
        return (f"{self.n_chips} chips: guardband p50 "
                f"{np.quantile(bands, 0.50):.2%}, p99 "
                f"{np.quantile(bands, 0.99):.2%}, max "
                f"{bands.max():.2%}; EM-failed chips "
                f"{self.em_failure_fraction:.2%}")


def _merge_fleet_results(parts: List[FleetResult]) -> FleetResult:
    """Concatenate chunk results back into one population result."""
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    return FleetResult(
        times_s=first.times_s,
        worst_degradation=np.concatenate(
            [p.worst_degradation for p in parts], axis=1),
        mean_degradation=np.concatenate(
            [p.mean_degradation for p in parts], axis=1),
        dropped_demand=np.concatenate(
            [p.dropped_demand for p in parts], axis=1),
        final_delta_vth_v=np.concatenate(
            [p.final_delta_vth_v for p in parts], axis=0),
        final_permanent_vth_v=np.concatenate(
            [p.final_permanent_vth_v for p in parts], axis=0),
        final_em_drift_ohm=np.concatenate(
            [p.final_em_drift_ohm for p in parts], axis=0),
        em_failures=np.concatenate(
            [p.em_failures for p in parts], axis=0),
        variation=FleetVariation.concatenate(
            [p.variation for p in parts]),
        migration_events=np.concatenate(
            [p.migration_events for p in parts]),
        n_epochs=first.n_epochs,
        total_demand=np.concatenate(
            [p.total_demand for p in parts]),
        total_dropped_demand=np.concatenate(
            [p.total_dropped_demand for p in parts]))


# -- the engine -------------------------------------------------------------


class _EpochConditions:
    """One epoch's condition bundle for the whole stack.

    Holds the full ``(n_chips, n_cores)`` stress/capture/recovery
    stack plus the per-cohort base temperature vectors (needed for
    the end-of-run EM read-out, which evaluates each cohort at its
    own hottest core).
    """

    __slots__ = ("stressing", "capture_safe", "recovery", "j_flat",
                 "temps_flat", "cohort_temps")

    def __init__(self, stressing, capture_safe, recovery, j_flat,
                 temps_flat, cohort_temps):
        self.stressing = stressing
        self.capture_safe = capture_safe
        self.recovery = recovery
        self.j_flat = j_flat
        self.temps_flat = temps_flat
        self.cohort_temps = cohort_temps


def _budget_entries(budget_bytes: int, entry_bytes: int,
                    cap: int) -> int:
    """Cache capacity that keeps ``cap`` entries under a byte budget."""
    if entry_bytes <= 0:
        return cap
    return int(min(cap, max(0, budget_bytes // entry_bytes)))


def state_bytes_per_chip(n_cores: int) -> int:
    """Resident aging-state bytes one fleet chip costs.

    Counts the stacked trap arrays (three state + three scratch
    float64 ``(n_cores, n_bins)`` blocks plus two boolean masks) and
    the flat float64 EM accumulators.  The chunked runner divides
    ``state_budget_bytes`` by this to pick its row-block height.  The
    scratch term is a conservative bound: the stack allocates its
    scratch for one sub-step row block, not per chip, and a stack
    whose chips age alike stores one state row per trajectory class.
    """
    trap = n_cores * _FLEET_N_BINS * (6 * 8 + 2)
    em = n_cores * 5 * 8
    return trap + em


class FleetSimulator:
    """One chip population: its aging state, memos and epoch loop.

    Built only by :meth:`_FleetStudy.simulator`, whose study has
    validated every input, on the shared ``chip`` (one thermal
    network, memoized across the whole fleet -- and, in chunked runs,
    across chunks).  The simulator owns

    * the aging state, chip-major and flat (core ``c`` of chip ``k``
      is flat unit ``k * n_cores + c``): the stacked trap populations
      :attr:`bti`, the EM accumulators :attr:`em` and the drawn
      per-chip :attr:`variation`;
    * the memos: whole-epoch condition bundles, per-assignment base
      conditions, and the BTI/EM step kernels;
    * the run state: per-cohort policy/workload copies with their
      mutable cursors, the :attr:`epoch` cursor, the demand/migration
      accumulators and the recorded timeline.

    :meth:`advance` is the epoch loop of every study, one chip or
    many -- demand, assignment, thermal solve, BTI/EM advance,
    recording -- with every per-core quantity carrying a chip axis:
    each cohort's policy is
    consulted once per epoch with its cohort-worst per-core shift
    (see the module docstring for the exactness contract this
    preserves), and the per-cohort conditions are gathered into one
    stacked advance.  An advance can stop after any epoch and continue
    later (or in another process, via :mod:`repro.system.checkpoint`)
    with a trajectory bit-identical to an uninterrupted run: every
    cross-epoch input is either stored here or recomputed as the same
    pure function of the stored state.

    An open horizon (``n_epochs`` is ``None``, the
    :class:`~repro.system.checkpoint.FleetSession` mode) records by
    the ``record_every`` modulo rule only; a declared horizon also
    records its final epoch.
    """

    def __init__(self, chip: Chip, study: _FleetStudy):
        n_chips, n_cores = study.n_chips, chip.n_cores
        self.chip = chip
        self.n_chips = n_chips
        self.n_cores = n_cores
        self.epoch_s = study.epoch_s
        self.record_every = study.record_every
        self.n_epochs = study.n_epochs
        variation = study.variation
        if variation is None:
            variation = FleetVariation.none(n_chips)
        elif isinstance(variation, FleetVariationSpec):
            variation = variation.draw_range(
                study.first_chip, study.first_chip + n_chips,
                study.seed)
        self.variation = variation
        calibration = default_calibration()
        rows = n_chips * n_cores
        population = replace(
            calibration.model_config.population, n_bins=_FLEET_N_BINS)
        self.bti = StackedTrapPopulations(n_chips, n_cores, population)
        # EM rate entries are five (rows,) arrays -- far lighter.
        em_entries = max(1, _budget_entries(
            _MEMO_BUDGET_BYTES, 5 * rows * 8, cap=64))
        self.em = FleetEmState(
            rows, EmStressCondition(
                current_density_a_m2=chip.core.grid_current_density_a_m2,
                temperature_k=units.celsius_to_kelvin(85.0),
                name="grid reference"),
            step_cache_size=em_entries)
        self.kernels = BtiConditionKernels(
            calibration.model_config.acceleration,
            calibration.model_config.reference_stress,
            stress_voltage_v=chip.core.stress_voltage_v)
        # Two condition memos.  A whole-epoch bundle is keyed on a token
        # of every cohort's assignment bytes, so distinct schedules
        # never collide and a repeat epoch is a dictionary hit.  On a
        # bundle miss, each distinct assignment's base conditions come
        # from the per-assignment memo (keyed on its cache_key), so
        # base_epoch_conditions runs once per distinct assignment of
        # the run, not once per cohort.
        bundle_entries = max(1, _budget_entries(
            _MEMO_BUDGET_BYTES, 33 * rows, cap=64))
        self._condition_cache = FactorizationCache(
            maxsize=bundle_entries, name="fleet.conditions")
        base_entries = max(1, _budget_entries(
            _MEMO_BUDGET_BYTES, 33 * n_cores, cap=4096))
        self._base_cache = FactorizationCache(
            maxsize=base_entries, name="fleet.base_conditions")
        self.cohorts = self._build_cohorts(study.groups)
        self._cohort_starts = np.array([c.start for c in self.cohorts])
        # The cohort index of each chip: one gather scatters per-cohort
        # values onto the chip rows.
        self._chip_cohort = np.repeat(
            np.arange(len(self.cohorts)),
            [c.stop - c.start for c in self.cohorts])
        self.epoch = 0
        self.migration_events = np.zeros(n_chips, dtype=np.int64)
        self.total_demand = np.zeros(n_chips)
        self.total_dropped = np.zeros(n_chips)
        self.times: List[float] = []
        self.worst: List[np.ndarray] = []
        self.mean: List[np.ndarray] = []
        self.dropped: List[np.ndarray] = []
        # Per-cohort (start, stop, temps) of the last advanced epoch;
        # result() evaluates the EM read-out and the thermal refresh
        # from these, so they are part of the resumable state.
        self.cohort_temps: Optional[
            List[Tuple[int, int, np.ndarray]]] = None

    # -- cohorts -----------------------------------------------------------

    def _build_cohorts(self, groups: Sequence[FleetGroup]
                       ) -> List[_Cohort]:
        """Split groups into per-phase cohorts with fresh templates."""
        cohorts: List[_Cohort] = []
        start = 0
        for group in groups:
            phases = group.phases or (0,) * group.n_chips
            run_start = 0
            while run_start < group.n_chips:
                run_stop = run_start + 1
                while (run_stop < group.n_chips
                       and phases[run_stop] == phases[run_start]):
                    run_stop += 1
                if hasattr(group.policy, "assign"):
                    policy = copy.deepcopy(group.policy)
                else:
                    policy = group.policy(self.chip)
                workload = copy.deepcopy(group.workload)
                phase = phases[run_start]
                if phase:
                    workload = PhasedWorkload(workload, phase)
                cohorts.append(_Cohort(
                    start + run_start, start + run_stop, workload,
                    policy, self.n_cores))
                run_start = run_stop
            start += group.n_chips
        return cohorts

    # -- conditions --------------------------------------------------------

    def _build_group_conditions(self, assignments, keys
                                ) -> _EpochConditions:
        """Assemble one full-stack bundle from per-cohort assignments.

        Cohorts that share an assignment share its base conditions:
        each distinct ``keys`` entry is fetched once from the
        per-assignment memo, one gather spreads the bases over the
        chip rows, and one multiply per scale applies the variation.
        Element ``(k, c)`` of every array is ``base[c] * scale[k]``
        with the cohort's own base conditions -- one multiply per
        element whatever the stack height, so each row matches its
        one-chip study bitwise.
        """
        slots: Dict[tuple, int] = {}
        bases = []
        cohort_slot = np.empty(len(keys), dtype=np.intp)
        for index, (assignment, key) in enumerate(zip(assignments, keys)):
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(bases)
                bases.append(self._base_cache.get_or_build(
                    key, partial(base_epoch_conditions, self.chip,
                                 self.kernels, assignment)))
            cohort_slot[index] = slot
        temps, active, capture, recovery, j = (
            np.stack(column) for column in zip(*bases))
        rows = cohort_slot[self._chip_cohort]
        v = self.variation
        capture2d = capture[rows] * v.capture_scale[:, None]
        return _EpochConditions(
            stressing=active[rows],
            capture_safe=np.where(capture2d > 0.0, capture2d, 1.0),
            recovery=recovery[rows] * v.recovery_scale[:, None],
            j_flat=(j[rows] * v.em_current_scale[:, None]).reshape(-1),
            temps_flat=temps[rows].reshape(-1),
            cohort_temps=[(cohort.start, cohort.stop, temps[slot])
                          for cohort, slot
                          in zip(self.cohorts, cohort_slot)])

    # -- epoch loop --------------------------------------------------------

    def advance(self, n_epochs: int) -> None:
        """Advance the population by ``n_epochs`` more epochs."""
        if n_epochs < 1:
            raise SimulationError("n_epochs must be at least 1")
        horizon = self.n_epochs
        if horizon is not None and self.epoch + n_epochs > horizon:
            raise SimulationError(
                f"advance past the declared horizon: "
                f"{self.epoch} + {n_epochs} > {horizon}")
        bti, em = self.bti, self.em
        epoch_s = self.epoch_s
        oscillator = self.chip.core.oscillator
        cohorts = self.cohorts
        record_every = self.record_every
        migration_events = self.migration_events
        total_demand = self.total_demand
        total_dropped = self.total_dropped
        starts, chip_cohort = self._cohort_starts, self._chip_cohort
        demands = np.empty(len(cohorts))
        dropped = np.empty(len(cohorts))
        migrated = np.empty(len(cohorts), dtype=np.int64)
        delta_vth = bti.delta_vth_v()
        cond = None
        for epoch in range(self.epoch, self.epoch + n_epochs):
            cohort_worst = np.maximum.reduceat(delta_vth, starts, axis=0)
            assignments = []
            keys = []
            for index, cohort in enumerate(cohorts):
                demand = cohort.workload.demand(epoch)
                assignment = cohort.policy.assign(
                    epoch, demand, cohort_worst[index],
                    cohort.previous_utilization)
                recovering = assignment.bti_recovering
                migrated[index] = np.count_nonzero(
                    recovering & ~cohort.previous_recovering)
                cohort.previous_recovering = recovering
                cohort.previous_utilization = assignment.utilization
                demands[index] = demand
                dropped[index] = assignment.dropped_demand
                assignments.append(assignment)
                keys.append(assignment.cache_key())
            migration_events += migrated[chip_cohort]
            total_demand += demands[chip_cohort]
            dropped_epoch = dropped[chip_cohort]
            total_dropped += dropped_epoch
            # The cohort layout and the epoch length are fixed for the
            # simulator's life, so the assignment keys alone identify
            # the epoch's conditions in every memo.
            token = tuple(keys)
            cond = self._condition_cache.get_or_build(
                token, lambda: self._build_group_conditions(
                    assignments, keys))
            bti.step(epoch_s, cond.stressing, cond.capture_safe,
                     cond.recovery, kernel_key=token)
            em.step(epoch_s, cond.j_flat, cond.temps_flat, key=token)
            delta_vth = bti.delta_vth_v()
            if ((epoch + 1) % record_every == 0
                    or (horizon is not None and epoch == horizon - 1)):
                degradation = oscillator.delay_degradation_array(
                    delta_vth)
                self.times.append((epoch + 1) * epoch_s)
                # The reductions ndarray.max / .mean run, without
                # their per-call dispatch.
                self.worst.append(np.maximum.reduce(degradation, axis=1))
                self.mean.append(np.add.reduce(degradation, axis=1)
                                 / self.n_cores)
                self.dropped.append(dropped_epoch)
        self.epoch += n_epochs
        self.cohort_temps = [(start, stop, temps.copy())
                             for start, stop, temps
                             in cond.cohort_temps]

    def result(self) -> FleetResult:
        """The :class:`FleetResult` of everything advanced so far."""
        if self.epoch < 1 or self.cohort_temps is None:
            raise SimulationError(
                "advance at least one epoch before taking a result")
        # The read-out refresh, per cohort (a bundle hit skips the
        # thermal solve): each cohort's EM failure check evaluates the
        # reference resistance at that cohort's own hottest core.  The
        # shared thermal network is left reflecting the last cohort's
        # solve.
        self.chip.thermal.temperatures_k = \
            self.cohort_temps[-1][2].copy()
        shape = (self.n_chips, self.n_cores)
        em_failures = np.empty(shape, dtype=bool)
        for start, stop, temps in self.cohort_temps:
            read_t = float(np.max(temps))
            em_failures[start:stop] = \
                self.em.failed(read_t).reshape(shape)[start:stop]
        record_counters("fleet.engine", chips=self.n_chips,
                        epochs=self.epoch, cohorts=len(self.cohorts))
        return FleetResult(
            times_s=np.array(self.times),
            worst_degradation=np.array(self.worst),
            mean_degradation=np.array(self.mean),
            dropped_demand=np.array(self.dropped),
            final_delta_vth_v=self.bti.delta_vth_v().copy(),
            final_permanent_vth_v=self.bti.permanent_vth_v().copy(),
            final_em_drift_ohm=self.em.delta_resistance_ohm()
            .reshape(shape),
            em_failures=em_failures,
            variation=self.variation,
            migration_events=self.migration_events.copy(),
            n_epochs=self.epoch,
            total_demand=self.total_demand.copy(),
            total_dropped_demand=self.total_dropped.copy())


# -- the study --------------------------------------------------------------


@dataclass(frozen=True)
class _FleetStudy:
    """Everything that decides a fleet study's result, validated once.

    Built by :func:`_fleet_study`; the chunk executor, the checkpoint
    digest, ``study.pkl`` and session snapshots all take this object,
    and :meth:`simulator` is the one way to build a
    :class:`FleetSimulator`.  ``n_epochs`` is ``None`` for an
    open-ended session.  A row slice keeps a
    :class:`FleetVariationSpec` undrawn and records its
    ``first_chip``, so each chunk draws its chips by global index (in
    the pool worker, when pooled).
    """

    chip: ChipConfig
    groups: Tuple[FleetGroup, ...]
    n_epochs: Optional[int]
    epoch_s: float
    record_every: int
    variation: Union[FleetVariation, FleetVariationSpec, None]
    seed: int
    first_chip: int = 0

    def __post_init__(self) -> None:
        if self.n_epochs is not None and self.n_epochs < 1:
            raise SimulationError("n_epochs must be at least 1")
        if self.record_every < 1:
            raise SimulationError("record_every must be at least 1")
        if not (math.isfinite(self.epoch_s) and self.epoch_s > 0.0):
            raise SimulationError("epoch_s must be finite and positive")
        if (isinstance(self.variation, FleetVariation)
                and self.variation.n_chips != self.n_chips):
            raise SimulationError(
                f"variation draw covers {self.variation.n_chips} "
                f"chips, fleet has {self.n_chips}")

    @property
    def n_chips(self) -> int:
        """Population size."""
        return sum(group.n_chips for group in self.groups)

    def rows(self, start: int, stop: int) -> "_FleetStudy":
        """This study restricted to its chips ``[start, stop)``."""
        groups = []
        g0 = 0
        for group in self.groups:
            g1 = g0 + group.n_chips
            lo, hi = max(g0, start), min(g1, stop)
            if lo < hi:
                phases = None
                if group.phases is not None:
                    phases = group.phases[lo - g0:hi - g0]
                groups.append(replace(group, n_chips=hi - lo,
                                      phases=phases))
            g0 = g1
        variation = self.variation
        if isinstance(variation, FleetVariation):
            variation = variation.slice_range(start, stop)
        return replace(self, groups=tuple(groups), variation=variation,
                       first_chip=self.first_chip + start)

    def simulator(self, chip: Chip) -> FleetSimulator:
        """A fresh :class:`FleetSimulator` of this study on ``chip``."""
        return FleetSimulator(chip, self)


def _fleet_study(chip: Union[Chip, ChipConfig, Tuple[int, int]],
                 n_chips: Optional[int] = None,
                 workload: Optional[Workload] = None,
                 policy: Optional[SchedulingPolicy] = None,
                 groups: Optional[Sequence[FleetGroup]] = None, *,
                 n_epochs: Optional[int], epoch_s: float,
                 record_every: int,
                 variation: Union[FleetVariation, FleetVariationSpec,
                                  None],
                 seed: int) -> Tuple[Chip, _FleetStudy]:
    """The shared chip and the validated study of one fleet.

    The one normalization behind :func:`run_fleet_lifetime_study` and
    :class:`~repro.system.checkpoint.FleetSession`; it runs before a
    caller writes any file.
    """
    if isinstance(chip, ChipConfig):
        built, config = chip.build(), chip
    else:
        if isinstance(chip, Chip):
            built = chip
        else:
            rows, cols = chip
            built = Chip(int(rows), int(cols))
        config = ChipConfig(rows=built.rows, cols=built.cols,
                            core=built.core,
                            thermal=built.thermal.config)
    if groups is None:
        if n_chips is None or workload is None or policy is None:
            raise SimulationError(
                "provide n_chips, workload and policy, or groups")
        groups = (FleetGroup(n_chips=n_chips, workload=workload,
                             policy=policy),)
    else:
        if workload is not None or policy is not None:
            raise SimulationError(
                "groups and workload/policy are mutually exclusive")
        groups = tuple(groups)
        if not groups:
            raise SimulationError("need at least one group")
        total = sum(group.n_chips for group in groups)
        if n_chips is not None and n_chips != total:
            raise SimulationError(
                f"groups cover {total} chips, n_chips says {n_chips}")
    return built, _FleetStudy(
        chip=config, groups=groups,
        n_epochs=None if n_epochs is None else operator.index(n_epochs),
        epoch_s=float(epoch_s), record_every=int(record_every),
        variation=variation, seed=int(seed))


def _chunk_size(n_chips: int, n_cores: int,
                max_chunk_chips: Optional[int],
                state_budget_bytes: Optional[int]) -> int:
    """Chips per chunk under the caller's row and byte limits."""
    limit = n_chips
    if max_chunk_chips is not None:
        if max_chunk_chips < 1:
            raise SimulationError(
                "max_chunk_chips must be at least 1")
        limit = min(limit, max_chunk_chips)
    if state_budget_bytes is not None:
        if state_budget_bytes < 1:
            raise SimulationError(
                "state_budget_bytes must be positive")
        per_chip = state_bytes_per_chip(n_cores)
        limit = min(limit, max(1, state_budget_bytes // per_chip))
    return max(1, limit)


# -- the chunk loop ---------------------------------------------------------


#: Below this much stacked work (``n_chips * n_cores * n_epochs``) the
#: chunked runner never starts a process pool: pool spawn plus chip
#: pickling costs tens of milliseconds, which dominates small fleets.
#: It is one of the serial reasons :func:`_run_study` decides once.
MIN_CORE_EPOCHS_FOR_POOL = 1 << 20


@dataclass(frozen=True)
class _ChunkCheckpoint:
    """Picklable per-chunk checkpoint configuration.

    ``directory`` is the study's checkpoint directory, ``every`` the
    progress-snapshot cadence in epochs (``None`` writes only the
    final chunk result), ``digest`` the study fingerprint every file
    carries (see :func:`repro.system.checkpoint.study_digest`).
    """

    directory: str
    every: Optional[int]
    digest: str


@dataclass(frozen=True)
class _FleetChunkTask:
    """One whole-lifetime row chunk: its slice of the study (the chip
    travels as a picklable :class:`ChipConfig`), its place in the
    partition and, optionally, its checkpoint configuration."""

    study: _FleetStudy
    chunk: ChunkTask
    n_chunks: int
    checkpoint: Optional[_ChunkCheckpoint] = None


def _execute_chunk(built: Chip, task: _FleetChunkTask) -> FleetResult:
    """Run one whole-lifetime row chunk on ``built``.

    The chunk body of the parent and the pool workers.  With a
    checkpoint, a progress snapshot restores the epoch cursor,
    progress is saved every ``ckpt.every`` epochs and the result is
    persisted.  Splitting the advance at those boundaries is bitwise
    invariant.
    """
    ckpt = task.checkpoint
    n_epochs = task.study.n_epochs
    simulator = task.study.simulator(built)
    every = None
    if ckpt is not None:
        from repro.system import checkpoint as checkpoint_mod
        checkpoint_mod.resume_chunk_run(ckpt, task.chunk.index,
                                        simulator)
        every = ckpt.every
    while simulator.epoch < n_epochs:
        epoch = simulator.epoch
        if every:
            step = min(every - epoch % every, n_epochs - epoch)
        else:
            step = n_epochs - epoch
        simulator.advance(step)
        if every and simulator.epoch < n_epochs:
            checkpoint_mod.save_chunk_progress(
                ckpt, task.chunk.index, simulator)
    result = simulator.result()
    if ckpt is not None:
        checkpoint_mod.save_chunk_result(
            ckpt, task.chunk.index, result)
    return result


def _run_fleet_chunk(task: _FleetChunkTask) -> FleetResult:
    """Run one row chunk inside a pool worker, on a chip built from
    the task's config, and return its :class:`FleetResult`."""
    return _execute_chunk(task.study.chip.build(), task)


def _run_study(built: Chip, study: _FleetStudy, chunk_chips: int, *,
               max_workers: Optional[int], retries: int,
               on_report: Optional[Callable[[SweepReport], None]],
               checkpoint_every: Optional[int],
               checkpoint_dir) -> FleetResult:
    """Run a study's ``chunk_chips``-row chunks through one loop.

    The parent restores every chunk a checkpoint directory finished
    and decides once whether the pending ones pool.  Every chunk it
    executes runs through :func:`~repro.solvers.sweep._run_task`
    (bounded retries, failure capture, counter delta, wall time): in
    a pool worker, or in-process on ``built`` -- every chunk when no
    pool started, each chunk the pool did not finish otherwise.  A
    failing chunk does not stop the others; one ``finally`` block
    delivers the :class:`SweepReport`, then the first failure raises.
    """
    if max_workers is not None and max_workers < 0:
        raise SimulationError("max_workers must be non-negative")
    if retries < 0:
        raise SimulationError("retries must be non-negative")
    bounds = chunk_tasks(study.n_chips, chunk_chips)
    n_chunks = len(bounds)
    workers = (max_workers if max_workers is not None
               else available_cpus())
    ckpt: Optional[_ChunkCheckpoint] = None
    if checkpoint_dir is not None:
        from repro.system import checkpoint as checkpoint_mod
        ckpt = checkpoint_mod.prepare_study_directory(
            checkpoint_dir, study, bounds, every=checkpoint_every)
    elif checkpoint_every is not None:
        raise SimulationError(
            "checkpoint_every requires checkpoint_dir")
    # Chunk boundaries, variation draws and group slices are the same
    # on every path, so the merged result is bitwise identical for
    # every worker count and for any mix of restored chunks.
    tasks = [_FleetChunkTask(study=study.rows(chunk.start, chunk.stop),
                             chunk=chunk, n_chunks=n_chunks,
                             checkpoint=ckpt)
             for chunk in bounds]
    started = time.perf_counter()
    # Chunk index -> (executed_in, output), for every chunk restored
    # or attempted so far.
    outputs: Dict[int, Tuple[str, _TaskOutput]] = {}
    fallback_reasons: List[str] = []
    reason: Optional[str] = None
    mode = "fleet+failed"
    try:
        pending = tasks
        if ckpt is not None:
            pending = []
            for task in tasks:
                load_started = time.perf_counter()
                part = checkpoint_mod.load_chunk_result(
                    ckpt, task.chunk.index, task.chunk.n_items)
                if part is None:
                    pending.append(task)
                else:
                    outputs[task.chunk.index] = ("cached", _TaskOutput(
                        value=part, failure=None, retries=0,
                        wall_time_s=time.perf_counter() - load_started,
                        cache_delta={}))
        work = study.n_chips * built.n_cores * study.n_epochs
        if not pending:
            reason = "every chunk restored from checkpoint"
        elif workers <= 1:
            reason = "max_workers <= 1"
        elif n_chunks < 2:
            reason = "single chunk"
        elif work < MIN_CORE_EPOCHS_FOR_POOL:
            reason = (f"{work} core-epochs below pool threshold "
                      f"{MIN_CORE_EPOCHS_FOR_POOL}")
        else:
            try:
                # A later chunk may still hide an unpicklable group;
                # the pool degrades on that chunk alone.
                pickle.dumps(pending[0])
            except Exception:
                reason = "probe task is not picklable"
        if reason is None:
            try:
                pool = ProcessPoolExecutor(max_workers=workers)
            except (OSError, PermissionError) as exc:
                # Sandboxes without process spawn.
                reason = (f"process pool unavailable "
                          f"({type(exc).__name__}: {exc})")
        if reason is None:
            with pool:
                futures = []
                for task in pending:
                    try:
                        futures.append((task.chunk.index, pool.submit(
                            _run_task, _run_fleet_chunk, task,
                            task.chunk.index, retries, False)))
                    except Exception as exc:
                        # e.g. submitting to an already-broken pool.
                        fallback_reasons.append(
                            f"chunk {task.chunk.index} submission "
                            f"failed ({type(exc).__name__}: {exc})")
                for index, future in futures:
                    try:
                        outputs[index] = ("pool", future.result())
                    except Exception as exc:
                        # _run_task captures chunk errors in-band, so
                        # this is pool infrastructure (a dead worker,
                        # an unpicklable task or result); the chunk
                        # re-runs in-process below.
                        fallback_reasons.append(
                            f"chunk {index} failed in the pool "
                            f"({type(exc).__name__}: {exc})")
        in_process = partial(_execute_chunk, built)
        executed_in = "serial" if reason else "serial-fallback"
        for task in pending:
            index = task.chunk.index
            if index not in outputs:
                outputs[index] = (executed_in, _run_task(
                    in_process, task, index, retries, True))
        if reason is not None:
            mode = "fleet"
        elif fallback_reasons:
            mode = "fleet+pool+serial-fallback"
        else:
            mode = "fleet+pool"
    finally:
        ordered = sorted(outputs.items())
        failures = [output.failure for _, (_, output) in ordered
                    if output.failure is not None]
        done = len(ordered) - len(failures)
        if on_report is not None:
            counters: Dict[str, Dict[str, int]] = {}
            for _, (_, output) in ordered:
                _merge_cache_deltas(counters, output.cache_delta)
            entry = counters.setdefault(
                "fleet.engine", {"hits": 0, "misses": 0})
            entry["chunks"] = entry.get("chunks", 0) + done
            on_report(SweepReport(
                n_tasks=n_chunks, n_chunks=n_chunks,
                max_workers=workers, mode=mode, serial_reason=reason,
                fallback_reasons=tuple(fallback_reasons),
                wall_time_s=time.perf_counter() - started,
                chunks=tuple(ChunkRecord(
                    index=index, executed_in=where,
                    wall_time_s=output.wall_time_s,
                    retries=output.retries,
                    n_failures=int(output.failure is not None))
                    for index, (where, output) in ordered),
                retries=sum(output.retries
                            for _, (_, output) in ordered),
                failures=tuple(failures), cache_counters=counters))
        record_counters("fleet.engine", chunks=done)
    if failures:
        first = failures[0]
        message = str(first)
        if first.error is None:
            message += "\n--- worker traceback ---\n" + first.traceback
        error = TaskError(message, task_index=first.task_index,
                          attempts=first.attempts)
        if isinstance(first.error, CheckpointError):
            # A refused checkpoint file raises the same CheckpointError
            # wherever its chunk ran.
            raise CheckpointError(str(first.error)) from error
        raise error from first.error
    return _merge_fleet_results([outputs[index][1].value
                                 for index in range(n_chunks)])


def run_fleet_lifetime_study(
        chip: Union[Chip, ChipConfig, Tuple[int, int]],
        n_chips: Optional[int] = None,
        workload: Optional[Workload] = None,
        policy: Optional[SchedulingPolicy] = None,
        *,
        n_epochs: int,
        epoch_s: float = units.hours(1.0),
        record_every: int = 1,
        variation: Union[FleetVariation, FleetVariationSpec,
                         None] = None,
        seed: int = 0,
        groups: Optional[Sequence[FleetGroup]] = None,
        max_chunk_chips: Optional[int] = None,
        state_budget_bytes: Optional[int] = None,
        max_workers: Optional[int] = None,
        retries: int = 0,
        on_report: Optional[Callable[[SweepReport], None]] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None
        ) -> FleetResult:
    """Monte Carlo lifetime study of a chip population.

    The in-process replacement for fanning identical (or
    policy/phase-grouped) cells through ``run_lifetime_sweep``: one
    :class:`FleetSimulator` advances the whole population as stacked
    arrays, with per-chip diversity coming from the ``variation``
    draw, the per-chip workload ``phases`` and the per-group
    policies.  Populations larger than memory stream through in row
    chunks: each chunk re-runs its groups' fresh policy/workload
    copies from epoch 0 against the same shared chip (so the thermal
    memo is warm after the first chunk), and results concatenate --
    the outcome is invariant in the chunk size.

    With ``max_workers > 1`` and at least
    :data:`MIN_CORE_EPOCHS_FOR_POOL` of stacked work the chunks run on
    a process pool: a chunk the pool does not finish (a dead worker,
    an unpicklable group) re-runs in-process, and the report
    aggregates every worker's named-cache counters.  At every worker
    count, bounded ``retries`` re-run a failing chunk, the other
    chunks still run, and the first chunk that exhausts its attempts
    raises :class:`~repro.errors.TaskError`.  The merged result is
    **bit-identical** to the serial chunk stream for every worker
    count and completion order.

    Args:
        chip: the shared design -- a live :class:`Chip`, a
            :class:`ChipConfig`, or a bare ``(rows, cols)`` tuple.
        n_chips: population size (omit when ``groups`` is given).
        workload / policy: shared demand generator and scheduling
            policy of a homogeneous population (omit with
            ``groups``).
        n_epochs / epoch_s / record_every: as in
            :meth:`~repro.system.simulator.SystemSimulator.run`.
        variation: per-chip process variation -- a
            :class:`FleetVariationSpec` to draw from ``seed``, a
            pre-drawn :class:`FleetVariation`, or ``None`` for an
            identical population.  Draws are by global chip index,
            so chunking never reshuffles them.
        seed: variation draw seed (chip ``k`` draws from
            ``task_seed_sequence(seed, k)``).
        groups: heterogeneous population layout, a sequence of
            :class:`FleetGroup` laid out back-to-back in chip order;
            mutually exclusive with ``workload`` / ``policy``.
        max_chunk_chips: upper bound on chips resident at once (per
            worker, when pooled).
        state_budget_bytes: byte budget for the resident aging state;
            the chunk height is ``budget // state_bytes_per_chip``.
            A *per-worker* budget under pooling: total residency is
            ``n_workers x budget``.
        max_workers: process count for parallel chunk execution;
            ``None`` picks the CPUs this process may run on
            (:func:`~repro.solvers.sweep.available_cpus`), ``0``/``1``
            forces the serial chunk stream.  Results are bitwise
            identical either way.
        retries: bounded per-chunk re-executions before the study
            fails (chunk results are deterministic, so a retry
            reproduces the identical rows).
        on_report: optional callback receiving the run's
            :class:`~repro.solvers.SweepReport` -- mode ``"fleet"``
            when no pool started, ``"fleet+pool"`` /
            ``"fleet+pool+serial-fallback"`` for pooled runs, and
            ``"fleet+failed"`` for a run that died outside a chunk
            attempt (an interrupt, a refused chunk-result file).
            Failed runs report too, before the error is raised.
        checkpoint_every / checkpoint_dir: crash durability.  With a
            ``checkpoint_dir``, every chunk writes its finished
            :class:`FleetResult` there, and (with a
            ``checkpoint_every`` cadence) an in-progress snapshot
            every that many epochs; re-invoking the identical study
            against the same directory restores complete chunks
            (``executed_in == "cached"`` in the report) and resumes
            incomplete ones from their newest snapshot.  The resumed
            result is **bitwise-equal** to an uninterrupted run, for
            serial and pooled execution alike.  An invalid study is
            refused before any file is written.  See
            :mod:`repro.system.checkpoint`.

    Returns:
        A :class:`FleetResult`; ``chip_result(i)`` recovers any
        member's full :class:`SystemResult`.
    """
    built, study = _fleet_study(
        chip, n_chips, workload, policy, groups, n_epochs=n_epochs,
        epoch_s=epoch_s, record_every=record_every,
        variation=variation, seed=seed)
    chunk_chips = _chunk_size(study.n_chips, built.n_cores,
                              max_chunk_chips, state_budget_bytes)
    return _run_study(built, study, chunk_chips,
                      max_workers=max_workers, retries=retries,
                      on_report=on_report,
                      checkpoint_every=checkpoint_every,
                      checkpoint_dir=checkpoint_dir)
