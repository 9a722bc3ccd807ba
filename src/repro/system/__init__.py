"""System-level deep healing: multicore chips, workloads, schedulers.

Implements Section IV-B of the paper: localized active recovery at the
core/block level, dark-silicon-aware rotation that lets idle cores be
healed by the heat of their active neighbours, and the run-time
scheduling loop of Fig. 12(b) evaluated over long horizons.

The aging state of every core is vectorized -- BTI on the stacked
trap engine of :mod:`repro.bti.fleet`, EM in :mod:`repro.system.aging`
-- so simulating years of epoch-by-epoch operation for tens of cores
stays fast.
"""

from repro.system.aging import FleetEmState
from repro.system.chip import Chip, CoreSpec
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    PhasedWorkload,
    RandomWorkload,
    TraceWorkload,
)
from repro.system.scheduler import (
    CoreAssignment,
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.dark_silicon import DarkSiliconRotationPolicy
from repro.system.simulator import (
    ChipVariation,
    SystemResult,
    SystemSimulator,
)
from repro.system.fleet import (
    FleetGroup,
    FleetResult,
    FleetVariation,
    FleetVariationSpec,
    run_fleet_lifetime_study,
)
from repro.system.sweeps import (
    ChipConfig,
    SweepCellResult,
    SweepResult,
    run_lifetime_sweep,
)
from repro.system.checkpoint import (
    FleetSession,
    FleetSnapshot,
    resume_fleet_lifetime_study,
)
from repro.system.reliability import ReliabilityReport, \
    reliability_report

__all__ = [
    "ReliabilityReport",
    "reliability_report",
    "FleetEmState",
    "Chip",
    "CoreSpec",
    "ConstantWorkload",
    "RandomWorkload",
    "DiurnalWorkload",
    "PhasedWorkload",
    "TraceWorkload",
    "CoreAssignment",
    "NoRecoveryPolicy",
    "RoundRobinRecoveryPolicy",
    "DarkSiliconRotationPolicy",
    "ChipVariation",
    "SystemResult",
    "SystemSimulator",
    "FleetGroup",
    "FleetResult",
    "FleetVariation",
    "FleetVariationSpec",
    "run_fleet_lifetime_study",
    "FleetSession",
    "FleetSnapshot",
    "resume_fleet_lifetime_study",
    "ChipConfig",
    "SweepCellResult",
    "SweepResult",
    "run_lifetime_sweep",
]
