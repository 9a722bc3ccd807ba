"""Shared prefactored linear-algebra core and chunk telemetry.

See :mod:`repro.solvers.factorized` for the operator/cache design,
:mod:`repro.solvers.sweep` for the chunk partition, attempt wrapper
and report types of the fleet chunk loop
(:func:`repro.system.fleet.run_fleet_lifetime_study`), and
``docs/performance.md`` for the architecture overview.
"""

from repro.solvers.factorized import (
    DenseLuOperator,
    FactorizationCache,
    FactorizedOperator,
    SparseLuOperator,
    TridiagonalOperator,
    cache_counters,
    fingerprint,
    record_counters,
    solve_dense_cached,
)
from repro.solvers.sweep import (
    ChunkRecord,
    ChunkTask,
    SweepReport,
    TaskFailure,
    chunk_tasks,
    task_seed_sequence,
)

__all__ = [
    "DenseLuOperator",
    "FactorizationCache",
    "FactorizedOperator",
    "SparseLuOperator",
    "TridiagonalOperator",
    "cache_counters",
    "fingerprint",
    "record_counters",
    "solve_dense_cached",
    "ChunkRecord",
    "ChunkTask",
    "SweepReport",
    "TaskFailure",
    "chunk_tasks",
    "task_seed_sequence",
]
