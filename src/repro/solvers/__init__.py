"""Shared prefactored linear-algebra core and sweep runner.

See :mod:`repro.solvers.factorized` for the operator/cache design,
:mod:`repro.solvers.sweep` for the fault-tolerant process-pool runner
of the fleet chunk executor, and ``docs/performance.md`` for the
architecture overview.
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
    run_sweep,
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
    "run_sweep",
    "task_seed_sequence",
]
