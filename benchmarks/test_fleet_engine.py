"""Before/after benchmarks for the SoA fleet engine.

Times a pooled per-cell baseline (:func:`pooled_cells`: one
``SystemSimulator`` per grid cell, cells mapped over a process pool)
against the structure-of-arrays fleet engine
(:func:`~repro.system.fleet.run_fleet_lifetime_study`), which advances
the whole population as ``(n_chips * n_cores, ...)`` tensors in one
ufunc pass per epoch and shares condition / kernel / thermal caches
across every chip of the fleet.

Timings, chips/sec and cache hit counts land in ``BENCH_fleet.json``
at the repo root; the 1024-chip test asserts the PR acceptance
criterion (>= 10x over the pooled sweep at >= 1k chips, with <= 1e-10
per-chip equivalence pinned both here and in
``tests/test_system_fleet.py``).
"""

from __future__ import annotations

import copy
import gc
import json
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.solvers import cache_counters
from repro.solvers.sweep import available_cpus
from repro.system.fleet import (
    FleetVariationSpec,
    chunk_state_bytes,
    run_fleet_lifetime_study,
    state_bytes_per_chip,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    PhasedWorkload,
)

from benchmarks.conftest import alternating_runs, run_once

RESULTS = {}
SPEEDUP_THRESHOLD_FLEET = 10.0
SPEEDUP_THRESHOLD_HETERO = 5.0
EQUIVALENCE_TOLERANCE = 1e-10


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Dump the collected before/after timings to BENCH_fleet.json."""
    yield
    if not RESULTS:
        return
    path = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
    # Merge into any existing report so running a subset of this
    # suite refreshes its own entries without dropping the others'.
    timings = {}
    if path.exists():
        try:
            timings = json.loads(path.read_text()).get("timings", {})
        except (OSError, ValueError):
            timings = {}
    timings.update(RESULTS)
    payload = {
        "suite": "benchmarks/test_fleet_engine.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "units": "seconds, best of the recorded repetitions unless "
                 "an entry names its statistic",
        "timings": timings,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def best_of(fn, reps):
    """Best wall-clock of ``reps`` runs, plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def record(name, before_s, after_s, **extra):
    entry = {"before_s": before_s, "after_s": after_s,
             "speedup": before_s / after_s, **extra}
    RESULTS[name] = entry
    return entry


N_CHIPS = 1024
N_EPOCHS = 48
N_CORES = 9


def _policy():
    return RoundRobinRecoveryPolicy(recovery_slots=3,
                                    em_alternate_every=2)


def _workload():
    return ConstantWorkload(n_cores=N_CORES, utilization=0.6)


def _simulate_cell(cell):
    """One grid cell on its own ``SystemSimulator`` (one pool task)."""
    policy, workload, config, n_epochs = cell
    result = SystemSimulator(config.build()).run(
        n_epochs, copy.deepcopy(workload), copy.deepcopy(policy))
    return (result.guardband, float(result.final_delta_vth_v.max()),
            result.migration_events)


def pooled_cells(policies, workloads, chips, n_epochs):
    """The per-cell baseline: every policy x workload x chip cell as
    its own process-pool task, in grid order.

    Each cell builds its chip and runs a fresh ``SystemSimulator``,
    with nothing shared between cells -- the cost the fleet engine
    removes.  Cells ship to one worker per available CPU in batches
    of ``ceil(n_cells / (4 * workers))``, about four per worker; a
    1-CPU runner evaluates them in-process.  Returns ``(guardband,
    final_delta_vth_v, migration_events)`` per cell.
    """
    cells = [(policy, workload, config, n_epochs)
             for policy in policies.values()
             for workload in workloads.values()
             for config in chips]
    workers = available_cpus()
    if workers <= 1:
        return [_simulate_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_simulate_cell, cells,
                             chunksize=-(-len(cells) // (4 * workers))))


def test_fleet_vs_pooled_sweep_1k_chips(benchmark):
    """The PR acceptance case: >= 10x over the pooled sweep at 1k chips.

    The pooled path simulates the homogeneous population as 1024
    independent sweep cells -- 1024 chip builds, 1024 epoch loops,
    nothing shared.  The fleet path advances all 1024 chips as one
    stacked state; with the 3-slot / EM-period-2 schedule the epoch
    stream revisits only 6 distinct condition bundles, so after the
    first rotation every epoch is pure ufunc work on the
    ``(9216, 64)`` trap stack.
    """
    chips = [ChipConfig(3, 3, name=f"chip{i:04d}")
             for i in range(N_CHIPS)]

    def pooled():
        return pooled_cells({"rr3": _policy()}, {"flat06": _workload()},
                            chips, N_EPOCHS)

    def fleet():
        reports = []
        result = run_fleet_lifetime_study(
            (3, 3), N_CHIPS, _workload(), _policy(), n_epochs=N_EPOCHS,
            max_workers=1, on_report=reports.append)
        return result, reports[0]

    # Interleave the two timed paths so machine-speed drift (VM steal
    # time) inflates both sides alike instead of skewing the ratio;
    # the pooled baseline takes >10 s per rep at this scale, so two
    # rounds bound the bench runtime while still trimming outliers.
    after_s = before_s = float("inf")
    for _ in range(2):
        a, (result, report) = best_of(fleet, reps=2)
        b, sweep = best_of(pooled, reps=1)
        after_s, before_s = min(after_s, a), min(before_s, b)

    # Per-chip equivalence against the pooled cells (all chips are
    # identical without variation, so sample the population edges).
    bands = result.guardbands
    for index in (0, N_CHIPS // 2, N_CHIPS - 1):
        guardband, final_delta_vth_v, _ = sweep[index]
        assert abs(guardband - bands[index]) <= EQUIVALENCE_TOLERANCE
        assert abs(final_delta_vth_v
                   - result.final_delta_vth_v[index].max()) \
            <= EQUIVALENCE_TOLERANCE

    counters = report.cache_counters
    conditions = counters.get("fleet.conditions", {})
    kernels = counters.get("bti.fleet.kernels", {})
    thermal = counters.get("thermal.steady", {})
    entry = record(
        "fleet_vs_pooled_sweep_1024_chips", before_s, after_s,
        n_chips=N_CHIPS, n_cores=N_CORES, n_epochs=N_EPOCHS,
        chips_per_s_before=N_CHIPS / before_s,
        chips_per_s_after=N_CHIPS / after_s,
        condition_cache_hits=conditions.get("hits", 0),
        condition_cache_misses=conditions.get("misses", 0),
        bti_kernel_cache_hits=kernels.get("hits", 0),
        bti_kernel_cache_misses=kernels.get("misses", 0),
        thermal_cache_hits=thermal.get("hits", 0),
        thermal_cache_misses=thermal.get("misses", 0))
    run_once(benchmark, lambda: fleet()[0])
    assert entry["speedup"] >= SPEEDUP_THRESHOLD_FLEET


#: Alternating runs per chunk height of the varied 4096-chip study.
VARIED_REPS = 3


def test_fleet_scaling_with_variation(benchmark):
    """Record-only: 4096 varied chips at two chunk heights.

    Process variation gives every chip a class of its own, so all
    36,864 trap rows advance (at these sigmas every chip lands on one
    sub-step count, so each epoch is one group).  The study runs on
    one worker as one 4096-chip chunk and as four 1024-chip chunks,
    alternating, and the entry records the median of ``VARIED_REPS``
    runs at each height.  The BTI sub-step sweep builds its factors
    per 256-row block, so its cost should not grow with the chunk
    height.  The final shifts must be bitwise equal at both heights.
    """
    n_chips = 4096
    n_epochs = 48
    split_chips = 1024
    spec = FleetVariationSpec(capture_sigma=0.06,
                              recovery_sigma=0.08,
                              em_current_sigma=0.05)

    def fleet(max_chunk_chips):
        reports = []
        result = run_fleet_lifetime_study(
            (3, 3), n_chips, _workload(), _policy(),
            n_epochs=n_epochs, variation=spec, seed=7, max_workers=1,
            max_chunk_chips=max_chunk_chips, on_report=reports.append)
        return result, reports[0]

    one_runs, split_runs, (result, one_report), (split, split_report) \
        = alternating_runs(lambda: fleet(None),
                           lambda: fleet(split_chips), VARIED_REPS)
    assert (one_report.n_chunks, split_report.n_chunks) == (1, 4)
    assert result.final_delta_vth_v.shape \
        == split.final_delta_vth_v.shape
    assert result.final_delta_vth_v.tobytes() \
        == split.final_delta_vth_v.tobytes()
    elapsed_s = float(np.median(one_runs))
    split_s = float(np.median(split_runs))
    RESULTS["fleet_scaling_4096_chips_varied"] = {
        "elapsed_s": elapsed_s,
        "elapsed_s_1024_chip_chunks": split_s,
        "n_chips": n_chips, "n_cores": N_CORES, "n_epochs": n_epochs,
        "max_workers": 1,
        "reps": VARIED_REPS, "statistic": "median",
        "one_chunk_runs_s": one_runs,
        "chunks_1024_runs_s": split_runs,
        "chips_per_s": n_chips / elapsed_s,
        "guardband_p50": float(result.guardband_quantile(0.50)),
        "guardband_p99": float(result.guardband_quantile(0.99)),
    }
    run_once(benchmark, lambda: fleet(None))


def test_heterogeneous_grid_fleet_vs_pooled(benchmark):
    """The heterogeneous acceptance case: >= 5x at 1024 mixed cells.

    A 2-policy x 4-phase-shifted-diurnal x 128-chip design grid runs
    once through the pooled per-cell baseline and once through
    :func:`~repro.system.sweeps.run_lifetime_sweep`, which stacks all
    1024 cells into 8
    policy/workload groups of 128 identical chips.  Distinct phases
    and policies break the single-bundle degeneracy of the
    homogeneous benchmark -- each epoch carries 8 cohort bundles --
    so this measures the grouped scheduling overhead at scale.
    """
    n_grid_chips = 128
    chips = [ChipConfig(3, 3, name=f"unit{i:03d}")
             for i in range(n_grid_chips)]
    policies = {"rr3": _policy(), "none": NoRecoveryPolicy()}
    workloads = {
        f"diurnal+{phase:02d}": PhasedWorkload(
            DiurnalWorkload(n_cores=N_CORES, period_epochs=24), phase)
        for phase in (0, 6, 12, 18)}
    n_cells = len(policies) * len(workloads) * n_grid_chips

    def pooled():
        return pooled_cells(policies, workloads, chips, N_EPOCHS)

    reports = []

    def fleet():
        reports.clear()
        return run_lifetime_sweep(policies, workloads, chips,
                                  n_epochs=N_EPOCHS, seed=7,
                                  on_report=reports.append)

    after_s = before_s = float("inf")
    for _ in range(2):
        a, fleet_sweep = best_of(fleet, reps=2)
        b, pooled_sweep = best_of(pooled, reps=1)
        after_s, before_s = min(after_s, a), min(before_s, b)

    # Cell-for-cell equivalence across the mixed grid (sampled at the
    # corners and the policy/workload boundaries).
    assert len(fleet_sweep.cells) == len(pooled_sweep) == n_cells
    for index in (0, n_grid_chips - 1, n_grid_chips,
                  n_cells // 2, n_cells - 1):
        a = fleet_sweep.cells[index]
        guardband, final_delta_vth_v, migrations = pooled_sweep[index]
        assert abs(a.guardband - guardband) <= EQUIVALENCE_TOLERANCE
        assert abs(a.final_delta_vth_v - final_delta_vth_v) \
            <= EQUIVALENCE_TOLERANCE
        assert a.migration_events == migrations

    counters = reports[0].cache_counters
    kernels = counters.get("bti.fleet.kernels", {})
    entry = record(
        "hetero_grid_fleet_vs_pooled_1024_cells", before_s, after_s,
        n_cells=n_cells, n_cores=N_CORES, n_epochs=N_EPOCHS,
        n_policies=len(policies), n_workloads=len(workloads),
        cells_per_s_before=n_cells / before_s,
        cells_per_s_after=n_cells / after_s,
        fleet_chips=counters["fleet.engine"].get("chips", 0),
        fleet_cohorts=counters["fleet.engine"].get("cohorts", 0),
        bti_kernel_cache_hits=kernels.get("hits", 0),
        bti_kernel_cache_misses=kernels.get("misses", 0))
    run_once(benchmark, fleet)
    assert entry["speedup"] >= SPEEDUP_THRESHOLD_HETERO


#: Chunk height of the 65k- and 262k-chip entries: what a 256 MiB
#: budget held when every chip was charged a class of its own.  These
#: fleets have no variation, so today the budget alone would hold each
#: population in one chunk (one chip class plus the small per-chip
#: bytes); the explicit height keeps them multi-chunk studies, so the
#: chunk stream and the parallel executor are still what they time.
CHUNK_CHIPS_65K = 9205


def test_chunked_fleet_65k_chips(benchmark):
    """Record-only: 65k chips streamed in 9205-chip chunks.

    The chunked runner streams the population in ~9k-chip slabs
    (:data:`CHUNK_CHIPS_65K`) and the result is invariant in the
    chunking (pinned in tests/test_fleet_hetero.py).  The numbers to
    watch are chips/sec staying near the 4096-chip rate and the chunk
    count actually being > 1.
    """
    n_chips = 65_536
    n_epochs = 6
    budget = 256 * 1024 * 1024

    def fleet():
        # max_workers=1 pins the serial chunk stream: this entry is
        # the baseline the parallel executor benchmark divides by.
        return run_fleet_lifetime_study(
            (3, 3), n_chips, _workload(), _policy(),
            n_epochs=n_epochs, record_every=n_epochs,
            state_budget_bytes=budget, max_chunk_chips=CHUNK_CHIPS_65K,
            max_workers=1)

    before_chunks = cache_counters().get("fleet.engine",
                                         {}).get("chunks", 0)
    start = time.perf_counter()
    result = fleet()
    elapsed_s = time.perf_counter() - start
    n_chunks = cache_counters()["fleet.engine"]["chunks"] \
        - before_chunks
    assert n_chunks > 1
    assert result.n_chips == n_chips
    per_chip = state_bytes_per_chip(N_CORES)
    RESULTS["chunked_fleet_65536_chips"] = {
        "elapsed_s": elapsed_s,
        "n_chips": n_chips, "n_cores": N_CORES, "n_epochs": n_epochs,
        "chips_per_s": n_chips / elapsed_s,
        "state_budget_bytes": budget,
        "max_chunk_chips": CHUNK_CHIPS_65K,
        "state_bytes_per_chip": per_chip,
        "unchunked_state_bytes": chunk_state_bytes(n_chips, 1, N_CORES),
        "n_chunks": n_chunks,
        "guardband_p99": float(result.guardband_quantile(0.99)),
    }
    run_once(benchmark, lambda: run_fleet_lifetime_study(
        (3, 3), 4096, _workload(), _policy(), n_epochs=n_epochs,
        record_every=n_epochs, state_budget_bytes=budget,
        max_workers=1))


SPEEDUP_THRESHOLD_PARALLEL = 3.0
PARALLEL_WORKERS = 8
#: Alternating runs per side of the parallel-vs-serial comparison.
PARALLEL_REPS = 5


def test_parallel_chunked_fleet_65k_chips(benchmark):
    """The parallel acceptance case: >= 3x over the serial chunk
    stream at 65k chips and 8 workers.

    Both paths stream the same ~9k-chip chunks; the
    parallel run dispatches them across the worker pool, which returns
    each chunk's result to the parent.  The merged populations are
    asserted bitwise identical.  The >= 3x floor is enforced only
    when the host actually has >= 8 CPUs -- smaller runners record
    honest requested-vs-available numbers without asserting an
    unreachable ratio (pool overhead on a single core makes the
    parallel path *slower* there, which is exactly what the entry
    should show).

    The fleet has no variation, so each chunk advances one chip
    class: 8 classes x 9 cores x 6 epochs of stacked work, far below
    ``MIN_CORE_EPOCHS_FOR_POOL``, and the requested pool is not
    started -- both sides run mode ``"fleet"``, the serial stream, at
    every worker count, and the entry records both modes.  Each side
    is the median of ``PARALLEL_REPS`` alternating runs, so the first
    run's cold start does not pass for a pool effect.
    """
    n_chips = 65_536
    n_epochs = 6
    budget = 256 * 1024 * 1024

    def run(workers):
        reports = []
        result = run_fleet_lifetime_study(
            (3, 3), n_chips, _workload(), _policy(),
            n_epochs=n_epochs, record_every=n_epochs,
            state_budget_bytes=budget, max_chunk_chips=CHUNK_CHIPS_65K,
            max_workers=workers, on_report=reports.append)
        return result, reports[0]

    after_runs, before_runs, (parallel_result, parallel_report), \
        (serial_result, serial_report) = alternating_runs(
            lambda: run(PARALLEL_WORKERS), lambda: run(1),
            PARALLEL_REPS)
    before_s = float(np.median(before_runs))
    after_s = float(np.median(after_runs))

    assert serial_report.mode == "fleet"
    assert np.array_equal(serial_result.final_delta_vth_v,
                          parallel_result.final_delta_vth_v)
    assert np.array_equal(serial_result.worst_degradation,
                          parallel_result.worst_degradation)
    assert np.array_equal(serial_result.final_em_drift_ohm,
                          parallel_result.final_em_drift_ohm)

    cpus = available_cpus()
    entry = record(
        "parallel_chunked_fleet_65536_chips", before_s, after_s,
        n_chips=n_chips, n_cores=N_CORES, n_epochs=n_epochs,
        state_budget_bytes=budget, max_chunk_chips=CHUNK_CHIPS_65K,
        requested_workers=PARALLEL_WORKERS,
        available_cpus=cpus,
        n_chunks=parallel_report.n_chunks,
        mode=parallel_report.mode,
        serial_mode=serial_report.mode,
        reps=PARALLEL_REPS, statistic="median",
        before_runs_s=before_runs, after_runs_s=after_runs,
        pair_speedups=[b / a for a, b in zip(after_runs, before_runs)],
        chips_per_s_serial=n_chips / before_s,
        chips_per_s_parallel=n_chips / after_s)
    run_once(benchmark, lambda: run(min(PARALLEL_WORKERS, cpus)))
    if cpus >= PARALLEL_WORKERS:
        assert entry["speedup"] >= SPEEDUP_THRESHOLD_PARALLEL


CHECKPOINT_OVERHEAD_TARGET = 0.05
CHECKPOINT_OVERHEAD_CEILING = 0.50
CHECKPOINT_OVERHEAD_REPS = 5


def test_checkpointed_fleet_65k_chips_overhead(benchmark, tmp_path):
    """Record the durable-snapshot overhead of the 65k-chip chunked
    run at ``checkpoint_every=8``, against the 5% target.

    Same serial chunk stream as ``test_chunked_fleet_65k_chips`` but
    16 epochs, so every chunk persists one mid-lifetime progress
    snapshot (epoch 8) plus its result file.  The fleet has no
    variation, so each chunk is one chip class and a progress save
    hashes and writes one class's state plus the 24-byte per-chip
    variation draw.  The ratio bottoms out near
    ``save_cost / (every * epoch_cost)``, and a constant-utilization
    epoch on one class is cheap, so there is little to amortise --
    heavier epochs (kernel recomputation, many cohorts) shrink it
    toward zero.

    A single run takes about a second, and one run per side spreads
    the ratio by about 0.2 on a 2-CPU host -- far wider than the
    target.  So the test times ``CHECKPOINT_OVERHEAD_REPS`` plain and
    checkpointed runs in alternation (each checkpointed run in a fresh
    directory; replaying a completed one would time the cache, not the
    saves) and compares the medians.  The entry records that overhead
    next to the 5% target (``overhead_within_target``) together with
    every pair's ratio, so a reader sees the spread, and the cost of
    one snapshot file in seconds (``per_snapshot_s``: the median
    checkpointed-minus-plain time over the files a run writes), which
    does not depend on how cheap the epochs are.  The hard
    assertion is a generous ceiling, so a loaded runner reports an
    honest number instead of flaking, plus bitwise equality of the
    checkpointed, plain, and resumed-from-cache populations.
    """
    n_chips = 65_536
    n_epochs = 16
    every = 8
    budget = 256 * 1024 * 1024

    def run(checkpoint_dir=None):
        return run_fleet_lifetime_study(
            (3, 3), n_chips, _workload(), _policy(),
            n_epochs=n_epochs, record_every=n_epochs,
            state_budget_bytes=budget, max_chunk_chips=CHUNK_CHIPS_65K,
            max_workers=1, checkpoint_dir=checkpoint_dir,
            checkpoint_every=every if checkpoint_dir else None)

    def snapshot_writes():
        return cache_counters().get("checkpoint.snapshots",
                                    {}).get("writes", 0)

    plain_runs, ckpt_runs = [], []
    for rep in range(CHECKPOINT_OVERHEAD_REPS):
        t, plain = best_of(run, reps=1)
        plain_runs.append(t)
        directory = tmp_path / f"ckpt-{rep}"
        before = snapshot_writes()
        t, checkpointed = best_of(lambda: run(directory), reps=1)
        ckpt_runs.append(t)
        # The study file, one progress snapshot and one result per
        # chunk.
        snapshots = snapshot_writes() - before
    # Replaying a completed directory restores every chunk from its
    # result file -- no epoch work at all.
    resume_s, resumed = best_of(lambda: run(directory), reps=1)

    for result in (checkpointed, resumed):
        assert np.array_equal(plain.final_delta_vth_v,
                              result.final_delta_vth_v)
        assert np.array_equal(plain.worst_degradation,
                              result.worst_degradation)
        assert np.array_equal(plain.final_em_drift_ohm,
                              result.final_em_drift_ohm)

    plain_s = float(np.median(plain_runs))
    ckpt_s = float(np.median(ckpt_runs))
    overhead = ckpt_s / plain_s - 1.0
    snapshot_bytes = sum(
        entry.stat().st_size for entry in directory.iterdir()
        if entry.suffix == ".npz")
    entry = record(
        "checkpointed_fleet_65536_chips", plain_s, ckpt_s,
        n_chips=n_chips, n_cores=N_CORES, n_epochs=n_epochs,
        checkpoint_every=every, state_budget_bytes=budget,
        max_chunk_chips=CHUNK_CHIPS_65K, checkpoint_overhead=overhead,
        pair_overheads=[c / p - 1.0 for p, c in zip(plain_runs,
                                                     ckpt_runs)],
        snapshots_per_run=snapshots,
        per_snapshot_s=(ckpt_s - plain_s) / snapshots,
        pair_per_snapshot_s=[(c - p) / snapshots
                             for p, c in zip(plain_runs, ckpt_runs)],
        reps=CHECKPOINT_OVERHEAD_REPS, statistic="median",
        target_overhead=CHECKPOINT_OVERHEAD_TARGET,
        overhead_within_target=overhead < CHECKPOINT_OVERHEAD_TARGET,
        resume_from_cache_s=resume_s,
        snapshot_bytes_on_disk=snapshot_bytes,
        state_bytes_per_chip=state_bytes_per_chip(N_CORES))
    run_once(benchmark, lambda: run_fleet_lifetime_study(
        (3, 3), 4096, _workload(), _policy(), n_epochs=n_epochs,
        record_every=n_epochs, state_budget_bytes=budget,
        max_workers=1))
    assert entry["checkpoint_overhead"] < CHECKPOINT_OVERHEAD_CEILING


def test_parallel_fleet_262k_chips_scaling(benchmark):
    """Record-only scaling entry: 262,144 chips through the parallel
    chunk executor.

    Four times the 65k study in the same 9205-chip chunks under the
    same 256 MiB *per-worker* budget -- the road-to-1M data point.
    The number to watch is chips/sec holding (or growing with worker
    count) as the population quadruples; the chunk count scales with
    the population, so the executor's pipeline depth grows too.
    """
    n_chips = 262_144
    n_epochs = 6
    budget = 256 * 1024 * 1024
    cpus = available_cpus()
    workers = min(PARALLEL_WORKERS, cpus)

    reports = []
    start = time.perf_counter()
    result = run_fleet_lifetime_study(
        (3, 3), n_chips, _workload(), _policy(),
        n_epochs=n_epochs, record_every=n_epochs,
        state_budget_bytes=budget, max_chunk_chips=CHUNK_CHIPS_65K,
        max_workers=workers, on_report=reports.append)
    elapsed_s = time.perf_counter() - start

    assert result.n_chips == n_chips
    report = reports[0]
    RESULTS["parallel_fleet_262144_chips"] = {
        "elapsed_s": elapsed_s,
        "n_chips": n_chips, "n_cores": N_CORES, "n_epochs": n_epochs,
        "chips_per_s": n_chips / elapsed_s,
        "state_budget_bytes_per_worker": budget,
        "max_chunk_chips": CHUNK_CHIPS_65K,
        "unchunked_state_bytes": chunk_state_bytes(n_chips, 1, N_CORES),
        "n_chunks": report.n_chunks,
        "workers": workers,
        "requested_workers": PARALLEL_WORKERS,
        "available_cpus": cpus,
        "mode": report.mode,
        "guardband_p99": float(result.guardband_quantile(0.99)),
    }
    run_once(benchmark, lambda: run_fleet_lifetime_study(
        (3, 3), 4096, _workload(), _policy(), n_epochs=n_epochs,
        record_every=n_epochs, state_budget_bytes=budget,
        max_workers=workers))
