"""Before/after benchmarks for the vectorized system epoch engine.

Times the seed's scalar epoch loop (kept verbatim in
:mod:`benchmarks.seed_system`) against the vectorized
:class:`~repro.system.simulator.SystemSimulator` on round-robin-healed
constant-load scenarios at 16 and 256 cores, plus the
:func:`~repro.system.sweeps.run_lifetime_sweep` throughput on a
32-cell policy x workload x chip grid.

Timings, epochs/sec and cache hit rates land in ``BENCH_system.json``
at the repo root; the 256-core test asserts the PR acceptance
criterion (>= 5x epochs/sec with <= 1e-10 equivalence on every
``SystemResult`` field).
"""

from __future__ import annotations

import gc
import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.system.chip import Chip
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import ConstantWorkload, DiurnalWorkload

from benchmarks.conftest import run_once
from benchmarks.seed_system import SeedSystemSimulator

RESULTS = {}
SPEEDUP_THRESHOLD_256 = 5.0
EQUIVALENCE_TOLERANCE = 1e-10


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Dump the collected before/after timings to BENCH_system.json."""
    yield
    if not RESULTS:
        return
    payload = {
        "suite": "benchmarks/test_system_engine.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "units": "seconds, best of the recorded repetitions",
        "timings": RESULTS,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_system.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def best_of(fn, reps, setup=None):
    """Best wall-clock of ``reps`` runs, plus the last return value.

    ``setup`` (when given) builds a fresh argument for each repetition
    outside the timed region, so construction cost and allocator noise
    stay out of the throughput number.
    """
    best = float("inf")
    value = None
    for _ in range(reps):
        arg = setup() if setup is not None else None
        gc.collect()
        start = time.perf_counter()
        value = fn(arg) if setup is not None else fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def record(name, before_s, after_s, **extra):
    entry = {"before_s": before_s, "after_s": after_s,
             "speedup": before_s / after_s, **extra}
    RESULTS[name] = entry
    return entry


def result_difference(result, reference):
    """Worst scaled elementwise difference over all result fields."""
    worst = 0.0
    for field in ("times_s", "worst_degradation", "mean_degradation",
                  "dropped_demand", "final_delta_vth_v",
                  "final_permanent_vth_v", "final_em_drift_ohm"):
        a = np.asarray(getattr(result, field), dtype=float)
        b = np.asarray(getattr(reference, field), dtype=float)
        assert a.shape == b.shape, field
        scale = max(float(np.abs(b).max(initial=0.0)), 1.0)
        worst = max(worst, float(np.abs(a - b).max(initial=0.0))
                    / scale)
    assert np.array_equal(result.em_failures, reference.em_failures)
    assert result.migration_events == reference.migration_events
    assert result.n_epochs == reference.n_epochs
    for field in ("total_demand", "total_dropped_demand"):
        a, b = getattr(result, field), getattr(reference, field)
        worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    return worst


def _epoch_scenario(n_side, n_epochs, recovery_slots,
                    em_alternate_every=2):
    """(new_setup, seed_setup, run) for one round-robin scenario.

    The setups build a fresh simulator (outside the timed region --
    chip construction is not epoch throughput); ``run`` drives it and
    is what gets timed.
    """
    n_cores = n_side * n_side

    def new_setup():
        return SystemSimulator(Chip(n_side, n_side))

    def seed_setup():
        return SeedSystemSimulator(Chip(n_side, n_side))

    def run(simulator):
        result = simulator.run(
            n_epochs,
            ConstantWorkload(n_cores=n_cores, utilization=0.4),
            RoundRobinRecoveryPolicy(
                recovery_slots=recovery_slots,
                em_alternate_every=em_alternate_every))
        return result, simulator

    return new_setup, seed_setup, run


def test_epoch_engine_16_core(benchmark):
    """Record-only: fixed per-epoch overheads cap the 16-core gain."""
    n_epochs = 1_000
    new_setup, seed_setup, run = _epoch_scenario(
        4, n_epochs, recovery_slots=2)
    after_s, (after, simulator) = best_of(run, reps=3, setup=new_setup)
    before_s, (before, _) = best_of(run, reps=2, setup=seed_setup)
    assert result_difference(after, before) <= EQUIVALENCE_TOLERANCE
    record("system_epoch_engine_16core", before_s, after_s,
           n_cores=16, n_epochs=n_epochs,
           epochs_per_s_before=n_epochs / before_s,
           epochs_per_s_after=n_epochs / after_s)
    run_once(benchmark, lambda: run(new_setup()))


def test_epoch_engine_256_core(benchmark):
    """The PR acceptance case: >= 5x epochs/sec at 256 cores.

    The EM-alternation period (3) is chosen coprime to the rotation
    period (256 cores / 8 slots = 32 epochs) so the schedule revisits
    a power vector under *different* EM polarity: with the former
    period of 2 (a divisor of 32), every rotation window always
    landed on the same EM parity, each distinct condition bundle had
    a unique power vector, and the thermal memo could never hit (the
    BENCH_system.json ``thermal_cache_hits: 0`` mystery -- the cache
    key was exact, the bench simply never re-solved a power vector
    outside the condition-bundle cache).  With coprime periods there
    are 64 condition bundles over 32 power vectors, so half the
    bundle builds hit the thermal memo; the assertion below pins that
    behaviour.
    """
    n_epochs = 1_000
    new_setup, seed_setup, run = _epoch_scenario(
        16, n_epochs, recovery_slots=8, em_alternate_every=3)
    # Interleave the two timed paths so machine-speed drift (VM steal
    # time) inflates both sides alike instead of skewing the ratio.
    after_s = before_s = float("inf")
    for _ in range(3):
        a, (after, simulator) = best_of(run, reps=2, setup=new_setup)
        b, (before, _) = best_of(run, reps=1, setup=seed_setup)
        after_s, before_s = min(after_s, a), min(before_s, b)
    assert result_difference(after, before) <= EQUIVALENCE_TOLERANCE
    thermal_cache = simulator.chip.thermal.steady_cache
    kernel_cache = simulator.bti.kernel_cache
    entry = record(
        "system_epoch_engine_256core", before_s, after_s,
        n_cores=256, n_epochs=n_epochs,
        epochs_per_s_before=n_epochs / before_s,
        epochs_per_s_after=n_epochs / after_s,
        thermal_cache_hits=thermal_cache.hits,
        thermal_cache_misses=thermal_cache.misses,
        bti_kernel_cache_hits=kernel_cache.hits,
        bti_kernel_cache_misses=kernel_cache.misses)
    run_once(benchmark, lambda: run(new_setup()))
    assert entry["speedup"] >= SPEEDUP_THRESHOLD_256
    # Repeating assignments must reach the thermal memo: distinct
    # condition bundles that share a power vector resolve as hits.
    assert entry["thermal_cache_hits"] >= 1


def test_lifetime_sweep_32_cells(benchmark):
    """Sweep throughput at the default worker count against one
    worker; results must match."""
    policies = {
        "none": NoRecoveryPolicy(),
        "rr1": RoundRobinRecoveryPolicy(recovery_slots=1),
        "rr2": RoundRobinRecoveryPolicy(recovery_slots=2,
                                        em_alternate_every=2),
        "rr3": RoundRobinRecoveryPolicy(recovery_slots=3,
                                        em_alternate_every=4),
    }
    workloads = {
        "flat04": ConstantWorkload(n_cores=9, utilization=0.4),
        "flat06": ConstantWorkload(n_cores=9, utilization=0.6),
        "flat08": ConstantWorkload(n_cores=9, utilization=0.8),
        "diurnal": DiurnalWorkload(n_cores=9, period_epochs=24),
    }
    chips = [ChipConfig(3, 3, name="3x3"),
             ChipConfig(3, 3, thermal=None, name="3x3b")]
    n_epochs = 168
    n_cells = len(policies) * len(workloads) * len(chips)

    def sweep(max_workers):
        return run_lifetime_sweep(policies, workloads, chips,
                                  n_epochs=n_epochs, seed=11,
                                  max_workers=max_workers)

    serial_s, serial = best_of(lambda: sweep(1), reps=1)
    pool_s, pooled = best_of(lambda: sweep(None), reps=2)
    assert pooled.cells == serial.cells
    record("system_lifetime_sweep_32cells", serial_s, pool_s,
           n_cells=n_cells, n_epochs=n_epochs,
           cells_per_s_serial=n_cells / serial_s,
           cells_per_s_pool=n_cells / pool_s)
    run_once(benchmark, lambda: sweep(None))
