"""Before/after benchmarks for the vectorized system epoch engine.

Times the seed's scalar epoch loop (kept verbatim in
:mod:`benchmarks.seed_system`) against
:class:`~repro.system.simulator.SystemSimulator` (a one-chip study of
the fleet engine) on round-robin-healed constant-load scenarios at 16
and 256 cores, plus the :func:`~repro.system.sweeps.run_lifetime_sweep`
throughput on a 32-cell policy x workload x chip grid.

The epoch-engine entries time ``EPOCH_REPS`` runs per side in
alternation and compare medians; each entry keeps every run, the pair
ratios and the CPUs the process could use.  Timings, epochs/sec and
cache hit counts (counter deltas of one run) are merged into
``BENCH_system.json`` at the repo root; the 256-core test asserts the
acceptance criterion (>= 5x epochs/sec with <= 1e-10 equivalence on
every ``SystemResult`` field).
"""

from __future__ import annotations

import gc
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.solvers import cache_counters
from repro.solvers.sweep import available_cpus
from repro.system.chip import Chip
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import ConstantWorkload, DiurnalWorkload

from benchmarks.conftest import (
    alternating_runs,
    merge_bench_json,
    run_once,
)
from benchmarks.seed_system import SeedSystemSimulator

RESULTS = {}
SPEEDUP_THRESHOLD_256 = 5.0
EQUIVALENCE_TOLERANCE = 1e-10
#: Alternating runs per side of each epoch-engine comparison.
EPOCH_REPS = 5


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Merge the collected before/after timings into BENCH_system.json."""
    yield
    if not RESULTS:
        return
    header = {
        "suite": "benchmarks/test_system_engine.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "units": "seconds, best of the recorded repetitions unless "
                 "an entry names its statistic",
    }
    merge_bench_json(
        Path(__file__).resolve().parent.parent / "BENCH_system.json",
        header, RESULTS)


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


def _time_epoch_engine(name, n_side, n_epochs, **scenario):
    """Median-of-``EPOCH_REPS`` alternating comparison, recorded."""
    new_setup, seed_setup, run = _epoch_scenario(
        n_side, n_epochs, **scenario)
    # One untimed run first: its counter deltas are the cache traffic
    # of one run, and it loads the process-wide calibration, which
    # the simulator reads on its first run (the seed loop reads it
    # while it is built, outside the timed region).
    names = ("thermal.steady", "bti.fleet.kernels")
    start = cache_counters()
    run(new_setup())
    end = cache_counters()
    traffic = {name: {key: end[name][key]
                      - start.get(name, {}).get(key, 0)
                      for key in ("hits", "misses")}
               for name in names}
    after_runs, before_runs, (after, _), (before, _) = alternating_runs(
        run, run, EPOCH_REPS, after_setup=new_setup,
        before_setup=seed_setup)
    assert result_difference(after, before) <= EQUIVALENCE_TOLERANCE
    before_s = float(np.median(before_runs))
    after_s = float(np.median(after_runs))
    return record(
        name, before_s, after_s,
        n_cores=n_side * n_side, n_epochs=n_epochs,
        epochs_per_s_before=n_epochs / before_s,
        epochs_per_s_after=n_epochs / after_s,
        thermal_cache_hits=traffic["thermal.steady"]["hits"],
        thermal_cache_misses=traffic["thermal.steady"]["misses"],
        bti_kernel_cache_hits=traffic["bti.fleet.kernels"]["hits"],
        bti_kernel_cache_misses=traffic["bti.fleet.kernels"]["misses"],
        reps=EPOCH_REPS, statistic="median",
        before_runs_s=before_runs, after_runs_s=after_runs,
        pair_speedups=[b / a for a, b in zip(after_runs, before_runs)],
        available_cpus=available_cpus())


def test_epoch_engine_16_core(benchmark):
    """Record-only: fixed per-epoch overheads cap the 16-core gain."""
    new_setup, _, run = _epoch_scenario(4, 1_000, recovery_slots=2)
    _time_epoch_engine("system_epoch_engine_16core", 4, 1_000,
                       recovery_slots=2)
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
    behaviour.  The 64 assignments are also 64 BTI kernels, which the
    kernel memo holds for the whole run.
    """
    new_setup, _, run = _epoch_scenario(
        16, 1_000, recovery_slots=8, em_alternate_every=3)
    entry = _time_epoch_engine(
        "system_epoch_engine_256core", 16, 1_000, recovery_slots=8,
        em_alternate_every=3)
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
