"""Before/after benchmarks for the batched-grid engines.

Two populations, each timed as an inline per-point loop over the
public single-point APIs against the batched study:

* the Fig. 10 load grid at 64 points -- one
  :class:`~repro.assist.circuitry.AssistCircuit` DC + switching
  transient per grid point against
  :func:`~repro.assist.sizing.sweep_load_size`, which advances the
  whole grid through :class:`~repro.circuit.batched.CircuitBatch` as
  one stacked Newton solve per step;
* nucleation-TTF sampling over a wire population -- one serial
  :class:`~repro.em.korhonen.KorhonenSolver` sweep per wire against
  :func:`~repro.em.statistics.sample_nucleation_ttfs_pde`, which
  advances the ``(n_wires, n_nodes)`` stress slab through
  :class:`~repro.em.korhonen.KorhonenBatch`, one vectorized
  tridiagonal back-substitution per implicit step.

Timings, points/sec and the grouped-solve telemetry land in
``BENCH_batched.json`` at the repo root; the asserts pin the PR
acceptance criteria (>= 4x on the 64-point circuit grid, >= 3x on the
>= 256-wire PDE population, batched equivalent to per-point within
1e-10 -- the PDE samples are in fact bit-identical).
"""

from __future__ import annotations

import dataclasses
import gc
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.assist.circuitry import AssistCircuit, AssistCircuitConfig
from repro.assist.modes import AssistMode
from repro.assist.sizing import _alpha_power_delay, sweep_load_size
from repro.em import PAPER_EM_STRESS, PAPER_TEST_WIRE
from repro.em.korhonen import KorhonenConfig, KorhonenSolver
from repro.em.statistics import sample_nucleation_ttfs_pde
from repro.solvers import cache_counters
from repro.solvers.sweep import available_cpus

from benchmarks.conftest import (
    alternating_runs,
    merge_bench_json,
    run_once,
)

RESULTS = {}
SPEEDUP_THRESHOLD_CIRCUIT = 4.0
SPEEDUP_THRESHOLD_KORHONEN = 3.0
EQUIVALENCE_TOLERANCE = 1e-10


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Merge the collected before/after timings into BENCH_batched.json."""
    yield
    if not RESULTS:
        return
    header = {
        "suite": "benchmarks/test_batched_grid.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "units": "seconds, median of alternating runs (each entry "
                 "names its statistic and keeps every run)",
    }
    merge_bench_json(
        Path(__file__).resolve().parent.parent / "BENCH_batched.json",
        header, RESULTS)


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


N_GRID_POINTS = 64
#: Alternating runs per side of the circuit-grid comparison.
CIRCUIT_REPS = 5

N_WIRES = 2048
#: Derating the paper's accelerated-test current stretches nucleation
#: across the probe schedule so the sampler has real work per probe.
CURRENT_DERATE = 0.05
MAX_TIME_S = 6e6
PROBE_STEP_S = 1e5
J_SIGMA = 0.05
PDE_CONFIG = KorhonenConfig(n_nodes=301, max_dt_s=1e4)
#: Alternating runs per side of the PDE sampler comparison.
KORHONEN_REPS = 5


def test_batched_circuit_grid_vs_per_point(benchmark):
    """Acceptance: >= 4x over a per-point Fig. 10 loop at 64 points.

    Both paths produce the same observables (swing, normalized delay,
    switching time); the per-point loop pays one Python Newton loop
    -- stamping, factorization, damping -- per grid point per step,
    while the batch pays it once for the whole grid.  Timed as
    ``CIRCUIT_REPS`` alternating runs per side, compared by median.
    """
    loads = list(range(1, N_GRID_POINTS + 1))
    base = AssistCircuitConfig()

    def per_point():
        rows = []
        for n_loads in loads:
            circuit = AssistCircuit(
                dataclasses.replace(base, n_loads=n_loads))
            swing = circuit.solve_mode(AssistMode.NORMAL).load_swing_v
            switching = circuit.switching_time_s(
                AssistMode.NORMAL, AssistMode.BTI_RECOVERY)
            rows.append((n_loads, swing, _alpha_power_delay(swing),
                         switching))
        return rows

    def batched():
        return sweep_load_size(loads)

    batched_runs, per_point_runs, fast, slow = alternating_runs(
        batched, per_point, CIRCUIT_REPS)
    before_s = float(np.median(per_point_runs))
    after_s = float(np.median(batched_runs))

    delay_ref, switching_ref = slow[0][2], slow[0][3]
    worst = 0.0
    for point, (n_loads, swing, delay, switching) in zip(fast, slow):
        assert point.n_loads == n_loads
        worst = max(
            worst,
            abs(point.load_swing_v - swing),
            abs(point.delay_normalized - delay / delay_ref),
            abs(point.switching_time_s - switching),
            abs(point.switching_time_normalized
                - switching / switching_ref))
    assert worst <= EQUIVALENCE_TOLERANCE

    counters = cache_counters().get("circuit.lu.batched", {})
    entry = record(
        "circuit_grid_64_points_vs_per_point", before_s, after_s,
        n_grid_points=N_GRID_POINTS,
        points_per_s_before=N_GRID_POINTS / before_s,
        points_per_s_after=N_GRID_POINTS / after_s,
        max_observable_difference=worst,
        batched_solves=counters.get("batched_solves", 0),
        batched_rows=counters.get("batched_rows", 0),
        reps=CIRCUIT_REPS, statistic="median",
        before_runs_s=per_point_runs, after_runs_s=batched_runs,
        pair_speedups=[b / a for a, b in zip(batched_runs,
                                             per_point_runs)],
        available_cpus=available_cpus())
    run_once(benchmark, batched)
    assert entry["speedup"] >= SPEEDUP_THRESHOLD_CIRCUIT


def test_batched_korhonen_vs_serial(benchmark):
    """Acceptance: >= 3x over serial PDE TTF sampling at >= 256 wires.

    The serial loop steps one :class:`KorhonenSolver` per wire over
    the sampler's own current draws (early-exiting at nucleation); the
    batch advances all surviving wires per probe through one
    vectorized back-substitution per step and compacts nucleated
    wires out, so both sides do the same numerical work.  The sampled
    TTFs must be identical -- the vectorized sweep reproduces LAPACK's
    per-column arithmetic bit for bit.

    A best-of pair moves with the load of a shared host, so the test
    times ``KORHONEN_REPS`` batched and serial runs in alternation and
    compares the medians; the entry keeps every run and pair ratio
    and the CPUs the process could use, so a reader sees the spread.
    """
    condition = dataclasses.replace(
        PAPER_EM_STRESS,
        current_density_a_m2=PAPER_EM_STRESS.current_density_a_m2
        * CURRENT_DERATE)
    kwargs = dict(condition=condition, j_sigma=J_SIGMA, seed=7,
                  config=PDE_CONFIG)

    def serial():
        rng = np.random.default_rng(kwargs["seed"])
        densities = condition.current_density_a_m2 \
            * np.exp(J_SIGMA * rng.standard_normal(N_WIRES))
        material = PAPER_TEST_WIRE.material
        temp = condition.temperature_k
        kappa = material.stress_diffusivity_at(temp)
        ttfs = np.full(N_WIRES, np.inf)
        solver = KorhonenSolver(PAPER_TEST_WIRE.length_m, PDE_CONFIG)
        for index, density in enumerate(densities):
            solver.reset()
            gradient = material.wind_stress_gradient(density, temp)
            for probe in range(1, int(MAX_TIME_S / PROBE_STEP_S) + 1):
                solver.advance(PROBE_STEP_S, kappa, gradient)
                if solver.stress[0] >= material.critical_stress_pa:
                    ttfs[index] = probe * PROBE_STEP_S
                    break
        return ttfs

    def batched():
        return sample_nucleation_ttfs_pde(
            N_WIRES, MAX_TIME_S, PROBE_STEP_S, **kwargs)

    batched_runs, serial_runs = [], []
    for _ in range(KORHONEN_REPS):
        seconds, fast = best_of(batched, reps=1)
        batched_runs.append(seconds)
        seconds, slow = best_of(serial, reps=1)
        serial_runs.append(seconds)
    before_s = float(np.median(serial_runs))
    after_s = float(np.median(batched_runs))

    assert np.array_equal(fast, slow)
    finite = np.isfinite(fast)
    assert finite.any()

    counters = cache_counters().get("em.korhonen.lu.batched", {})
    entry = record(
        "korhonen_ttf_2048_wires_vs_serial", before_s, after_s,
        n_wires=N_WIRES, n_nodes=PDE_CONFIG.n_nodes,
        n_probes=int(MAX_TIME_S / PROBE_STEP_S),
        wires_per_s_before=N_WIRES / before_s,
        wires_per_s_after=N_WIRES / after_s,
        nucleated_fraction=float(finite.mean()),
        samples_bitwise_equal=True,
        batched_solves=counters.get("batched_solves", 0),
        batched_rows=counters.get("batched_rows", 0),
        reps=KORHONEN_REPS, statistic="median",
        before_runs_s=serial_runs, after_runs_s=batched_runs,
        pair_speedups=[s / b for s, b in zip(serial_runs,
                                             batched_runs)],
        available_cpus=available_cpus())
    run_once(benchmark, batched)
    assert entry["speedup"] >= SPEEDUP_THRESHOLD_KORHONEN
