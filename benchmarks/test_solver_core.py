"""Before/after benchmarks for the prefactored solver core.

Each test times the seed's original dense/banded re-solve path (kept
here as a verbatim replica) against the shared
:mod:`repro.solvers` path on the three hot workloads:

* Korhonen stress stepping, 10k implicit steps on the paper's
  1201-node line;
* thermal RC ``advance`` over 1k one-second epochs on an 8x8
  floorplan;
* PDN IR-drop re-solve across 100 load patterns on a 24x24 grid.

Each side runs :data:`SOLVER_REPS` times, alternating with the other
(:func:`benchmarks.conftest.alternating_runs`), so a shared host's
speed drift slows both alike.  The medians, every run and every pair
ratio are merged into ``BENCH_solvers.json`` at the repo root when the
module finishes, and each test asserts the acceptance threshold
(>= 3x, on the medians) plus numerical equivalence between the two
paths.
"""

from __future__ import annotations

import platform
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from repro import units
from repro.em.korhonen import BoundaryKind, KorhonenConfig, \
    KorhonenSolver
from repro.em.wire import COPPER
from repro.pdn.grid import PdnGrid
from repro.pdn.irdrop import solve_ir_drop_batch
from repro.thermal.floorplan import Floorplan
from repro.thermal.network import ThermalRCNetwork

from benchmarks.conftest import alternating_runs, merge_bench_json, \
    run_once

RESULTS = {}
SPEEDUP_THRESHOLD = 3.0

#: Alternating runs per side; every timing is the median.
SOLVER_REPS = 5


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Merge the collected before/after timings into
    BENCH_solvers.json, so running a subset keeps the other entries."""
    yield
    if not RESULTS:
        return
    header = {
        "suite": "benchmarks/test_solver_core.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "units": "seconds, median of alternating runs",
    }
    merge_bench_json(
        Path(__file__).resolve().parent.parent / "BENCH_solvers.json",
        header, RESULTS)


def timed_pair(name, run_new, run_seed, **extra):
    """Alternate ``SOLVER_REPS`` runs of each path and record the
    medians with every run and pair; returns ``(entry, new_value,
    seed_value)``."""
    after_runs, before_runs, after, before = alternating_runs(
        run_new, run_seed, SOLVER_REPS)
    before_s = float(np.median(before_runs))
    after_s = float(np.median(after_runs))
    entry = {"before_s": before_s, "after_s": after_s,
             "speedup": before_s / after_s, "reps": SOLVER_REPS,
             "statistic": "median", "before_runs_s": before_runs,
             "after_runs_s": after_runs,
             "pair_speedups": [b / a for a, b in zip(after_runs,
                                                     before_runs)],
             **extra}
    RESULTS[name] = entry
    return entry, after, before


def relative_error(result, reference):
    reference = np.asarray(reference)
    return float(np.abs(np.asarray(result) - reference).max()
                 / np.abs(reference).max())


class SeedKorhonen:
    """The seed's per-step banded assembly + solve, verbatim."""

    def __init__(self, length_m, n_nodes):
        self.n = n_nodes
        self.dx = length_m / (n_nodes - 1)
        self.stress = np.zeros(n_nodes)

    def step(self, dt, kappa, gradient):
        n, dx = self.n, self.dx
        r = kappa * dt / (dx * dx)
        bands = np.zeros((3, n))
        bands[0, 1:] = -r
        bands[1, :] = 1.0 + 2.0 * r
        bands[2, :-1] = -r
        bands[0, 1] = -2.0 * r
        bands[2, n - 2] = -2.0 * r
        rhs = self.stress.copy()
        rhs[0] += 2.0 * r * dx * gradient
        rhs[n - 1] -= 2.0 * r * dx * gradient
        self.stress = solve_banded((1, 1), bands, rhs,
                                   overwrite_ab=True, overwrite_b=True)


def test_korhonen_10k_step(benchmark):
    length = 2.673e-3
    temperature = units.celsius_to_kelvin(230.0)
    kappa = COPPER.stress_diffusivity_at(temperature)
    gradient = COPPER.wind_stress_gradient(7.96e10, temperature)
    n_steps = 10_000
    dt = 30.0

    def run_new():
        solver = KorhonenSolver(length, KorhonenConfig(n_nodes=1201,
                                                       max_dt_s=dt))
        solver.advance(n_steps * dt, kappa, gradient,
                       BoundaryKind.BLOCKED, BoundaryKind.BLOCKED)
        return solver.stress

    def run_seed():
        reference = SeedKorhonen(length, 1201)
        for _ in range(n_steps):
            reference.step(dt, kappa, gradient)
        return reference.stress

    entry, after, before = timed_pair("korhonen_10k_step", run_new,
                                      run_seed, n_nodes=1201,
                                      n_steps=n_steps)
    assert relative_error(after, before) < 1e-10
    run_once(benchmark, run_new)
    assert entry["speedup"] >= SPEEDUP_THRESHOLD


def seed_thermal_advance(network, duration_s, powers, max_dt_s):
    """The seed's advance loop: rebuild + dense-solve every step."""
    remaining = duration_s
    while remaining > 1e-12:
        dt = min(remaining, max_dt_s)
        system = np.diag(network.capacity / dt) + network._conductance
        rhs = network.capacity / dt * network.temperatures_k + powers \
            + network.g_ambient * network.config.ambient_k
        network.temperatures_k = np.linalg.solve(system, rhs)
        remaining -= dt


def make_manycore_floorplan():
    """A 16x16 (256-core) floorplan, Fig. 12a style but full-chip."""
    return Floorplan.grid(16, 16, name_format="core{row}_{col}")


def test_thermal_1k_epoch_advance(benchmark):
    floorplan = make_manycore_floorplan()
    powers = np.linspace(0.2, 1.8, len(floorplan))
    n_epochs = 1_000

    def run_new():
        network = ThermalRCNetwork(make_manycore_floorplan())
        for _ in range(n_epochs):
            network.advance(1.0, powers, max_dt_s=1.0)
        return network.temperatures_k

    def run_seed():
        network = ThermalRCNetwork(make_manycore_floorplan())
        for _ in range(n_epochs):
            seed_thermal_advance(network, 1.0, powers, 1.0)
        return network.temperatures_k

    entry, after, before = timed_pair(
        "thermal_1k_epoch_advance", run_new, run_seed,
        n_blocks=len(floorplan), n_epochs=n_epochs)
    assert relative_error(after, before) < 1e-10
    run_once(benchmark, run_new)
    assert entry["speedup"] >= SPEEDUP_THRESHOLD


def seed_pdn_solve(grid):
    """The seed's dense assembly + np.linalg.solve, verbatim."""
    n = grid.n_nodes
    conductance = np.zeros((n, n))
    current = np.zeros(n)
    for segment in grid.segments():
        i = grid.node_index(*segment.a)
        j = grid.node_index(*segment.b)
        g = 1.0 / segment.resistance_ohm
        conductance[i, i] += g
        conductance[j, j] += g
        conductance[i, j] -= g
        conductance[j, i] -= g
    for address, amps in grid.loads_a.items():
        current[grid.node_index(*address)] -= amps
    for address in grid.pads:
        index = grid.node_index(*address)
        conductance[index, :] = 0.0
        conductance[index, index] = 1.0
        current[index] = grid.supply_v
    return np.linalg.solve(conductance, current)


def pdn_load_patterns(rows, cols, n_patterns, loads_per_pattern):
    rng = np.random.default_rng(2024)
    patterns = []
    for _ in range(n_patterns):
        pattern = {}
        for _ in range(loads_per_pattern):
            address = (int(rng.integers(rows)), int(rng.integers(cols)))
            pattern[address] = pattern.get(address, 0.0) \
                + float(rng.uniform(0.05, 0.4))
        patterns.append(pattern)
    return patterns


def test_pdn_100_pattern_resolve(benchmark):
    rows = cols = 24
    patterns = pdn_load_patterns(rows, cols, n_patterns=100,
                                 loads_per_pattern=24)

    def run_new():
        grid = PdnGrid.with_corner_pads(rows, cols)
        solutions = solve_ir_drop_batch(grid, patterns)
        return np.column_stack([s.node_voltages_v for s in solutions])

    def run_seed():
        columns = []
        for pattern in patterns:
            grid = PdnGrid.with_corner_pads(rows, cols)
            for (row, col), amps in pattern.items():
                grid.add_load(row, col, amps)
            columns.append(seed_pdn_solve(grid))
        return np.column_stack(columns)

    entry, after, before = timed_pair(
        "pdn_100_pattern_resolve", run_new, run_seed,
        grid=f"{rows}x{cols}", n_patterns=len(patterns))
    assert relative_error(after, before) < 1e-10
    run_once(benchmark, run_new)
    assert entry["speedup"] >= SPEEDUP_THRESHOLD
