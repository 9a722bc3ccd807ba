"""Solver-core equivalence and invalidation tests.

The prefactored paths must reproduce the seed's dense
``np.linalg.solve`` results to 1e-10 (relative) on the PDN, thermal
and Korhonen reference problems, survive topology / operating-point
changes through cache invalidation.  The chunked population sampler
is pinned to its chunk-seeded stream, and pool sizing follows the
CPUs this process may run on.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from repro import units
from repro.em.korhonen import BoundaryKind, KorhonenConfig, \
    KorhonenSolver
from repro.em.statistics import WirePopulationSpec, \
    sample_population_ttfs_parallel
from repro.em.wire import COPPER
from repro.pdn.grid import PdnGrid
from repro.pdn.irdrop import _OPERATORS, solve_ir_drop, \
    solve_ir_drop_batch
from repro.solvers import (
    DenseLuOperator,
    FactorizationCache,
    TridiagonalOperator,
    fingerprint,
    solve_dense_cached,
    task_seed_sequence,
)
from repro.thermal.floorplan import Floorplan
from repro.thermal.network import ThermalRCNetwork

RTOL = 1e-10


def relative_error(result, reference):
    return float(np.abs(np.asarray(result) - np.asarray(reference)).max()
                 / np.abs(np.asarray(reference)).max())


class TestFactorizedOperators:
    def test_dense_matches_numpy_solve_bitwise(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(30, 30)) + 30.0 * np.eye(30)
        rhs = rng.normal(size=30)
        assert np.array_equal(DenseLuOperator(matrix).solve(rhs),
                              np.linalg.solve(matrix, rhs))

    def test_dense_batched_rhs(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(20, 20)) + 20.0 * np.eye(20)
        rhs = rng.normal(size=(20, 7))
        assert relative_error(DenseLuOperator(matrix).solve(rhs),
                              np.linalg.solve(matrix, rhs)) < RTOL

    def test_dense_singular_raises_linalgerror(self):
        with pytest.raises(np.linalg.LinAlgError):
            DenseLuOperator(np.zeros((4, 4)))

    def test_tridiagonal_matches_solve_banded(self):
        rng = np.random.default_rng(5)
        n = 64
        lower = rng.normal(size=n - 1)
        diag = rng.normal(size=n) + 8.0
        upper = rng.normal(size=n - 1)
        rhs = rng.normal(size=n)
        bands = np.zeros((3, n))
        bands[0, 1:] = upper
        bands[1, :] = diag
        bands[2, :-1] = lower
        reference = solve_banded((1, 1), bands, rhs)
        result = TridiagonalOperator(lower, diag, upper).solve(rhs.copy())
        assert relative_error(result, reference) < RTOL


class TestFactorizationCache:
    def test_hit_and_miss_counting(self):
        cache = FactorizationCache(maxsize=4)
        matrix = np.eye(3) * 2.0
        rhs = np.ones(3)
        solve_dense_cached(matrix, rhs, cache)
        solve_dense_cached(matrix, rhs, cache)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_content_change_invalidates(self):
        cache = FactorizationCache(maxsize=4)
        matrix = np.eye(3) * 2.0
        rhs = np.full(3, 6.0)
        first = solve_dense_cached(matrix, rhs, cache)
        matrix[0, 0] = 4.0  # same object, new content -> new key
        second = solve_dense_cached(matrix, rhs, cache)
        assert cache.misses == 2
        assert first[0] == pytest.approx(3.0)
        assert second[0] == pytest.approx(1.5)

    def test_lru_eviction(self):
        cache = FactorizationCache(maxsize=2)
        for scale in (1.0, 2.0, 3.0):
            solve_dense_cached(np.eye(2) * scale, np.ones(2), cache)
        assert len(cache) == 2
        # The first matrix was evicted: solving it again misses.
        solve_dense_cached(np.eye(2) * 1.0, np.ones(2), cache)
        assert cache.misses == 4

    def test_fingerprint_distinguishes_scalars_and_arrays(self):
        a = fingerprint(1.0, np.arange(4.0))
        b = fingerprint(1.0, np.arange(4.0))
        c = fingerprint(2.0, np.arange(4.0))
        d = fingerprint(1.0, np.arange(5.0))
        assert a == b
        assert len({a, c, d}) == 3


def dense_pdn_reference(grid):
    """The seed's dense assembly + np.linalg.solve, verbatim."""
    n = grid.n_nodes
    conductance = np.zeros((n, n))
    current = np.zeros(n)
    segments = list(grid.segments())
    for segment in segments:
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
    voltages = np.linalg.solve(conductance, current)
    currents = np.array([
        (voltages[grid.node_index(*segment.a)]
         - voltages[grid.node_index(*segment.b)]) / segment.resistance_ohm
        for segment in segments])
    return voltages, currents


class TestPdnEquivalence:
    def make_grid(self):
        grid = PdnGrid.with_corner_pads(10, 13)
        grid.add_uniform_load(1.5)
        grid.add_load(4, 7, 0.4)
        return grid

    def test_matches_dense_reference(self):
        grid = self.make_grid()
        solution = solve_ir_drop(grid)
        voltages, currents = dense_pdn_reference(grid)
        assert relative_error(solution.node_voltages_v, voltages) < RTOL
        assert relative_error(solution.segment_currents_a,
                              currents) < RTOL

    def test_load_change_reuses_factorization(self):
        grid = self.make_grid()
        solve_ir_drop(grid)
        hits_before = _OPERATORS.hits
        grid.add_load(2, 2, 0.7)
        solution = solve_ir_drop(grid)
        assert _OPERATORS.hits == hits_before + 1
        voltages, _ = dense_pdn_reference(grid)
        assert relative_error(solution.node_voltages_v, voltages) < RTOL

    def test_topology_change_invalidates(self):
        grid = self.make_grid()
        solve_ir_drop(grid)
        misses_before = _OPERATORS.misses
        grid.add_pad(5, 5)  # new Dirichlet row -> new matrix
        solution = solve_ir_drop(grid)
        assert _OPERATORS.misses == misses_before + 1
        voltages, currents = dense_pdn_reference(grid)
        assert relative_error(solution.node_voltages_v, voltages) < RTOL
        assert relative_error(solution.segment_currents_a,
                              currents) < RTOL

    def test_batch_matches_sequential(self):
        grid = self.make_grid()
        patterns = [{(1, 1): 0.2}, {(4, 7): 1.0, (0, 3): 0.1}, {}]
        batch = solve_ir_drop_batch(grid, patterns)
        for pattern, solution in zip(patterns, batch):
            alone = PdnGrid.with_corner_pads(10, 13)
            for (row, col), amps in pattern.items():
                alone.add_load(row, col, amps)
            reference = solve_ir_drop(alone)
            assert np.array_equal(solution.node_voltages_v,
                                  reference.node_voltages_v)


class TestThermalEquivalence:
    def make_network(self):
        return ThermalRCNetwork(Floorplan.grid(4, 4))

    def test_steady_state_matches_dense(self):
        network = self.make_network()
        powers = np.linspace(0.0, 2.0, 16)
        temps = network.steady_state(powers)
        rhs = powers + network.g_ambient * network.config.ambient_k
        reference = np.linalg.solve(network._conductance, rhs)
        assert relative_error(temps, reference) < RTOL

    def test_advance_matches_seed_loop(self):
        network = self.make_network()
        reference = self.make_network()
        powers = np.linspace(0.5, 1.5, 16)
        for duration in (10.0, 3.5, 42.0):
            network.advance(duration, powers, max_dt_s=1.0)
            # Seed loop: rebuild np.diag(C/dt) + G every iteration.
            remaining = duration
            while remaining > 1e-12:
                dt = min(remaining, 1.0)
                system = np.diag(reference.capacity / dt) \
                    + reference._conductance
                rhs = reference.capacity / dt * reference.temperatures_k \
                    + powers + reference.g_ambient \
                    * reference.config.ambient_k
                reference.temperatures_k = np.linalg.solve(system, rhs)
                remaining -= dt
        assert relative_error(network.temperatures_k,
                              reference.temperatures_k) < RTOL

    def test_advance_caches_fixed_dt_system(self):
        network = self.make_network()
        powers = np.ones(16)
        network.advance(30.0, powers, max_dt_s=1.0)
        cache = network._transient_operators
        assert cache.misses == 1
        assert cache.hits == 29

    def test_heating_power_matches_dense(self):
        network = self.make_network()
        background = np.full(16, 0.3)
        target = units.celsius_to_kelvin(110.0)
        power = network.heating_power_w("core22", target, background)
        conductance = network._conductance
        rhs = background + network.g_ambient * network.config.ambient_k
        index = network.floorplan.index_of("core22")
        base = np.linalg.solve(conductance, rhs)[index]
        response = np.linalg.solve(conductance,
                                   np.eye(16)[index])[index]
        assert power == pytest.approx((target - base) / response,
                                      rel=RTOL)


class SeedKorhonen:
    """The seed's banded-solve stepping, kept verbatim as reference."""

    def __init__(self, length_m, n_nodes):
        self.n = n_nodes
        self.dx = length_m / (n_nodes - 1)
        self.stress = np.zeros(n_nodes)

    def step(self, dt, kappa, gradient, start_boundary, end_boundary):
        n, dx = self.n, self.dx
        r = kappa * dt / (dx * dx)
        bands = np.zeros((3, n))
        bands[0, 1:] = -r
        bands[1, :] = 1.0 + 2.0 * r
        bands[2, :-1] = -r
        rhs = self.stress.copy()
        if start_boundary is BoundaryKind.BLOCKED:
            bands[0, 1] = -2.0 * r
            rhs[0] += 2.0 * r * dx * gradient
        else:
            bands[1, 0] = 1.0
            bands[0, 1] = 0.0
            rhs[0] = 0.0
        if end_boundary is BoundaryKind.BLOCKED:
            bands[2, n - 2] = -2.0 * r
            rhs[n - 1] -= 2.0 * r * dx * gradient
        else:
            bands[1, n - 1] = 1.0
            bands[2, n - 2] = 0.0
            rhs[n - 1] = 0.0
        self.stress = solve_banded((1, 1), bands, rhs,
                                   overwrite_ab=True, overwrite_b=True)


class TestKorhonenEquivalence:
    LENGTH = 2.673e-3
    N_NODES = 241
    TEMP = units.celsius_to_kelvin(230.0)

    def conditions(self):
        kappa = COPPER.stress_diffusivity_at(self.TEMP)
        gradient = COPPER.wind_stress_gradient(7.96e10, self.TEMP)
        return kappa, gradient

    def test_blocked_line_matches_seed(self):
        kappa, gradient = self.conditions()
        solver = KorhonenSolver(self.LENGTH,
                                KorhonenConfig(n_nodes=self.N_NODES,
                                               max_dt_s=30.0))
        reference = SeedKorhonen(self.LENGTH, self.N_NODES)
        solver.advance(units.minutes(30.0), kappa, gradient)
        for _ in range(60):
            reference.step(30.0, kappa, gradient,
                           BoundaryKind.BLOCKED, BoundaryKind.BLOCKED)
        assert relative_error(solver.stress, reference.stress) < RTOL

    def test_condition_change_invalidates(self):
        """Recovery (flipped G) and a kappa change refactor correctly."""
        kappa, gradient = self.conditions()
        cold_kappa = COPPER.stress_diffusivity_at(
            units.celsius_to_kelvin(150.0))
        solver = KorhonenSolver(self.LENGTH,
                                KorhonenConfig(n_nodes=self.N_NODES,
                                               max_dt_s=30.0))
        reference = SeedKorhonen(self.LENGTH, self.N_NODES)
        schedule = [(kappa, gradient), (kappa, -gradient),
                    (cold_kappa, gradient)]
        for phase_kappa, phase_gradient in schedule:
            solver.advance(units.minutes(10.0), phase_kappa,
                           phase_gradient)
            for _ in range(20):
                reference.step(30.0, phase_kappa, phase_gradient,
                               BoundaryKind.BLOCKED,
                               BoundaryKind.BLOCKED)
        # kappa appears twice with the same dt: 2 distinct matrices.
        assert solver._operators.misses == 2
        assert relative_error(solver.stress, reference.stress) < RTOL

    def test_void_boundary_matches_seed(self):
        kappa, gradient = self.conditions()
        solver = KorhonenSolver(self.LENGTH,
                                KorhonenConfig(n_nodes=self.N_NODES,
                                               max_dt_s=30.0))
        reference = SeedKorhonen(self.LENGTH, self.N_NODES)
        solver.advance(units.minutes(10.0), kappa, gradient,
                       start_boundary=BoundaryKind.VOID)
        for _ in range(20):
            reference.step(30.0, kappa, gradient,
                           BoundaryKind.VOID, BoundaryKind.BLOCKED)
        assert relative_error(solver.stress, reference.stress) < RTOL


class TestPopulationSamplerGolden:
    """The in-process sampler is the chunk-seeded stream, bitwise."""

    SPEC = WirePopulationSpec(n_wires=50,
                              median_ttf_s=units.years(30.0),
                              sigma=0.4)

    @staticmethod
    def reference(spec, n_chips, seed, chunk_chips):
        # Chunk k draws its (chips, n_wires) block from
        # task_seed_sequence(seed, k); the last chunk may be ragged.
        parts = []
        for index, start in enumerate(range(0, n_chips, chunk_chips)):
            rows = min(chunk_chips, n_chips - start)
            rng = np.random.default_rng(task_seed_sequence(seed, index))
            draws = rng.normal(math.log(spec.median_ttf_s), spec.sigma,
                               size=(rows, spec.n_wires))
            parts.append(np.exp(draws.min(axis=1)))
        return np.concatenate(parts)

    @pytest.mark.parametrize("n_chips, chunk_chips", [
        (600, 256),   # ragged last chunk (88 chips)
        (512, 256),   # exact multiple
        (100, 256),   # a single short chunk
        (37, 5),      # many chunks, ragged
        (1, 1),
    ])
    def test_equals_concatenated_chunk_draws(self, n_chips,
                                             chunk_chips):
        for seed in (0, 9):
            ttfs = sample_population_ttfs_parallel(
                self.SPEC, n_chips=n_chips, seed=seed,
                chunk_chips=chunk_chips)
            expected = self.reference(self.SPEC, n_chips, seed,
                                      chunk_chips)
            assert ttfs.shape == (n_chips,)
            assert ttfs.tobytes() == expected.tobytes()

    def test_rejects_bad_sizes(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            sample_population_ttfs_parallel(self.SPEC, n_chips=0)
        with pytest.raises(SimulationError):
            sample_population_ttfs_parallel(self.SPEC, n_chips=10,
                                            chunk_chips=0)


class TestPoolThreshold:
    """Pool sizing: a pool never starts where it cannot pay off."""

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        """Make the library's one pool start-up (the fleet chunk loop)
        an immediate failure."""
        import repro.system.fleet as fleet_module

        class _Forbidden:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "ProcessPoolExecutor must not start here")

        monkeypatch.setattr(fleet_module, "ProcessPoolExecutor",
                            _Forbidden)

    def test_pool_size_falls_back_to_cpu_count(self, monkeypatch):
        import os
        from repro.solvers.sweep import available_cpus
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpus() == 1

    def test_small_population_sampling_stays_serial(self, no_pool):
        # Process startup costs more than the whole numpy draw, so
        # the sampler must never start a pool, however many CPUs.
        spec = WirePopulationSpec(n_wires=40,
                                  median_ttf_s=units.years(30.0),
                                  sigma=0.4)
        ttfs = sample_population_ttfs_parallel(spec, n_chips=2_000,
                                               seed=3)
        assert ttfs.shape == (2_000,)
