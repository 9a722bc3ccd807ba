"""Equivalence properties of the batched Korhonen engine.

:class:`~repro.em.korhonen.KorhonenBatch` advances a ``(n_wires,
n_nodes)`` stacked stress state through one batched tridiagonal solve
per step.  The batched back-substitution mirrors LAPACK's ``gtts2``
arithmetic row by row (including its pivot swaps), so a batch wire is
*bit identical* to a serial :class:`~repro.em.korhonen.KorhonenSolver`
run -- these tests pin that exactly (``==``, not ``allclose``) for
uniform and per-wire parameters, mixed boundary groups, compaction via
:meth:`~repro.em.korhonen.KorhonenBatch.retain`, and the wide-batch
vectorized path of
:meth:`~repro.solvers.factorized.TridiagonalOperator.solve_many`.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.em import PAPER_EM_STRESS, PAPER_TEST_WIRE
from repro.em.korhonen import (
    BoundaryKind,
    KorhonenBatch,
    KorhonenConfig,
    KorhonenSolver,
    _build_step_operator,
)
from repro.em.statistics import sample_nucleation_ttfs_pde
from repro.errors import SimulationError
from repro.solvers import cache_counters
from repro.solvers.factorized import VECTORIZED_MIN_COLUMNS

KAPPA = 3.5e-14
GRADIENT = 3.5e13
LENGTH = 2.673e-3
CONFIG = KorhonenConfig(n_nodes=121, max_dt_s=600.0)


ALL_LAYOUTS = [(start, end) for start in BoundaryKind
               for end in BoundaryKind]


def serial_stress(duration_s, kappa, gradient,
                  start=BoundaryKind.BLOCKED,
                  end=BoundaryKind.BLOCKED) -> np.ndarray:
    solver = KorhonenSolver(LENGTH, CONFIG)
    solver.advance(duration_s, kappa, gradient, start, end)
    return solver.stress.copy()


class TestBatchedMatchesSerial:
    def test_uniform_parameters_are_bitwise(self):
        batch = KorhonenBatch(LENGTH, 5, CONFIG)
        batch.advance(7200.0, KAPPA, GRADIENT)
        reference = serial_stress(7200.0, KAPPA, GRADIENT)
        for wire in range(5):
            assert np.array_equal(batch.stress[wire], reference)
        assert batch.time_s == 7200.0

    def test_per_wire_parameters_are_bitwise(self):
        kappas = KAPPA * np.array([0.5, 1.0, 2.0])
        gradients = GRADIENT * np.array([0.8, 1.0, 1.3])
        batch = KorhonenBatch(LENGTH, 3, CONFIG)
        batch.advance(3600.0, kappas, gradients)
        for wire in range(3):
            reference = serial_stress(3600.0, float(kappas[wire]),
                                      float(gradients[wire]))
            assert np.array_equal(batch.stress[wire], reference)

    def test_mixed_boundary_groups_are_bitwise(self):
        starts = [BoundaryKind.BLOCKED, BoundaryKind.VOID,
                  BoundaryKind.BLOCKED, BoundaryKind.VOID]
        ends = [BoundaryKind.BLOCKED, BoundaryKind.BLOCKED,
                BoundaryKind.VOID, BoundaryKind.VOID]
        batch = KorhonenBatch(LENGTH, 4, CONFIG)
        batch.advance(3600.0, KAPPA, GRADIENT, start_boundary=starts,
                      end_boundary=ends)
        for wire in range(4):
            reference = serial_stress(3600.0, KAPPA, GRADIENT,
                                      starts[wire], ends[wire])
            assert np.array_equal(batch.stress[wire], reference)

    def test_multiple_advances_accumulate_like_serial(self):
        batch = KorhonenBatch(LENGTH, 2, CONFIG)
        solver = KorhonenSolver(LENGTH, CONFIG)
        for duration in (900.0, 2500.0, 333.0):
            batch.advance(duration, KAPPA, GRADIENT)
            solver.advance(duration, KAPPA, GRADIENT)
        assert np.array_equal(batch.stress[0], solver.stress)
        assert np.array_equal(batch.stress[1], solver.stress)
        assert batch.time_s == solver.time_s

    def test_wide_batch_exercises_vectorized_solve(self):
        # Past VECTORIZED_MIN_COLUMNS the batched engine switches from
        # LAPACK gttrs to the numpy row-sweep; the result must not
        # change by a single bit.
        n_wires = VECTORIZED_MIN_COLUMNS + 16
        batch = KorhonenBatch(LENGTH, n_wires, CONFIG)
        batch.advance(1800.0, KAPPA, GRADIENT)
        reference = serial_stress(1800.0, KAPPA, GRADIENT)
        assert np.array_equal(
            batch.stress, np.tile(reference, (n_wires, 1)))


class TestSolveMany:
    @pytest.mark.parametrize("start,end,pivots", [
        # A BLOCKED end's -2r ghost entry out-sizes the shifted
        # diagonal at large r, so gttrf pivots near the last
        # elimination rows; a VOID start adds a pivoted run near the
        # identity row.  BLOCKED/VOID is the one pivot-free layout.
        (BoundaryKind.BLOCKED, BoundaryKind.BLOCKED, True),
        (BoundaryKind.VOID, BoundaryKind.BLOCKED, True),
        (BoundaryKind.BLOCKED, BoundaryKind.VOID, False),
        (BoundaryKind.VOID, BoundaryKind.VOID, True),
    ])
    def test_matches_per_column_solve_bitwise(self, start, end,
                                              pivots):
        n = 257
        operator = _build_step_operator(n, 75.0, start, end)
        assert any(operator._pivoted_rows) == pivots
        rng = np.random.default_rng(11)
        block = rng.standard_normal((n, VECTORIZED_MIN_COLUMNS + 8))
        wide = operator.solve_many(block.copy())
        for column in range(0, block.shape[1],
                            VECTORIZED_MIN_COLUMNS // 4):
            assert np.array_equal(wide[:, column],
                                  operator.solve(block[:, column]))

    @pytest.mark.parametrize("width", [VECTORIZED_MIN_COLUMNS - 1,
                                       VECTORIZED_MIN_COLUMNS])
    @pytest.mark.parametrize("start,end", ALL_LAYOUTS)
    def test_crossover_widths_match_per_column_solve(self, start, end,
                                                     width):
        # One column below the crossover runs gttrs, the crossover
        # width itself the row sweep; every column of both must equal
        # its own gttrs solve, pivoted layouts included.
        n = 97
        operator = _build_step_operator(n, 75.0, start, end)
        block = np.random.default_rng(23).standard_normal((n, width))
        solved = operator.solve_many(block.copy())
        for column in range(width):
            assert np.array_equal(solved[:, column],
                                  operator.solve(block[:, column]))

    def test_narrow_block_falls_back_to_lapack(self):
        operator = _build_step_operator(101, 10.0,
                                        BoundaryKind.BLOCKED,
                                        BoundaryKind.BLOCKED)
        rng = np.random.default_rng(5)
        block = rng.standard_normal((101, 3))
        narrow = operator.solve_many(block.copy())
        for column in range(3):
            assert np.array_equal(narrow[:, column],
                                  operator.solve(block[:, column]))

    def test_overwrite_rhs_writes_in_place(self):
        operator = _build_step_operator(64, 2.0, BoundaryKind.BLOCKED,
                                        BoundaryKind.BLOCKED)
        rng = np.random.default_rng(9)
        block = np.ascontiguousarray(
            rng.standard_normal((64, VECTORIZED_MIN_COLUMNS)))
        expected = operator.solve_many(block.copy())
        out = operator.solve_many(block, overwrite_rhs=True)
        assert out is block
        assert np.array_equal(block, expected)

    def test_rejects_wrong_shape(self):
        operator = _build_step_operator(64, 2.0, BoundaryKind.BLOCKED,
                                        BoundaryKind.BLOCKED)
        with pytest.raises(ValueError):
            operator.solve_many(np.zeros((65, 4)))
        with pytest.raises(ValueError):
            operator.solve_many(np.zeros(64))


class TestRetain:
    def test_surviving_wires_are_unperturbed(self):
        kappas = KAPPA * np.linspace(0.5, 1.5, 6)
        full = KorhonenBatch(LENGTH, 6, CONFIG)
        full.advance(1800.0, kappas, GRADIENT)
        keep = np.array([0, 2, 5])
        compacted = full.copy()
        compacted.retain(keep)
        assert compacted.n_wires == 3
        compacted.advance(1800.0, kappas[keep], GRADIENT)
        # The dropped columns never coupled to the survivors, so the
        # compacted trajectory matches the uncompacted one exactly.
        full.advance(1800.0, kappas, GRADIENT)
        assert np.array_equal(compacted.stress, full.stress[keep])

    def test_rejects_bad_indices(self):
        batch = KorhonenBatch(LENGTH, 4, CONFIG)
        with pytest.raises(ValueError):
            batch.retain([])
        with pytest.raises(ValueError):
            batch.retain([4])
        with pytest.raises(ValueError):
            batch.retain([[0, 1]])


class TestValidation:
    def test_rejects_bad_wire_count(self):
        with pytest.raises(ValueError):
            KorhonenBatch(LENGTH, 0, CONFIG)

    def test_rejects_mismatched_row_shapes(self):
        batch = KorhonenBatch(LENGTH, 3, CONFIG)
        with pytest.raises(ValueError):
            batch.advance(100.0, np.full(2, KAPPA), GRADIENT)
        with pytest.raises(ValueError):
            batch.advance(100.0, KAPPA, GRADIENT,
                          start_boundary=[BoundaryKind.BLOCKED] * 2)

    def test_rejects_non_positive_kappa_rows(self):
        batch = KorhonenBatch(LENGTH, 3, CONFIG)
        with pytest.raises(SimulationError):
            batch.advance(100.0, [KAPPA, 0.0, KAPPA], GRADIENT)

    @pytest.mark.parametrize("duration,kappa,gradient", [
        (math.inf, KAPPA, GRADIENT),
        (math.nan, KAPPA, GRADIENT),
        (600.0, [KAPPA, math.nan, KAPPA], GRADIENT),
        (600.0, [KAPPA, KAPPA, math.inf], GRADIENT),
        (600.0, KAPPA, [GRADIENT, GRADIENT, math.nan]),
        (600.0, KAPPA, [-math.inf, GRADIENT, GRADIENT]),
    ])
    def test_rejects_non_finite_inputs_before_stepping(
            self, duration, kappa, gradient):
        # One bad row is enough: it is refused before any wire steps.
        batch = KorhonenBatch(LENGTH, 3, CONFIG)
        batch.advance(1200.0, KAPPA, GRADIENT)
        stress, time_s = batch.stress.copy(), batch.time_s
        with pytest.raises(SimulationError, match="finite"):
            batch.advance(duration, kappa, gradient)
        assert np.array_equal(batch.stress, stress)
        assert batch.time_s == time_s

    def test_counts_batched_solves(self):
        before = cache_counters().get("em.korhonen.lu.batched",
                                      {"batched_solves": 0,
                                       "batched_rows": 0})
        batch = KorhonenBatch(LENGTH, 8, CONFIG)
        batch.advance(1800.0, KAPPA, GRADIENT)
        del batch  # totals must outlive the engine that recorded them
        after = cache_counters()["em.korhonen.lu.batched"]
        assert after["batched_solves"] > before["batched_solves"]
        assert after["batched_rows"] - before["batched_rows"] >= 8


#: The paper's accelerated-test current derated so nucleation spreads
#: over many probes of a 6e6 s horizon.
DERATED_STRESS = dataclasses.replace(
    PAPER_EM_STRESS,
    current_density_a_m2=PAPER_EM_STRESS.current_density_a_m2 * 0.05)


def serial_ttfs(wires, n_wires, max_time_s, probe_step_s, j_sigma,
                seed, config) -> np.ndarray:
    """Nucleation times of the given sampler wires, one serial
    :class:`KorhonenSolver` run each over the sampler's own draws."""
    rng = np.random.default_rng(seed)
    densities = DERATED_STRESS.current_density_a_m2 \
        * np.exp(j_sigma * rng.standard_normal(n_wires))
    material = PAPER_TEST_WIRE.material
    temp = DERATED_STRESS.temperature_k
    kappa = material.stress_diffusivity_at(temp)
    ttfs = np.full(len(wires), np.inf)
    solver = KorhonenSolver(PAPER_TEST_WIRE.length_m, config)
    for index, wire in enumerate(wires):
        solver.reset()
        gradient = material.wind_stress_gradient(densities[wire], temp)
        for probe in range(1, int(max_time_s / probe_step_s) + 1):
            solver.advance(probe_step_s, kappa, gradient)
            if solver.stress[0] >= material.critical_stress_pa:
                ttfs[index] = probe * probe_step_s
                break
    return ttfs


class TestBatchedTtfSampler:
    def test_batched_and_serial_engines_agree_exactly(self):
        """The batched sampler against a serial :class:`KorhonenSolver`
        loop over the same per-wire current draws."""
        config = KorhonenConfig(n_nodes=101, max_dt_s=5e3)
        n_wires, max_time_s, probe_step_s = 24, 6e6, 2e5
        batched = sample_nucleation_ttfs_pde(
            n_wires, max_time_s, probe_step_s, wire=PAPER_TEST_WIRE,
            condition=DERATED_STRESS, j_sigma=0.1, seed=42,
            config=config)
        serial = serial_ttfs(range(n_wires), n_wires, max_time_s,
                             probe_step_s, 0.1, 42, config)
        assert np.array_equal(batched, serial)
        # The scenario must actually nucleate and spread across
        # probes, or the equality above is vacuous.
        finite = np.isfinite(batched)
        assert finite.any()
        assert np.unique(batched[finite]).size > 1

    def test_wide_population_crosses_into_lapack_path(self):
        """A population wider than the crossover starts on the numpy
        row sweep; as nucleated wires are compacted out it narrows
        below the crossover onto ``gttrs``.  Wires sampled across the
        whole run, early and late nucleators alike, equal their serial
        runs bit for bit."""
        config = KorhonenConfig(n_nodes=41, max_dt_s=2e4)
        n_wires = VECTORIZED_MIN_COLUMNS + 64
        max_time_s, probe_step_s = 6e6, 2e5
        batched = sample_nucleation_ttfs_pde(
            n_wires, max_time_s, probe_step_s, wire=PAPER_TEST_WIRE,
            condition=DERATED_STRESS, j_sigma=0.1, seed=3,
            config=config)
        # Wires still stepping after each probe: the batch must run
        # wide for several nucleating probes, then narrow below the
        # crossover with wires left, or one path goes untested.
        probes = probe_step_s * np.arange(1, int(max_time_s
                                                 / probe_step_s) + 1)
        alive = np.array([(batched > t).sum() for t in probes])
        wide_nucleating = (alive[1:] < alive[:-1]) \
            & (alive[:-1] >= VECTORIZED_MIN_COLUMNS)
        assert wide_nucleating.sum() >= 3
        assert np.any((alive > 0) & (alive < VECTORIZED_MIN_COLUMNS))

        wires = np.arange(0, n_wires, 4)
        serial = serial_ttfs(wires, n_wires, max_time_s, probe_step_s,
                             0.1, 3, config)
        assert np.array_equal(batched[wires], serial)
        assert np.unique(serial).size >= 5

    @pytest.mark.parametrize("argument,value", [
        ("max_time_s", math.inf),
        ("max_time_s", math.nan),
        ("probe_step_s", math.inf),
        ("probe_step_s", math.nan),
        ("j_sigma", math.nan),
        ("j_sigma", math.inf),
    ])
    def test_rejects_non_finite_arguments(self, argument, value):
        # Unchecked, a non-finite horizon escapes as a raw ValueError
        # or OverflowError, and a non-finite j_sigma reports every
        # wire as never nucleating.
        arguments = dict(max_time_s=6e6, probe_step_s=2e5, j_sigma=0.1)
        arguments[argument] = value
        with pytest.raises(SimulationError, match="finite"):
            sample_nucleation_ttfs_pde(
                8, arguments.pop("max_time_s"),
                arguments.pop("probe_step_s"),
                config=KorhonenConfig(n_nodes=41, max_dt_s=2e4),
                **arguments)
