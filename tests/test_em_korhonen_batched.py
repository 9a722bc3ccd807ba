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
        assert operator._pivoted_rows.any() == pivots
        rng = np.random.default_rng(11)
        block = rng.standard_normal((n, VECTORIZED_MIN_COLUMNS + 8))
        wide = operator.solve_many(block.copy())
        for column in range(0, block.shape[1],
                            VECTORIZED_MIN_COLUMNS // 4):
            assert np.array_equal(wide[:, column],
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


class TestBatchedTtfSampler:
    def test_batched_and_serial_engines_agree_exactly(self):
        """The batched sampler against a serial :class:`KorhonenSolver`
        loop over the same per-wire current draws."""
        config = KorhonenConfig(n_nodes=101, max_dt_s=5e3)
        condition = dataclasses.replace(
            PAPER_EM_STRESS,
            current_density_a_m2=PAPER_EM_STRESS.current_density_a_m2
            * 0.05)
        n_wires, max_time_s, probe_step_s = 24, 6e6, 2e5
        batched = sample_nucleation_ttfs_pde(
            n_wires, max_time_s, probe_step_s, wire=PAPER_TEST_WIRE,
            condition=condition, j_sigma=0.1, seed=42, config=config)

        rng = np.random.default_rng(42)
        densities = condition.current_density_a_m2 \
            * np.exp(0.1 * rng.standard_normal(n_wires))
        material = PAPER_TEST_WIRE.material
        temp = condition.temperature_k
        kappa = material.stress_diffusivity_at(temp)
        serial = np.full(n_wires, np.inf)
        solver = KorhonenSolver(PAPER_TEST_WIRE.length_m, config)
        for index, density in enumerate(densities):
            solver.reset()
            gradient = material.wind_stress_gradient(density, temp)
            for probe in range(1, int(max_time_s / probe_step_s) + 1):
                solver.advance(probe_step_s, kappa, gradient)
                if solver.stress[0] >= material.critical_stress_pa:
                    serial[index] = probe * probe_step_s
                    break
        assert np.array_equal(batched, serial)
        # The scenario must actually nucleate and spread across
        # probes, or the equality above is vacuous.
        finite = np.isfinite(batched)
        assert finite.any()
        assert np.unique(batched[finite]).size > 1
