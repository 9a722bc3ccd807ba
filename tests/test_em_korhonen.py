"""Tests for repro.em.korhonen (the stress-evolution PDE solver)."""

import math

import numpy as np
import pytest

from repro.em.korhonen import (
    MAX_IMPLICIT_STEPS,
    BoundaryKind,
    KorhonenConfig,
    KorhonenSolver,
)
from repro.errors import SimulationError

#: Representative accelerated-test parameters (SI).
KAPPA = 3.5e-14
GRADIENT = 3.5e13
LENGTH = 2.673e-3


@pytest.fixture()
def solver() -> KorhonenSolver:
    return KorhonenSolver(LENGTH, KorhonenConfig(n_nodes=301,
                                                 max_dt_s=60.0))


class TestBasics:
    def test_starts_stress_free(self, solver):
        assert solver.stress_at_start == 0.0
        assert solver.stress_at_end == 0.0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            KorhonenSolver(0.0)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            KorhonenConfig(n_nodes=2)

    def test_rejects_negative_duration(self, solver):
        with pytest.raises(SimulationError):
            solver.advance(-1.0, KAPPA, GRADIENT)

    def test_rejects_non_positive_kappa(self, solver):
        with pytest.raises(SimulationError):
            solver.advance(1.0, 0.0, GRADIENT)

    @pytest.mark.parametrize("duration,kappa,gradient", [
        (math.inf, KAPPA, GRADIENT),
        (math.nan, KAPPA, GRADIENT),
        (60.0, math.nan, GRADIENT),
        (60.0, math.inf, GRADIENT),
        (60.0, KAPPA, math.nan),
        (60.0, KAPPA, -math.inf),
    ])
    def test_rejects_non_finite_inputs_before_stepping(
            self, solver, duration, kappa, gradient):
        # An infinite duration would step forever, a NaN one would be
        # a silent no-op, and a NaN/inf kappa or gradient would fill
        # the field with NaN: each is refused with the state intact.
        solver.advance(600.0, KAPPA, GRADIENT)
        stress, time_s = solver.stress.copy(), solver.time_s
        with pytest.raises(SimulationError, match="finite"):
            solver.advance(duration, kappa, gradient)
        assert np.array_equal(solver.stress, stress)
        assert solver.time_s == time_s


    @pytest.mark.parametrize(
        "duration", [1e15, 60.0 * (MAX_IMPLICIT_STEPS + 1)])
    def test_refuses_an_unbounded_step_count_before_stepping(
            self, solver, duration):
        # 1e15 s at max_dt_s=60 is 1.7e13 implicit steps: without the
        # bound the call runs for days instead of failing.
        solver.advance(600.0, KAPPA, GRADIENT)
        stress, time_s = solver.stress.copy(), solver.time_s
        with pytest.raises(SimulationError, match="MAX_IMPLICIT_STEPS"):
            solver.advance(duration, KAPPA, GRADIENT)
        assert np.array_equal(solver.stress, stress)
        assert solver.time_s == time_s


class TestBlockedStress:
    def test_tension_builds_at_start(self, solver):
        solver.advance(3600.0, KAPPA, GRADIENT)
        assert solver.stress_at_start > 0.0

    def test_compression_builds_at_end(self, solver):
        solver.advance(3600.0, KAPPA, GRADIENT)
        assert solver.stress_at_end < 0.0

    def test_profile_is_antisymmetric(self, solver):
        solver.advance(3600.0, KAPPA, GRADIENT)
        _x, sigma = solver.profile()
        assert sigma[0] == pytest.approx(-sigma[-1], rel=1e-6)

    def test_mean_stress_is_conserved(self, solver):
        """Blocked ends carry no flux, so total stress integrates to 0."""
        solver.advance(7200.0, KAPPA, GRADIENT)
        scale = abs(solver.stress_at_start)
        assert abs(solver.mean_stress()) < 1e-6 * scale

    def test_reversed_gradient_flips_the_profile(self):
        forward = KorhonenSolver(LENGTH, KorhonenConfig(n_nodes=301))
        reverse = KorhonenSolver(LENGTH, KorhonenConfig(n_nodes=301))
        forward.advance(3600.0, KAPPA, GRADIENT)
        reverse.advance(3600.0, KAPPA, -GRADIENT)
        assert forward.stress_at_start == pytest.approx(
            -reverse.stress_at_start, rel=1e-9)

    def test_matches_semi_infinite_solution_early(self, solver):
        """sigma(0,t) = 2 G sqrt(kappa t / pi) before the far end is felt."""
        time_s = 3600.0
        solver.advance(time_s, KAPPA, GRADIENT)
        analytic = 2.0 * GRADIENT * math.sqrt(KAPPA * time_s / math.pi)
        assert solver.stress_at_start == pytest.approx(analytic, rel=0.05)

    def test_recovery_pulls_stress_back(self, solver):
        solver.advance(3600.0, KAPPA, GRADIENT)
        peak = solver.stress_at_start
        solver.advance(1800.0, KAPPA, -GRADIENT)
        assert solver.stress_at_start < peak

    def test_steady_state_is_linear(self):
        """After many diffusion times the profile is sigma = -G x + c."""
        short = KorhonenSolver(2e-5, KorhonenConfig(n_nodes=101,
                                                    max_dt_s=10.0))
        short.advance(2e5, KAPPA, GRADIENT)
        x, sigma = short.profile()
        slope = np.polyfit(x, sigma, 1)[0]
        assert slope == pytest.approx(-GRADIENT, rel=0.01)


class TestVoidBoundary:
    def test_void_end_is_pinned_to_zero(self, solver):
        solver.advance(3600.0, KAPPA, GRADIENT,
                       start_boundary=BoundaryKind.VOID)
        assert solver.stress_at_start == pytest.approx(0.0, abs=1e-6)

    def test_void_at_far_end(self, solver):
        solver.advance(3600.0, KAPPA, GRADIENT,
                       end_boundary=BoundaryKind.VOID)
        assert solver.stress_at_end == pytest.approx(0.0, abs=1e-6)
        assert solver.stress_at_start > 0.0

    def test_nucleation_relaxes_accumulated_stress(self, solver):
        solver.advance(7200.0, KAPPA, GRADIENT)
        peak = solver.stress_at_start
        solver.advance(600.0, KAPPA, GRADIENT,
                       start_boundary=BoundaryKind.VOID)
        assert solver.stress_at_start < peak


class TestCopyReset:
    def test_copy_is_independent(self, solver):
        solver.advance(3600.0, KAPPA, GRADIENT)
        clone = solver.copy()
        clone.advance(3600.0, KAPPA, GRADIENT)
        assert clone.stress_at_start > solver.stress_at_start

    def test_reset_zeroes_the_field(self, solver):
        solver.advance(3600.0, KAPPA, GRADIENT)
        solver.reset()
        assert solver.stress_at_start == 0.0
        assert solver.time_s == 0.0
