"""Finite-difference solver for Korhonen's EM stress-evolution equation.

Korhonen's model describes the hydrostatic stress ``sigma(x, t)`` in a
confined metal line under an electron-wind driving force::

    d(sigma)/dt = d/dx [ kappa * ( d(sigma)/dx + G ) ]

with ``kappa = D_a * B * Omega / kT`` the stress diffusivity and
``G = e |Z*| rho j / Omega`` the wind force (a stress gradient, Pa/m).
With ``kappa`` and ``G`` uniform along the line the interior equation is
pure diffusion and the drive enters through the boundary conditions:

* a **blocked** end (via/barrier) carries no atomic flux:
  ``d(sigma)/dx = -G`` there;
* a **void** end is a free surface that pins the stress: ``sigma = 0``.

The solver uses backward Euler in time (unconditionally stable -- EM
time scales span minutes to years) and a second-order central scheme in
space with ghost nodes for the flux boundaries.  The tridiagonal
backward-Euler matrix depends only on ``r = kappa dt / dx^2`` and the
boundary kinds, so it is LU-factored once per operating condition
(:class:`repro.solvers.TridiagonalOperator`) and every step is a
single O(n) back-substitution; a change of ``dt``, ``kappa`` or
boundary condition re-keys the factorization cache and transparently
refactors.

Sign convention: positive current density drives *tension* (positive
stress) at ``x = 0`` -- the cathode of the paper's Fig. 1(b) -- and
compression at ``x = L``; voids nucleate where tension exceeds the
material's critical stress.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.solvers import FactorizationCache, TridiagonalOperator


#: Most implicit steps one ``advance`` call may take.  A call whose
#: ``ceil(duration_s / max_dt_s)`` exceeds it is refused before any
#: state changes: ``advance(1e15)`` at ``max_dt_s=60`` (1.7e13 steps)
#: would otherwise not return in any useful time.  The largest call in
#: this package, its tests and its benchmark takes about 2.1e4 steps,
#: 4700 times fewer.
MAX_IMPLICIT_STEPS = 10 ** 8


def _check_step_count(duration_s: float, max_dt_s: float) -> None:
    n_steps = math.ceil(duration_s / max_dt_s)
    if n_steps > MAX_IMPLICIT_STEPS:
        raise SimulationError(
            f"advancing {duration_s:g} s at max_dt_s={max_dt_s:g} "
            f"takes {n_steps:.3g} implicit steps, more than "
            f"MAX_IMPLICIT_STEPS={MAX_IMPLICIT_STEPS}")


class BoundaryKind(enum.Enum):
    """Physical condition at a line end."""

    #: No atomic flux through the end (intact via/barrier).
    BLOCKED = "blocked"
    #: A nucleated void keeps the end stress-free.
    VOID = "void"


@dataclass(frozen=True)
class KorhonenConfig:
    """Discretization parameters of the stress PDE.

    Attributes:
        n_nodes: spatial nodes along the line.  The cathode boundary
            layer is ~sqrt(kappa * t) thick; the default resolves the
            paper's accelerated-test layer (~15 um on a 2.7 mm line).
        max_dt_s: upper bound on an individual implicit time step.
    """

    n_nodes: int = 1201
    max_dt_s: float = 30.0

    def __post_init__(self) -> None:
        if self.n_nodes < 3:
            raise ValueError("n_nodes must be at least 3")
        if self.max_dt_s <= 0.0:
            raise ValueError("max_dt_s must be positive")


def _build_step_operator(n: int, r: float, start_boundary: BoundaryKind,
                         end_boundary: BoundaryKind) -> TridiagonalOperator:
    """Factorized backward-Euler matrix ``(I - dt * kappa * Laplacian)``.

    Shared by the serial and batched solvers so both step through
    byte-identical factorizations for the same ``(n, r, boundaries)``.
    """
    lower = np.full(n - 1, -r)
    diag = np.full(n, 1.0 + 2.0 * r)
    upper = np.full(n - 1, -r)
    if start_boundary is BoundaryKind.BLOCKED:
        # Ghost node from d(sigma)/dx = -G at x=0:
        # sigma[-1] = sigma[1] + 2 dx G
        upper[0] = -2.0 * r
    else:
        diag[0] = 1.0
        upper[0] = 0.0
    if end_boundary is BoundaryKind.BLOCKED:
        # Ghost node from d(sigma)/dx = -G at x=L:
        # sigma[n] = sigma[n-2] - 2 dx G
        lower[n - 2] = -2.0 * r
    else:
        diag[n - 1] = 1.0
        lower[n - 2] = 0.0
    return TridiagonalOperator(lower, diag, upper)


class KorhonenSolver:
    """Stress-evolution state for one line.

    The solver is agnostic of material and temperature: callers pass
    the current ``kappa`` and ``G`` to :meth:`advance`, which lets one
    instance model time-varying temperature and current (including the
    paper's reverse-current recovery, which simply flips the sign of
    ``G``).
    """

    def __init__(self, length_m: float,
                 config: Optional[KorhonenConfig] = None):
        if length_m <= 0.0:
            raise ValueError("length_m must be positive")
        self.length_m = length_m
        self.config = config or KorhonenConfig()
        self.n = self.config.n_nodes
        self.dx = length_m / (self.n - 1)
        self.x = np.linspace(0.0, length_m, self.n)
        self.stress = np.zeros(self.n)
        self.time_s = 0.0
        self._operators = FactorizationCache(maxsize=8,
                                             name="em.korhonen.lu")

    # -- observables ----------------------------------------------------

    @property
    def stress_at_start(self) -> float:
        """Stress at ``x = 0`` (tension side for positive current)."""
        return float(self.stress[0])

    @property
    def stress_at_end(self) -> float:
        """Stress at ``x = L``."""
        return float(self.stress[-1])

    def mean_stress(self) -> float:
        """Line-average stress; conserved while both ends are blocked."""
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(self.stress, self.x) / self.length_m)

    def profile(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of ``(x, sigma(x))`` for plotting/inspection."""
        return self.x.copy(), self.stress.copy()

    def copy(self) -> "KorhonenSolver":
        """Deep copy of the solver state."""
        clone = KorhonenSolver(self.length_m, self.config)
        clone.stress = self.stress.copy()
        clone.time_s = self.time_s
        return clone

    def reset(self) -> None:
        """Return to the stress-free fresh state."""
        self.stress[:] = 0.0
        self.time_s = 0.0

    # -- stepping ---------------------------------------------------------

    def advance(self, duration_s: float, kappa_m2_s: float,
                wind_gradient_pa_m: float,
                start_boundary: BoundaryKind = BoundaryKind.BLOCKED,
                end_boundary: BoundaryKind = BoundaryKind.BLOCKED) -> None:
        """Advance the stress field for ``duration_s`` seconds.

        Args:
            duration_s: physical time to advance.
            kappa_m2_s: stress diffusivity at the present temperature.
            wind_gradient_pa_m: signed wind force ``G``; positive
                builds tension at ``x = 0``.
            start_boundary: condition at ``x = 0``.
            end_boundary: condition at ``x = L``.

        Raises:
            SimulationError: for a negative duration, a non-positive
                diffusivity, any non-finite input, or a duration of
                more than :data:`MAX_IMPLICIT_STEPS` steps (checked
                before the state changes).
        """
        if not math.isfinite(duration_s) or duration_s < 0.0:
            raise SimulationError("duration must be finite and "
                                  "non-negative")
        _check_step_count(duration_s, self.config.max_dt_s)
        if not math.isfinite(kappa_m2_s) or kappa_m2_s <= 0.0:
            raise SimulationError("stress diffusivity must be finite "
                                  "and positive")
        if not math.isfinite(wind_gradient_pa_m):
            raise SimulationError("wind gradient must be finite")
        if duration_s == 0.0:
            return
        # Group runs of equal dt (everything but a final partial step)
        # so the operator lookup and boundary dispatch happen once per
        # run and the hot loop is a bare back-substitution.  The
        # ``remaining`` bookkeeping mirrors the plain one-step-per-
        # iteration loop exactly, so the dt sequence is unchanged.
        remaining = duration_s
        max_dt = self.config.max_dt_s
        while remaining > 1e-12:
            dt = min(remaining, max_dt)
            remaining -= dt
            n_steps = 1
            while remaining > 1e-12 and min(remaining, max_dt) == dt:
                remaining -= dt
                n_steps += 1
            self._run_steps(n_steps, dt, kappa_m2_s,
                            wind_gradient_pa_m, start_boundary,
                            end_boundary)
            self.time_s += n_steps * dt

    def _operator(self, r: float, start_boundary: BoundaryKind,
                  end_boundary: BoundaryKind) -> TridiagonalOperator:
        """The factorized (I - dt * kappa * Laplacian) system.

        Keyed by ``(n, r, boundaries)``, so any change of ``dt``,
        ``kappa`` or boundary kind rebuilds while the common
        fixed-condition stepping loop reuses one factorization.
        """
        key = (self.n, r, start_boundary, end_boundary)
        return self._operators.get_or_build(
            key, lambda: _build_step_operator(self.n, r, start_boundary,
                                              end_boundary))

    def _implicit_step(self, dt: float, kappa: float, gradient: float,
                       start_boundary: BoundaryKind,
                       end_boundary: BoundaryKind) -> None:
        self._run_steps(1, dt, kappa, gradient, start_boundary,
                        end_boundary)

    def _run_steps(self, n_steps: int, dt: float, kappa: float,
                   gradient: float, start_boundary: BoundaryKind,
                   end_boundary: BoundaryKind) -> None:
        r = kappa * dt / (self.dx * self.dx)
        solve = self._operator(r, start_boundary, end_boundary).solve
        start_blocked = start_boundary is BoundaryKind.BLOCKED
        end_blocked = end_boundary is BoundaryKind.BLOCKED
        injection = 2.0 * r * self.dx * gradient
        last = self.n - 1
        # The previous stress vector doubles as the RHS buffer: only
        # the two boundary entries differ, and the back-substitution
        # overwrites it with the new stress (allocation-free steps).
        stress = self.stress
        for _ in range(n_steps):
            if start_blocked:
                stress[0] += injection
            else:
                stress[0] = 0.0
            if end_blocked:
                stress[last] -= injection
            else:
                stress[last] = 0.0
            stress = solve(stress, overwrite_rhs=True)
        self.stress = stress


def _as_wire_rows(value, n_wires: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-wire sequence to ``(n_wires,)``."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n_wires, float(arr))
    if arr.shape != (n_wires,):
        raise ValueError(
            f"{name} must be a scalar or have shape ({n_wires},), "
            f"got {arr.shape}")
    return np.array(arr, dtype=float)


#: Boundary kinds by the integer code the batch stores per wire.
_BOUNDARY_KINDS = (BoundaryKind.BLOCKED, BoundaryKind.VOID)


def _as_boundary_rows(value, n_wires: int, name: str) -> np.ndarray:
    """Per-wire boundary codes (indices into ``_BOUNDARY_KINDS``)."""
    if isinstance(value, BoundaryKind):
        return np.full(n_wires, _BOUNDARY_KINDS.index(value))
    kinds = list(value)
    if len(kinds) != n_wires:
        raise ValueError(
            f"{name} must be one BoundaryKind or a sequence of "
            f"{n_wires}, got {len(kinds)} entries")
    for kind in kinds:
        if not isinstance(kind, BoundaryKind):
            raise ValueError(f"{name} entries must be BoundaryKind")
    return np.array([_BOUNDARY_KINDS.index(kind) for kind in kinds])


class KorhonenBatch:
    """Stacked stress-evolution state for a population of lines.

    Holds the stress fields of ``n_wires`` lines sharing one length
    and discretization as a single node-major ``(n_nodes, n_wires)``
    slab, and advances all of them through one multi-right-hand-side
    back-substitution per implicit time step
    (:meth:`repro.solvers.TridiagonalOperator.solve_many`) instead of
    one solve per wire.  Wires may carry per-wire diffusivity, wind
    gradient and boundary conditions: they are grouped by the
    backward-Euler key ``(r, boundaries)`` and each group steps
    through one shared factorization.  The batched sweeps perform the
    exact per-column arithmetic of the scalar solver, so every wire's
    stress trajectory is bit-identical to running it alone through
    :class:`KorhonenSolver` with the same step schedule.
    """

    def __init__(self, length_m: float, n_wires: int,
                 config: Optional[KorhonenConfig] = None):
        if length_m <= 0.0:
            raise ValueError("length_m must be positive")
        if n_wires < 1:
            raise ValueError("n_wires must be at least 1")
        self.length_m = length_m
        self.n_wires = n_wires
        self.config = config or KorhonenConfig()
        self.n = self.config.n_nodes
        self.dx = length_m / (self.n - 1)
        self.x = np.linspace(0.0, length_m, self.n)
        # Node-major so each node's values across the population are
        # contiguous: boundary injections and the vectorized LU sweeps
        # all touch whole rows.
        self._block = np.zeros((self.n, n_wires))
        self.time_s = 0.0
        self._operators = FactorizationCache(
            maxsize=8, name="em.korhonen.lu.batched")

    # -- observables ----------------------------------------------------

    @property
    def stress(self) -> np.ndarray:
        """``(n_wires, n_nodes)`` view; row ``i`` is wire ``i``'s field."""
        return self._block.T

    @property
    def stress_at_start(self) -> np.ndarray:
        """Per-wire stress at ``x = 0`` (tension side), shape ``(n_wires,)``."""
        return self._block[0].copy()

    @property
    def stress_at_end(self) -> np.ndarray:
        """Per-wire stress at ``x = L``, shape ``(n_wires,)``."""
        return self._block[-1].copy()

    def mean_stress(self) -> np.ndarray:
        """Per-wire line-average stress, shape ``(n_wires,)``."""
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return trapezoid(self._block, self.x, axis=0) / self.length_m

    def copy(self) -> "KorhonenBatch":
        """Deep copy of the batch state."""
        clone = KorhonenBatch(self.length_m, self.n_wires, self.config)
        clone._block[...] = self._block
        clone.time_s = self.time_s
        return clone

    def reset(self) -> None:
        """Return every wire to the stress-free fresh state."""
        self._block[:] = 0.0
        self.time_s = 0.0

    def retain(self, wires: Union[Sequence[int], np.ndarray]) -> None:
        """Drop all but the given wires (order preserved).

        Wires are independent columns, so compaction never perturbs
        the survivors' trajectories.  Samplers use this to stop
        advancing wires whose event of interest (e.g. void
        nucleation) has already been recorded, mirroring the early
        exit of a per-wire serial loop.
        """
        idx = np.asarray(wires, dtype=np.intp)
        if idx.ndim != 1 or idx.size < 1:
            raise ValueError("retain needs at least one wire index")
        if np.any(idx < 0) or np.any(idx >= self.n_wires):
            raise ValueError("wire index out of range")
        self._block = np.ascontiguousarray(self._block[:, idx])
        self.n_wires = int(idx.size)

    # -- stepping ---------------------------------------------------------

    def advance(self, duration_s: float,
                kappa_m2_s: Union[float, Sequence[float], np.ndarray],
                wind_gradient_pa_m: Union[float, Sequence[float],
                                          np.ndarray],
                start_boundary: Union[BoundaryKind,
                                      Sequence[BoundaryKind]]
                = BoundaryKind.BLOCKED,
                end_boundary: Union[BoundaryKind,
                                    Sequence[BoundaryKind]]
                = BoundaryKind.BLOCKED) -> None:
        """Advance every wire's stress field by ``duration_s`` seconds.

        ``kappa_m2_s``, ``wind_gradient_pa_m`` and the boundary kinds
        accept either one shared value or one value per wire.  The dt
        subdivision matches :meth:`KorhonenSolver.advance` exactly
        (same ``remaining`` bookkeeping), so mixed batched/serial runs
        stay step-for-step comparable.

        Raises:
            SimulationError: for a negative duration, a non-positive
                diffusivity, any non-finite duration, diffusivity or
                gradient row, or a duration of more than
                :data:`MAX_IMPLICIT_STEPS` steps (checked before the
                state changes).
        """
        if not math.isfinite(duration_s) or duration_s < 0.0:
            raise SimulationError("duration must be finite and "
                                  "non-negative")
        _check_step_count(duration_s, self.config.max_dt_s)
        kappa = _as_wire_rows(kappa_m2_s, self.n_wires, "kappa_m2_s")
        if not np.all(np.isfinite(kappa) & (kappa > 0.0)):
            raise SimulationError("stress diffusivity must be finite "
                                  "and positive")
        gradient = _as_wire_rows(wind_gradient_pa_m, self.n_wires,
                                 "wind_gradient_pa_m")
        if not np.isfinite(gradient).all():
            raise SimulationError("wind gradient must be finite")
        starts = _as_boundary_rows(start_boundary, self.n_wires,
                                   "start_boundary")
        ends = _as_boundary_rows(end_boundary, self.n_wires,
                                 "end_boundary")
        if duration_s == 0.0:
            return
        remaining = duration_s
        max_dt = self.config.max_dt_s
        while remaining > 1e-12:
            dt = min(remaining, max_dt)
            remaining -= dt
            n_steps = 1
            while remaining > 1e-12 and min(remaining, max_dt) == dt:
                remaining -= dt
                n_steps += 1
            self._run_steps(n_steps, dt, kappa, gradient, starts, ends)
            self.time_s += n_steps * dt

    def _run_steps(self, n_steps: int, dt: float, kappa: np.ndarray,
                   gradient: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> None:
        r_rows = kappa * dt / (self.dx * self.dx)
        # Group wires sharing a backward-Euler matrix: a stable sort on
        # the exact key (r, start, end), cut where the key changes.
        # Populations swept over current density share kappa, so the
        # common case is a single group covering the whole batch.
        order = np.lexsort((ends, starts, r_rows))
        keys = np.stack((r_rows, starts, ends))[:, order]
        cuts = np.flatnonzero((keys[:, 1:] != keys[:, :-1]).any(axis=0))
        # Step the groups in order of first appearance, each member
        # list ascending, as the wires were numbered.
        groups = sorted(np.split(order, cuts + 1),
                        key=lambda members: members[0])
        for members in groups:
            first = members[0]
            r = float(r_rows[first])
            start_kind = _BOUNDARY_KINDS[starts[first]]
            end_kind = _BOUNDARY_KINDS[ends[first]]
            operator = self._operators.get_or_build(
                (self.n, r, start_kind, end_kind),
                lambda: _build_step_operator(self.n, r, start_kind,
                                             end_kind))
            rows = None if members.size == self.n_wires else members
            self._step_group(operator, n_steps, r, gradient, rows,
                             start_kind, end_kind)

    def _step_group(self, operator: TridiagonalOperator, n_steps: int,
                    r: float, gradient: np.ndarray,
                    rows: Optional[np.ndarray],
                    start_kind: BoundaryKind,
                    end_kind: BoundaryKind) -> None:
        start_blocked = start_kind is BoundaryKind.BLOCKED
        end_blocked = end_kind is BoundaryKind.BLOCKED
        if rows is None:
            injections = 2.0 * r * self.dx * gradient
            block = self._block
        else:
            injections = 2.0 * r * self.dx * gradient[rows]
            block = np.ascontiguousarray(self._block[:, rows])
        # ``block`` is node-major C-contiguous, so the vectorized LU
        # sweeps overwrite it in place: the hot loop allocates nothing
        # beyond the solver's (k,) scratch row.
        solve = operator.solve_many
        telemetry = self._operators
        n_group = block.shape[1]
        for _ in range(n_steps):
            if start_blocked:
                block[0] += injections
            else:
                block[0] = 0.0
            if end_blocked:
                block[-1] -= injections
            else:
                block[-1] = 0.0
            block = solve(block, overwrite_rhs=True)
            telemetry.record_batched_solve(n_group)
        if rows is not None:
            self._block[:, rows] = block
