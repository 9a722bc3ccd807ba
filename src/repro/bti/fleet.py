"""Stacked trap-population dynamics for one chip or a whole population.

:class:`repro.bti.traps.TrapPopulation` tracks the Table-I trap
dynamics of one device and stays the calibration reference.  System
and fleet studies need the same dynamics for every core of every chip,
so a :class:`StackedTrapPopulations` holds ``n_chips * n_units`` rows
of trap state in one structure-of-arrays block and advances them with
shared sub-step kernels, evaluated as full-stack ufunc passes.  The
standalone :class:`~repro.system.simulator.SystemSimulator` runs on a
one-chip stack and the fleet engine on an ``n_chips`` stack, so both
build and apply their kernels through the same code.

Exactness contract: stacking chips never changes a chip's trajectory
relative to a one-chip stack.  Every per-row update below is
elementwise in the row (unit) dimension -- fills, drains, age
bookkeeping and lock-in all read and write only their own row.  The
only cross-row coupling is the *sub-step count*, derived from each
chip's peak capture acceleration; the stacked step computes that
count per chip and advances chips in groups sharing a count, so every
chip sees the op sequence of its one-chip stack bit for bit (the fleet
equivalence tests assert exactly this).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.bti.traps import TrapPopulationConfig
from repro.errors import SimulationError
from repro.solvers import FactorizationCache, record_counters

#: Row-block height of the sub-step loop.  One block touches about
#: ten ``(block, n_bins)`` arrays (state, kernel slices, scratch), so
#: 256 rows x 64 bins keeps the working set around 1 MiB -- small
#: enough to survive in a per-core L2 across every sub-step of the
#: block, which is what turns the ~15 elementwise passes per sub-step
#: from DRAM streams into cache hits.
_SUBSTEP_BLOCK_ROWS = 256

#: Sub-step cap per epoch for extreme accelerations (as in
#: :meth:`repro.bti.traps.TrapPopulation.stress`).
_MAX_SUBSTEPS = 64


class StackedTrapPopulations:
    """Trap-population state for ``n_chips`` chips of ``n_units`` cores.

    The state lives in flat ``(n_chips * n_units, n_bins)`` arrays
    (chip-major), so the homogeneous case -- one chip, or every chip
    sharing one sub-step count -- advances the whole population with
    in-place masked full-array passes, touching no Python per chip.

    Args:
        n_chips: population size.
        n_units: cores per chip.
        config: trap-population parameters (defaults to the 64-bin
            system configuration).
        kernel_cache_size: LRU capacity of the sub-step kernel memo;
            0 disables it.  A cached kernel holds two dense
            ``(rows, n_bins)`` arrays plus three ``(rows, 1)``
            columns, so fleet-scale callers should size this from a
            memory budget (the fleet simulator does).
            Kernels are only memoized when the caller passes a
            ``kernel_key`` identifying the epoch's conditions.
    """

    def __init__(self, n_chips: int, n_units: int,
                 config: Optional[TrapPopulationConfig] = None,
                 kernel_cache_size: int = 0):
        if n_chips < 1:
            raise SimulationError("n_chips must be at least 1")
        if n_units < 1:
            raise SimulationError("n_units must be at least 1")
        if kernel_cache_size < 0:
            raise SimulationError(
                "kernel_cache_size must be non-negative")
        self.n_chips = n_chips
        self.n_units = n_units
        self.config = config or TrapPopulationConfig(n_bins=64)
        cfg = self.config
        rows = n_chips * n_units
        self.tau_c = np.logspace(math.log10(cfg.tau_min_s),
                                 math.log10(cfg.tau_max_s), cfg.n_bins)
        fresh_weight = cfg.vth_full_shift_v / cfg.n_bins
        shape = (rows, cfg.n_bins)
        self.weights = np.full(shape, fresh_weight)
        self.occupancy = np.zeros(shape)
        self.age_s = np.zeros(shape)
        self.permanent_v = np.zeros(rows)
        self.time_s = 0.0
        # Longest equivalent-stress sub-step (an eighth of the lock-in
        # age, so lock-in stays resolved); counts scale with the peak.
        self._lock_step_s = max(cfg.lock_age_s / 8.0, 1e-9)
        self.kernel_cache = (
            FactorizationCache(maxsize=kernel_cache_size,
                               name="bti.fleet.kernels")
            if kernel_cache_size else None)
        # Sub-step scratch: three float buffers and two masks.
        self._scratch = (np.empty(shape), np.empty(shape),
                         np.empty(shape),
                         np.empty(shape, dtype=bool),
                         np.empty(shape, dtype=bool))

    # -- observables ----------------------------------------------------

    def delta_vth_v(self) -> np.ndarray:
        """Total threshold shift, shaped ``(n_chips, n_units)``."""
        flat = np.einsum("ij,ij->i", self.occupancy, self.weights)
        flat += self.permanent_v
        return flat.reshape(self.n_chips, self.n_units)

    def permanent_vth_v(self) -> np.ndarray:
        """Permanent shift, shaped ``(n_chips, n_units)`` (a view)."""
        return self.permanent_v.reshape(self.n_chips, self.n_units)

    # -- advance --------------------------------------------------------

    def step(self, dt_s: float, stressing: np.ndarray,
             capture_acceleration: np.ndarray,
             recovery_acceleration: np.ndarray,
             kernel_key=None) -> None:
        """Advance every chip by ``dt_s``.

        Args:
            dt_s: epoch length.
            stressing: boolean ``(n_chips, n_units)`` stress mask.
            capture_acceleration: ``(n_chips, n_units)`` capture-rate
                multipliers for the stressing units.
            recovery_acceleration: ``(n_chips, n_units)`` de-trapping
                multipliers for the recovering units.
            kernel_key: optional hashable token uniquely identifying
                the epoch's ``(dt_s, stressing, capture, recovery)``
                content (e.g. the fleet's assignment digest).  When
                given and a kernel cache is configured, the sub-step
                factors are memoized on it; when ``None`` they are
                rebuilt each call.
        """
        if dt_s < 0.0:
            raise SimulationError("dt_s must be non-negative")
        shape = (self.n_chips, self.n_units)
        stressing = np.asarray(stressing, dtype=bool)
        capture = np.asarray(capture_acceleration, dtype=float)
        recovery = np.asarray(recovery_acceleration, dtype=float)
        for array in (stressing, capture, recovery):
            if array.shape != shape:
                raise SimulationError(
                    f"per-unit arrays must have shape {shape}")
        if self.n_chips == 1:
            # One chip is one group: scalar math on its peak capture
            # (the same floats and ceil as the per-chip path below).
            any_stress = bool(stressing.any())
            peak = float(capture.max(initial=-np.inf, where=stressing)) \
                if any_stress else 1.0
            count = math.ceil(dt_s * max(peak, 1e-12) / self._lock_step_s)
            count = min(max(count, 1), _MAX_SUBSTEPS)
            self._advance_rows(
                slice(None), dt_s, count, stressing, capture, recovery,
                any_stress,
                None if kernel_key is None else (kernel_key, count, 0))
            self.time_s += dt_s
            return
        flat_stress = stressing.reshape(-1)
        flat_capture = capture.reshape(-1)
        flat_recovery = recovery.reshape(-1)
        # Per-chip sub-step count, in the operation order of the scalar
        # derivation above.
        any_stress = stressing.any(axis=1)
        peak = np.where(any_stress, np.max(capture, axis=1,
                                           initial=-np.inf,
                                           where=stressing), 1.0)
        raw = np.ceil(dt_s * np.maximum(peak, 1e-12) / self._lock_step_s)
        n_steps = np.clip(raw, 1, _MAX_SUBSTEPS).astype(np.int64)
        # Chips sharing a sub-step count advance together; with no (or
        # mild) process variation that is one group covering the whole
        # stack, i.e. zero gather/scatter.
        for group, count in enumerate(np.unique(n_steps)):
            chips = np.nonzero(n_steps == count)[0]
            if chips.size == self.n_chips:
                rows: object = slice(None)
            else:
                rows = (chips[:, None] * self.n_units
                        + np.arange(self.n_units)[None, :]).reshape(-1)
            sub_key = (None if kernel_key is None
                       else (kernel_key, int(count), group))
            self._advance_rows(
                rows, dt_s, int(count), flat_stress, flat_capture,
                flat_recovery, bool(any_stress[chips].any()), sub_key)
        self.time_s += dt_s

    def _advance_rows(self, rows, dt_s: float, n_steps: int,
                      flat_stress: np.ndarray,
                      flat_capture: np.ndarray,
                      flat_recovery: np.ndarray,
                      any_stress: bool, kernel_key) -> None:
        """Advance one group of chips sharing a sub-step count."""
        step = dt_s / n_steps
        full = isinstance(rows, slice)
        if full:
            occupancy = self.occupancy
            age = self.age_s
            weights = self.weights
            permanent = self.permanent_v
            stress_rows = flat_stress
            capture_rows = flat_capture
            recovery_rows = flat_recovery
        else:
            occupancy = self.occupancy[rows]
            age = self.age_s[rows]
            weights = self.weights[rows]
            permanent = self.permanent_v[rows]
            stress_rows = flat_stress[rows]
            capture_rows = flat_capture[rows]
            recovery_rows = flat_recovery[rows]
        m = occupancy.shape[0]
        if self.kernel_cache is not None and kernel_key is not None:
            kernel = self.kernel_cache.get_or_build(
                kernel_key,
                lambda: self._build_step_kernel(
                    step, stress_rows, capture_rows, recovery_rows))
        else:
            kernel = self._build_step_kernel(
                step, stress_rows, capture_rows, recovery_rows)
        eq_col, stress_col, decay, inflow, fraction = kernel
        # Row-block the sub-step loop so one block's state and kernel
        # slices stay cache-resident across all ``n_steps`` passes --
        # at fleet scale the full stack is tens of megabytes and the
        # ~15 streaming passes per sub-step are otherwise pure DRAM
        # traffic.  Every op below is elementwise per row, so block
        # order changes nothing: each row sees the exact op sequence
        # of an unblocked one-chip stack, bit for bit.
        if m <= _SUBSTEP_BLOCK_ROWS:
            self._advance_block(occupancy, age, weights, permanent,
                                *kernel, n_steps, any_stress)
        else:
            for start in range(0, m, _SUBSTEP_BLOCK_ROWS):
                stop = min(start + _SUBSTEP_BLOCK_ROWS, m)
                self._advance_block(
                    occupancy[start:stop], age[start:stop],
                    weights[start:stop], permanent[start:stop],
                    eq_col[start:stop], stress_col[start:stop],
                    decay[start:stop], inflow[start:stop],
                    None if fraction is None else fraction[start:stop],
                    n_steps, any_stress)
        if not full:
            self.occupancy[rows] = occupancy
            self.age_s[rows] = age
            self.weights[rows] = weights
            self.permanent_v[rows] = permanent

    def _advance_block(self, occupancy, age, weights, permanent,
                       eq_col, stress_col, decay, inflow, fraction,
                       n_steps: int, any_stress: bool) -> None:
        """All sub-steps of one cache-sized row block, in place.

        Fill/drain is the affine map ``occupancy * decay + inflow``;
        occupied bins age in equivalent stress time, emptied bins
        reset, aged stressed bins lock charge in.  Every op is an
        in-place masked pass, elementwise in the row dimension, so
        stacking never changes a chip's trajectory.  The
        per-row-constant factors (``eq_col``, ``stress_col``,
        ``fraction``) stay ``(m, 1)`` columns and broadcast inside the
        ufuncs: same values per element, a fraction of the memory
        traffic.
        """
        cfg = self.config
        m = occupancy.shape[0]
        scratch = self._scratch
        if m < self.occupancy.shape[0]:
            scratch = [buffer[:m] for buffer in scratch]
        buf_a, buf_b, buf_c, mask, positive = scratch
        for _ in range(n_steps):
            np.multiply(occupancy, decay, out=occupancy)
            np.add(occupancy, inflow, out=occupancy)
            np.greater_equal(occupancy, cfg.age_on_occupancy, out=mask)
            np.add(age, eq_col, out=age, where=mask)
            np.less_equal(occupancy, cfg.age_off_occupancy, out=mask)
            np.copyto(age, 0.0, where=mask)
            if fraction is not None and any_stress:
                np.greater(age, cfg.lock_age_s, out=mask)
                np.logical_and(mask, stress_col, out=mask)
                if mask.any():
                    aged = mask
                    np.multiply(weights, occupancy, out=buf_a)
                    np.multiply(buf_a, fraction, out=buf_b)
                    permanent += np.einsum("ij,ij->i", buf_b, aged)
                    np.multiply(occupancy, fraction, out=buf_c)
                    np.subtract(1.0, buf_c, out=buf_c)
                    np.multiply(weights, buf_c, out=weights,
                                where=aged)
                    np.greater(weights, 0.0, out=positive)
                    np.logical_and(positive, aged, out=positive)
                    np.subtract(buf_a, buf_b, out=buf_a)
                    np.maximum(weights, 1e-300, out=buf_c)
                    np.divide(buf_a, buf_c, out=occupancy,
                              where=positive)

    def _build_step_kernel(self, step: float, stressing: np.ndarray,
                           capture: np.ndarray, recovery: np.ndarray):
        """Sub-step-invariant factors for one group of rows.

        The factors depend only on the inputs (the group's rows, in
        any shape that flattens to row order), never on the trap
        state.  Every factor is elementwise per row -- a row's kernel
        is the same whether its chip is stacked or alone -- so the
        transcendental work runs once per *distinct*
        ``(stressing, capture, recovery)`` triple (a fleet of 1k
        chips typically has only ``n_units`` of them) and gathers back
        to full rows -- the gather reproduces each row's value bit for
        bit.  Rows are deduplicated on their raw bytes, never through
        float comparisons, so even ``-0.0`` vs ``0.0`` rows keep their
        own kernels.

        Returns ``(eq_col, stress_col, decay, inflow, fraction)``
        where ``decay`` / ``inflow`` are dense ``(rows, n_bins)``
        factors and the per-row constants stay ``(rows, 1)`` columns
        (they broadcast in the sub-step ufuncs).  All arrays are
        freshly allocated, so cached kernels never alias caller
        buffers.
        """
        cfg = self.config
        stressing = stressing.reshape(-1)
        capture = capture.reshape(-1)
        recovery = recovery.reshape(-1)
        m = stressing.shape[0]
        triples = np.empty((m, 3))
        triples[:, 0] = stressing
        triples[:, 1] = capture
        triples[:, 2] = recovery
        packed = np.ascontiguousarray(triples).view(
            np.dtype((np.void, triples.dtype.itemsize * 3))).ravel()
        _, first, inverse = np.unique(packed, return_index=True,
                                      return_inverse=True)
        record_counters("bti.fleet.kernels",
                        kernel_builds=1,
                        dedup_rows_in=m,
                        dedup_rows_unique=first.size)
        u_stress = stressing[first]
        u_capture = capture[first]
        u_recovery = recovery[first]
        shape = (first.size, cfg.n_bins)
        equivalent = np.where(u_stress, u_capture * step, 0.0)
        eq_unique = equivalent[:, None]
        fill = -np.expm1(-eq_unique / self.tau_c[None, :])
        tau_e = cfg.emission_scale * self.tau_c
        drain = np.ones(shape)
        resting = ~u_stress
        if np.any(resting):
            drain[resting] = np.exp(-step * u_recovery[resting, None]
                                    / tau_e[None, :])
        # occ' = (occ + (1 - occ) * fill) * drain, rearranged into the
        # two-pass affine form occ' = occ * decay + inflow: one extra
        # rounding per bin vs the four-pass seed loop (~1 ulp; the
        # seed equivalence tests bound the accumulated effect).
        decay = ((1.0 - fill) * drain)[inverse]
        inflow = (fill * drain)[inverse]
        eq_col = eq_unique[inverse]
        stress_col = u_stress[inverse][:, None].copy()
        fraction = None
        if cfg.lock_rate_per_s > 0.0:
            fraction = -np.expm1(
                -cfg.lock_rate_per_s * equivalent)[inverse][:, None]
        return (eq_col, stress_col, decay, inflow, fraction)
