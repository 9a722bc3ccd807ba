"""Stacked trap-population dynamics for one chip or a whole population.

:class:`repro.bti.traps.TrapPopulation` tracks the Table-I trap
dynamics of one device and stays the calibration reference.  System
and fleet studies need the same dynamics for every core of every chip,
so a :class:`StackedTrapPopulations` holds ``n_chips * n_units`` rows
of trap state in one structure-of-arrays block and advances them in
cache-sized row blocks, each with the sub-step factors of its own
rows.  The fleet engine (:class:`~repro.system.fleet.FleetSimulator`)
runs every study on one such stack -- a one-chip stack for the
:class:`~repro.system.simulator.SystemSimulator` facade, an
``n_chips`` stack for a population.

Exactness contract: stacking chips never changes a chip's trajectory
relative to a one-chip stack.  Every per-row update below is
elementwise in the row (unit) dimension -- fills, drains, age
bookkeeping and lock-in all read and write only their own row.  The
only cross-row coupling is the *sub-step count*, derived from each
chip's peak capture acceleration; the stacked step computes that
count per chip and advances chips in groups sharing a count, so every
chip sees the op sequence of its one-chip stack bit for bit (the fleet
equivalence tests assert exactly this).

Chips that would hold bit-identical rows are not stacked twice: the
fleet engine stacks one chip per *chip class* (chips that share a
cohort and their variation scales bit for bit, see
:mod:`repro.system.fleet`), so a fleet without variation advances a
handful of chips whatever its size.  The stack itself is per row.

Sub-step cap: an epoch takes at most :data:`_MAX_SUBSTEPS` (64)
sub-steps, where :meth:`repro.bti.traps.TrapPopulation.stress`, the
calibration reference, takes up to 256, so the two part only where
the cap binds: long epochs.  Over ten cycles of 24 h stress and 24 h
recovery (recovery acceleration 1000x, 64-bin calibrated population)
the total shift of a one-unit stack ends 1.7e-4 (relative) from the
reference's at 1x capture acceleration and under 1e-9 at 3x and
above, where the traps saturate early; the permanent share alone
still differs by about 1.4e-4 there.  At 1 h epochs the cap never
binds and the two agree to rounding.  ``tests/test_system_aging.py``
pins these bounds.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.bti.traps import TrapPopulationConfig
from repro.errors import SimulationError
from repro.solvers import FactorizationCache
from repro.solvers.factorized import _budget_entries

#: Row-block height of the sub-step loop and of a sub-step kernel.
#: One block touches about ten ``(block, n_bins)`` arrays (state, its
#: kernel, scratch), so 256 rows x 64 bins keeps the working set
#: around 1 MiB -- small enough to survive in a per-core L2 across
#: every sub-step of the block, which is what turns the ~15
#: elementwise passes per sub-step from DRAM streams into cache hits.
_SUBSTEP_BLOCK_ROWS = 256

#: Sub-step cap per epoch for extreme accelerations (as in
#: :meth:`repro.bti.traps.TrapPopulation.stress`).
_MAX_SUBSTEPS = 64

#: The stored trap state, in the order :meth:`state_arrays` returns it.
_STATE_NAMES = ("weights", "occupancy", "age_s", "permanent_v")

#: Byte budget and entry cap of the sub-step kernel memo.  A kernel
#: covers one row block: two dense ``(block, n_bins)`` float64 factors
#: plus three ``(block, 1)`` columns (float64, bool, float64), so its
#: size is bounded before it is built and the budget fixes the entry
#: count.  The cap holds a 64-kernel schedule cycle: a 256-core chip
#: healing 8 cores at a time under a coprime EM-reversal period cycles
#: through 64 assignments, one full block each, 16.3 MiB at 64 bins;
#: wider bins get fewer entries.
_KERNEL_MEMO_BYTES = 18 * 2 ** 20
_KERNEL_MEMO_ENTRIES = 64


#: ``name -> (shape, dtype)`` of every array of a state mapping.
StateLayout = Dict[str, Tuple[Tuple[int, ...], np.dtype]]


def check_state(arrays: Mapping[str, np.ndarray],
                layout: StateLayout) -> None:
    """Raise :class:`~repro.errors.SimulationError`, naming the array,
    unless ``arrays`` holds every array of ``layout`` in exactly its
    shape and dtype: the one layout check of the fleet engine's
    ``load_state`` methods, run before they write anything."""
    for name, (shape, dtype) in layout.items():
        if name not in arrays:
            raise SimulationError(f"state is missing array {name!r}")
        array = np.asarray(arrays[name])
        if array.shape != shape or array.dtype != dtype:
            raise SimulationError(
                f"state array {name!r} has layout "
                f"{array.dtype}{array.shape}, expected {dtype}{shape}")


class StackedTrapPopulations:
    """Trap-population state for ``n_chips`` chips of ``n_units`` cores.

    The state is chip-major and flat: row ``k * n_units + u`` is core
    ``u`` of chip ``k``, one ``(n_bins,)`` state row per stack row.
    Each sub-step group advances in row blocks of
    :data:`_SUBSTEP_BLOCK_ROWS` as in-place masked passes, touching no
    Python per chip.

    Args:
        n_chips: population size.
        n_units: cores per chip.
        config: trap-population parameters (defaults to the 64-bin
            system configuration).

    Sub-step kernels are memoized only when :meth:`step` gets a
    ``kernel_key``, one entry per row block, in a memo of as many
    block kernels as :data:`_KERNEL_MEMO_BYTES` holds, at most
    :data:`_KERNEL_MEMO_ENTRIES`.
    """

    def __init__(self, n_chips: int, n_units: int,
                 config: Optional[TrapPopulationConfig] = None):
        if n_chips < 1:
            raise SimulationError("n_chips must be at least 1")
        if n_units < 1:
            raise SimulationError("n_units must be at least 1")
        self.n_chips = n_chips
        self.n_units = n_units
        self.config = config or TrapPopulationConfig(n_bins=64)
        cfg = self.config
        rows = n_chips * n_units
        self.tau_c = np.logspace(math.log10(cfg.tau_min_s),
                                 math.log10(cfg.tau_max_s), cfg.n_bins)
        fresh_weight = cfg.vth_full_shift_v / cfg.n_bins
        shape = (rows, cfg.n_bins)
        self._weights = np.full(shape, fresh_weight)
        self._occupancy = np.zeros(shape)
        self._age_s = np.zeros(shape)
        self._permanent_v = np.zeros(rows)
        self.time_s = 0.0
        # Longest equivalent-stress sub-step (an eighth of the lock-in
        # age, so lock-in stays resolved); counts scale with the peak.
        self._lock_step_s = max(cfg.lock_age_s / 8.0, 1e-9)
        block = (min(rows, _SUBSTEP_BLOCK_ROWS), cfg.n_bins)
        # A block kernel's bytes: two dense factors plus three columns.
        self.kernel_cache = FactorizationCache(
            maxsize=_budget_entries(_KERNEL_MEMO_BYTES,
                                    block[0] * (16 * cfg.n_bins + 17),
                                    cap=_KERNEL_MEMO_ENTRIES),
            name="bti.fleet.kernels")
        # Sub-step scratch for one row block: three float buffers and
        # two masks.
        self._scratch = (np.empty(block), np.empty(block),
                         np.empty(block),
                         np.empty(block, dtype=bool),
                         np.empty(block, dtype=bool))

    # -- state ----------------------------------------------------------

    @staticmethod
    def _rows(array: np.ndarray) -> np.ndarray:
        """A read-only view of one state array."""
        rows = array.view()
        rows.flags.writeable = False
        return rows

    @property
    def weights(self) -> np.ndarray:
        """Per-bin trap weights (V), ``(rows, n_bins)``, read-only."""
        return self._rows(self._weights)

    @property
    def occupancy(self) -> np.ndarray:
        """Per-bin trap occupancy, ``(rows, n_bins)``, read-only."""
        return self._rows(self._occupancy)

    @property
    def age_s(self) -> np.ndarray:
        """Per-bin equivalent stress age (s), ``(rows, n_bins)``,
        read-only."""
        return self._rows(self._age_s)

    @property
    def permanent_v(self) -> np.ndarray:
        """Locked-in shift per row (V), ``(rows,)``, read-only."""
        return self._rows(self._permanent_v)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The advancing state, as fresh arrays.

        Keys are ``weights``, ``occupancy``, ``age_s`` (each
        ``(rows, n_bins)``), ``permanent_v`` (``(rows,)``) and
        ``time_s`` (0-d float64).  :meth:`load_state` takes the same
        mapping.
        """
        arrays = {name: getattr(self, "_" + name).copy()
                  for name in _STATE_NAMES}
        arrays["time_s"] = np.array(self.time_s, dtype=np.float64)
        return arrays

    def state_layout(self) -> StateLayout:
        """``(shape, dtype)`` of every :meth:`state_arrays` entry."""
        dense = (self.n_chips * self.n_units, self.config.n_bins)
        f64 = np.dtype(np.float64)
        return {"weights": (dense, f64), "occupancy": (dense, f64),
                "age_s": (dense, f64), "permanent_v": (dense[:1], f64),
                "time_s": ((), f64)}

    def load_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Overwrite the state with a :meth:`state_arrays` mapping.

        Every array is checked (:func:`check_state`) before anything
        is written, so a refused mapping raises
        :class:`~repro.errors.SimulationError` and leaves the stack as
        it was.
        """
        check_state(arrays, self.state_layout())
        for name in _STATE_NAMES:
            setattr(self, "_" + name, np.array(arrays[name]))
        self.time_s = float(arrays["time_s"])

    # -- observables ----------------------------------------------------

    def delta_vth_v(self) -> np.ndarray:
        """Total threshold shift, shaped ``(n_chips, n_units)``."""
        flat = np.einsum("ij,ij->i", self._occupancy, self._weights)
        flat += self._permanent_v
        return flat.reshape(self.n_chips, self.n_units)

    def permanent_vth_v(self) -> np.ndarray:
        """Permanent shift, shaped ``(n_chips, n_units)``, read-only."""
        return self.permanent_v.reshape(self.n_chips, self.n_units)

    # -- advance --------------------------------------------------------

    def step(self, dt_s: float, stressing: np.ndarray,
             capture_acceleration: np.ndarray,
             recovery_acceleration: np.ndarray,
             kernel_key=None) -> None:
        """Advance every chip by ``dt_s``.

        Args:
            dt_s: epoch length (finite, non-negative).
            stressing: boolean ``(n_chips, n_units)`` stress mask.
            capture_acceleration: ``(n_chips, n_units)`` capture-rate
                multipliers for the stressing units; a stressing
                unit's multiplier must give a finite sub-step count.
            recovery_acceleration: ``(n_chips, n_units)`` de-trapping
                multipliers for the recovering units.
            kernel_key: optional hashable token uniquely identifying
                the epoch's ``(dt_s, stressing, capture, recovery)``
                content (e.g. the fleet's assignment digest).  When
                given, each row block's sub-step factors are memoized
                on it; when ``None`` they are rebuilt each call.
        """
        if not math.isfinite(dt_s) or dt_s < 0.0:
            raise SimulationError("dt_s must be finite and non-negative")
        shape = (self.n_chips, self.n_units)
        stressing = np.asarray(stressing, dtype=bool)
        capture = np.asarray(capture_acceleration, dtype=float)
        recovery = np.asarray(recovery_acceleration, dtype=float)
        for array in (stressing, capture, recovery):
            if array.shape != shape:
                raise SimulationError(
                    f"per-unit arrays must have shape {shape}")
        flat_stress = stressing.reshape(-1)
        flat_capture = capture.reshape(-1)
        flat_recovery = recovery.reshape(-1)
        if self.n_chips == 1:
            # One chip is one group: scalar math on its peak capture
            # (the same floats and ceil as the per-chip path below).
            any_stress = bool(stressing.any())
            peak = float(capture.max(initial=-np.inf, where=stressing)) \
                if any_stress else 1.0
            raw = dt_s * max(peak, 1e-12) / self._lock_step_s
            if not math.isfinite(raw):
                raise SimulationError(
                    "sub-step count is not finite: check the capture "
                    "acceleration of the stressing units")
            count = min(max(math.ceil(raw), 1), _MAX_SUBSTEPS)
            self._advance_rows(
                slice(None), dt_s, count, flat_stress, flat_capture,
                flat_recovery,
                None if kernel_key is None else (kernel_key, count, 0))
            self.time_s += dt_s
            return
        # Per-chip sub-step count, in the operation order of the scalar
        # derivation above.
        any_stress = stressing.any(axis=1)
        peak = np.where(any_stress, np.max(capture, axis=1,
                                           initial=-np.inf,
                                           where=stressing), 1.0)
        raw = np.ceil(dt_s * np.maximum(peak, 1e-12) / self._lock_step_s)
        if not np.isfinite(raw).all():
            raise SimulationError(
                "sub-step count is not finite: check the capture "
                "acceleration of the stressing units")
        steps = np.repeat(
            np.clip(raw, 1, _MAX_SUBSTEPS).astype(np.int64), self.n_units)
        # Rows sharing a sub-step count advance together; with no (or
        # mild) process variation that is one group covering the whole
        # stack, i.e. zero gather/scatter.
        for group, count in enumerate(np.unique(steps)):
            members = np.flatnonzero(steps == count)
            rows: object = (slice(None) if members.size == steps.size
                            else members)
            sub_key = (None if kernel_key is None
                       else (kernel_key, int(count), group))
            self._advance_rows(rows, dt_s, int(count), flat_stress,
                               flat_capture, flat_recovery, sub_key)
        self.time_s += dt_s

    def _advance_rows(self, rows, dt_s: float, n_steps: int,
                      stress_rows: np.ndarray,
                      capture_rows: np.ndarray,
                      recovery_rows: np.ndarray, kernel_key) -> None:
        """Advance the rows ``rows`` sharing a sub-step count.

        The flat input arrays hold one entry per stack row; ``rows``
        selects the group.  The group advances one row block at a
        time, so a block's state and factors stay cache-resident
        across all ``n_steps`` passes, and each block's factors are
        built from its own rows just before it advances (memoized on
        ``kernel_key`` plus the block's first row).  Every op is
        elementwise per row, so block order and height change
        nothing: each row sees the exact op sequence of a one-chip
        stack, bit for bit.
        """
        step = dt_s / n_steps
        full = isinstance(rows, slice)
        if full:
            occupancy = self._occupancy
            age = self._age_s
            weights = self._weights
            permanent = self._permanent_v
        else:
            occupancy = self._occupancy[rows]
            age = self._age_s[rows]
            weights = self._weights[rows]
            permanent = self._permanent_v[rows]
            stress_rows = stress_rows[rows]
            capture_rows = capture_rows[rows]
            recovery_rows = recovery_rows[rows]
        for start in range(0, occupancy.shape[0], _SUBSTEP_BLOCK_ROWS):
            block = slice(start, start + _SUBSTEP_BLOCK_ROWS)
            build = partial(self._build_step_kernel, step,
                            stress_rows[block], capture_rows[block],
                            recovery_rows[block])
            kernel = (build() if kernel_key is None
                      else self.kernel_cache.get_or_build(
                          kernel_key + (start,), build))
            self._advance_block(occupancy[block], age[block],
                                weights[block], permanent[block],
                                *kernel, n_steps)
        if not full:
            self._occupancy[rows] = occupancy
            self._age_s[rows] = age
            self._weights[rows] = weights
            self._permanent_v[rows] = permanent

    def _advance_block(self, occupancy, age, weights, permanent,
                       eq_col, stress_col, decay, inflow, fraction,
                       n_steps: int) -> None:
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
        if m < scratch[0].shape[0]:
            scratch = [buffer[:m] for buffer in scratch]
        buf_a, buf_b, buf_c, mask, positive = scratch
        for _ in range(n_steps):
            np.multiply(occupancy, decay, out=occupancy)
            np.add(occupancy, inflow, out=occupancy)
            np.greater_equal(occupancy, cfg.age_on_occupancy, out=mask)
            np.add(age, eq_col, out=age, where=mask)
            np.less_equal(occupancy, cfg.age_off_occupancy, out=mask)
            np.copyto(age, 0.0, where=mask)
            if fraction is not None:
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
        """Sub-step-invariant factors for one row block.

        The factors depend only on the block's flat inputs, never on
        the trap state, and every factor is elementwise per row -- a
        row's values are the same whether its chip is stacked or
        alone, and ``-0.0`` and ``0.0`` rows each get their own.

        Returns ``(eq_col, stress_col, decay, inflow, fraction)``
        where ``decay`` / ``inflow`` are dense ``(rows, n_bins)``
        factors and the per-row constants stay ``(rows, 1)`` columns
        (they broadcast in the sub-step ufuncs).  ``fraction`` is
        ``None`` when no charge can lock in: no lock-in rate, or no
        stressing row in the block.  All arrays are freshly allocated,
        so cached kernels never alias caller buffers.
        """
        cfg = self.config
        equivalent = np.where(stressing, capture * step, 0.0)
        eq_col = equivalent[:, None]
        fill = -np.expm1(-eq_col / self.tau_c[None, :])
        tau_e = cfg.emission_scale * self.tau_c
        drain = np.ones((stressing.shape[0], cfg.n_bins))
        resting = ~stressing
        if np.any(resting):
            drain[resting] = np.exp(-step * recovery[resting, None]
                                    / tau_e[None, :])
        # occ' = (occ + (1 - occ) * fill) * drain, rearranged into the
        # two-pass affine form occ' = occ * decay + inflow: one extra
        # rounding per bin vs the four-pass seed loop (~1 ulp; the
        # seed equivalence tests bound the accumulated effect).
        decay = (1.0 - fill) * drain
        inflow = fill * drain
        stress_col = stressing[:, None].copy()
        fraction = None
        if cfg.lock_rate_per_s > 0.0 and stressing.any():
            fraction = -np.expm1(
                -cfg.lock_rate_per_s * equivalent)[:, None]
        return (eq_col, stress_col, decay, inflow, fraction)
