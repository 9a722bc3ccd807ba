"""Stacked trap-population dynamics for one chip or a whole population.

:class:`repro.bti.traps.TrapPopulation` tracks the Table-I trap
dynamics of one device and stays the calibration reference.  System
and fleet studies need the same dynamics for every core of every chip,
so a :class:`StackedTrapPopulations` holds ``n_chips * n_units`` rows
of trap state in one structure-of-arrays block and advances them with
shared sub-step kernels, evaluated as full-stack ufunc passes.  The
fleet engine (:class:`~repro.system.fleet.FleetSimulator`) runs every
study on one such stack -- a one-chip stack for the
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

Trajectory classes keep that contract.  A multi-chip stack advances
one state row per *class* of rows whose whole input history -- stress
flag, capture and recovery bits, sub-step count, epoch by epoch -- is
identical; a row's state is a function of that history alone, because
every row op is elementwise, so all rows of a class hold bit-identical
state and advancing one of them advances them all.  Classes are keyed
on raw bytes, never on float comparisons, so ``-0.0`` and ``0.0``
inputs (or two NaN payloads) stay apart.  Without process variation a
fleet of thousands of chips has a handful of classes.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

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

#: A stack drops its trajectory-class map for good once it has more
#: classes than this fraction of its rows.  Past that point the map
#: saves little sub-step work and costs a key build and a state
#: gather on every split.  A varied fleet (the ``fleet_mixed`` bench
#: workload: 2304 rows with lognormal per-chip scales) splits into
#: 1041 classes on its first epoch and past 1152 on its second, then
#: runs per row; keeping its map instead took ``pass_s`` from 0.52 s
#: to 0.56 s (2-CPU x86-64 host, two runs each).  A fleet without
#: variation (``fleet_durable``: 10,350 rows a chunk) settles at 8.
_MAX_CLASS_FRACTION = 0.5

#: The stored trap state, in the order :meth:`state_arrays` returns it.
_STATE_NAMES = ("weights", "occupancy", "age_s", "permanent_v")

#: Bounds of the sub-step kernel memo: the bytes its kernels hold and
#: their count.  A kernel holds two dense ``(state rows, n_bins)``
#: float64 arrays plus three ``(state rows, 1)`` columns, about 1 KiB
#: per state row at 64 bins.  The count holds a 64-kernel schedule
#: cycle: a 256-core chip healing 8 cores at a time under a coprime
#: EM-reversal period cycles through 64 assignments, 16.3 MiB of
#: kernels.  The byte bound keeps that cycle and otherwise holds what
#: the former per-row sizing (16 entries) held on the varied
#: ``fleet_mixed`` bench fleet, whose per-row kernels never repeat:
#: about 18 MiB.
_KERNEL_MEMO_BYTES = 18 * 2 ** 20
_KERNEL_MEMO_ENTRIES = 64


def _kernel_nbytes(kernel) -> int:
    return sum(array.nbytes for array in kernel if array is not None)


class _KernelMemo(FactorizationCache):
    """The sub-step kernel LRU, bounded by bytes held and by count.

    Each kernel's size is the real ``nbytes`` of its arrays, counted
    when it is inserted.  Past either bound the least recently used
    kernels go; a kernel larger than the byte bound on its own is
    returned but not kept.
    """

    def __init__(self) -> None:
        super().__init__(maxsize=_KERNEL_MEMO_ENTRIES,
                         name="bti.fleet.kernels")
        self.nbytes = 0

    def _trim(self) -> None:
        self.nbytes += _kernel_nbytes(next(reversed(self._entries.values())))
        while (len(self._entries) > self.maxsize
               or self.nbytes > _KERNEL_MEMO_BYTES):
            _, evicted = self._entries.popitem(last=False)
            self.nbytes -= _kernel_nbytes(evicted)

    def clear(self) -> None:
        """Drop every kernel (counters are kept)."""
        super().clear()
        self.nbytes = 0


class StackedTrapPopulations:
    """Trap-population state for ``n_chips`` chips of ``n_units`` cores.

    The state is chip-major and flat: row ``k * n_units + u`` is core
    ``u`` of chip ``k``.  A multi-chip stack stores it compactly, one
    ``(n_classes, n_bins)`` row per trajectory class (see the module
    docstring), and expands it to rows only for a per-row read (its
    snapshot, :meth:`state_arrays`, stays compact); once more than
    half its rows are classes of their own it stores one state row
    per stack row for good.  A one-chip stack is per-row
    from the start.  Either way each sub-step group advances as
    in-place masked full-array passes, touching no Python per chip.

    Args:
        n_chips: population size.
        n_units: cores per chip.
        config: trap-population parameters (defaults to the 64-bin
            system configuration).

    Sub-step kernels are memoized only when :meth:`step` gets a
    ``kernel_key``, in a memo bounded by :data:`_KERNEL_MEMO_BYTES`
    and :data:`_KERNEL_MEMO_ENTRIES`.
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
        # Trajectory classes: stack row r holds state row _labels[r],
        # and _class_rows[c] is one stack row of class c.  A fresh
        # multi-chip stack is one class; ``None`` is the identity map.
        self._labels: Optional[np.ndarray] = None
        self._class_rows: Optional[np.ndarray] = None
        state_rows = rows
        if n_chips > 1:
            self._labels = np.zeros(rows, dtype=np.intp)
            self._class_rows = np.zeros(1, dtype=np.intp)
            state_rows = 1
        # Bumped whenever the state rows change meaning (a split, a
        # dropped map, a loaded state), so a memoized kernel is only
        # reused for the partition it was built for.
        self._generation = 0
        fresh_weight = cfg.vth_full_shift_v / cfg.n_bins
        shape = (state_rows, cfg.n_bins)
        self._weights = np.full(shape, fresh_weight)
        self._occupancy = np.zeros(shape)
        self._age_s = np.zeros(shape)
        self._permanent_v = np.zeros(state_rows)
        self.time_s = 0.0
        # Longest equivalent-stress sub-step (an eighth of the lock-in
        # age, so lock-in stays resolved); counts scale with the peak.
        self._lock_step_s = max(cfg.lock_age_s / 8.0, 1e-9)
        self.kernel_cache = _KernelMemo()
        # Sub-step scratch for one row block: three float buffers and
        # two masks.
        block = (min(rows, _SUBSTEP_BLOCK_ROWS), cfg.n_bins)
        self._scratch = (np.empty(block), np.empty(block),
                         np.empty(block),
                         np.empty(block, dtype=bool),
                         np.empty(block, dtype=bool))

    # -- state ----------------------------------------------------------

    def _rows(self, array: np.ndarray) -> np.ndarray:
        """One state array read per stack row, as a read-only array."""
        rows = (array.view() if self._labels is None
                else array[self._labels])
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
        """The advancing state as stored, as fresh arrays.

        Keys are ``weights``, ``occupancy``, ``age_s`` (each
        ``(n_state_rows, n_bins)``), ``permanent_v``
        (``(n_state_rows,)``), ``time_s`` (0-d float64) and ``labels``,
        the int64 ``(rows,)`` map from stack row to state row -- one
        state row per trajectory class, or ``arange(rows)`` for a
        per-row stack.  :meth:`load_state` takes the same mapping.
        """
        arrays = {name: getattr(self, "_" + name).copy()
                  for name in _STATE_NAMES}
        arrays["time_s"] = np.array(self.time_s, dtype=np.float64)
        arrays["labels"] = (
            np.arange(self.n_chips * self.n_units, dtype=np.int64)
            if self._labels is None else self._labels.astype(np.int64))
        return arrays

    def load_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Overwrite the state with a :meth:`state_arrays` mapping.

        The stack continues on the mapping's class map, so a restored
        stack keeps advancing one state row per class.  Two label
        layouts are accepted: the identity map (one state row per
        stack row) and, on a multi-chip stack, a class map in which
        every state row is some row's class and there are at most
        :data:`_MAX_CLASS_FRACTION` of the rows as classes -- the
        layouts :meth:`step` itself produces.  Every array is checked
        before anything is written, so a refused mapping raises
        :class:`~repro.errors.SimulationError` and leaves the stack as
        it was.
        """
        rows = self.n_chips * self.n_units
        for name in _STATE_NAMES + ("time_s", "labels"):
            if name not in arrays:
                raise SimulationError(f"state array {name!r} is missing")
        weights = arrays["weights"]
        n_state = weights.shape[0] if weights.ndim else 0
        dense = (n_state, self.config.n_bins)
        layouts = {"weights": (np.float64, dense),
                   "occupancy": (np.float64, dense),
                   "age_s": (np.float64, dense),
                   "permanent_v": (np.float64, (n_state,)),
                   "time_s": (np.float64, ()),
                   "labels": (np.int64, (rows,))}
        for name, (dtype, shape) in layouts.items():
            array = arrays[name]
            if array.shape != shape or array.dtype != dtype:
                raise SimulationError(
                    f"state array {name!r} has layout "
                    f"{array.dtype}{array.shape}, stack expects "
                    f"{np.dtype(dtype)}{shape}")
        labels = arrays["labels"]
        class_rows = None
        if n_state != rows or not np.array_equal(labels, np.arange(rows)):
            if self.n_chips == 1:
                raise SimulationError(
                    "a one-chip stack holds one state row per row; its "
                    "labels must be arange(rows)")
            if not 1 <= n_state <= _MAX_CLASS_FRACTION * rows:
                raise SimulationError(
                    f"a class map of {rows} rows holds 1 to "
                    f"{int(_MAX_CLASS_FRACTION * rows)} classes, not "
                    f"{n_state}")
            if labels.min() < 0 or labels.max() >= n_state:
                raise SimulationError(
                    f"labels must lie in [0, {n_state}), one per state "
                    "row")
            present, class_rows = np.unique(labels, return_index=True)
            if present.size != n_state:
                raise SimulationError(
                    f"labels name {present.size} of the {n_state} state "
                    "rows; every class needs a row")
        for name in _STATE_NAMES:
            setattr(self, "_" + name, np.array(arrays[name]))
        self.time_s = float(arrays["time_s"])
        if class_rows is None:
            self._labels = self._class_rows = None
        else:
            self._labels = labels.astype(np.intp)
            self._class_rows = class_rows
        self._generation += 1

    # -- observables ----------------------------------------------------

    def delta_vth_v(self) -> np.ndarray:
        """Total threshold shift, shaped ``(n_chips, n_units)``."""
        flat = np.einsum("ij,ij->i", self._occupancy, self._weights)
        flat += self._permanent_v
        if self._labels is not None:
            flat = flat[self._labels]
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
                given, the sub-step factors are memoized on it; when
                ``None`` they are rebuilt each call.
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
                slice(None), dt_s, count, stressing, capture, recovery,
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
        if not np.isfinite(raw).all():
            raise SimulationError(
                "sub-step count is not finite: check the capture "
                "acceleration of the stressing units")
        row_steps = np.repeat(
            np.clip(raw, 1, _MAX_SUBSTEPS).astype(np.int64), self.n_units)
        if self._labels is not None:
            self._split_classes(flat_stress, flat_capture, flat_recovery,
                                row_steps)
        # State row i advances on the inputs of stack row classes[i].
        classes = (slice(None) if self._class_rows is None
                   else self._class_rows)
        stress_rows = flat_stress[classes]
        capture_rows = flat_capture[classes]
        recovery_rows = flat_recovery[classes]
        steps = row_steps[classes]
        record_counters("bti.fleet.classes", steps=1,
                        rows=flat_stress.size, rows_advanced=steps.size)
        # State rows sharing a sub-step count advance together; with no
        # (or mild) process variation that is one group covering the
        # whole state, i.e. zero gather/scatter.
        for group, count in enumerate(np.unique(steps)):
            members = np.flatnonzero(steps == count)
            rows: object = (slice(None) if members.size == steps.size
                            else members)
            sub_key = (None if kernel_key is None
                       else (kernel_key, self._generation, int(count),
                             group))
            self._advance_rows(rows, dt_s, int(count), stress_rows,
                               capture_rows, recovery_rows, sub_key)
        self.time_s += dt_s

    def _split_classes(self, flat_stress: np.ndarray,
                       flat_capture: np.ndarray,
                       flat_recovery: np.ndarray,
                       row_steps: np.ndarray) -> None:
        """Refine the class map by this step's per-row inputs.

        Rows stay in one class only if they were in one class and
        their stress flag, capture and recovery bits and sub-step
        count all match, so classes only ever split.  A split gathers
        the state onto the new classes, or onto every row once the
        classes pass :data:`_MAX_CLASS_FRACTION` of the rows.
        """
        labels, class_rows = self._labels, self._class_rows
        columns = (flat_stress, flat_capture.view(np.uint64),
                   flat_recovery.view(np.uint64), row_steps)
        # The common case: every row matches its class's row.
        if all(np.array_equal(column, column[class_rows][labels])
               for column in columns):
            return
        key = np.empty((labels.size, 1 + len(columns)), dtype=np.uint64)
        key[:, 0] = labels
        for index, column in enumerate(columns, 1):
            key[:, index] = column
        packed = key.view(
            np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
        _, first, inverse = np.unique(packed, return_index=True,
                                      return_inverse=True)
        if first.size > _MAX_CLASS_FRACTION * labels.size:
            gather = labels
            self._labels = self._class_rows = None
        else:
            gather = labels[first]
            self._labels = inverse.reshape(-1)
            self._class_rows = first
        for name in _STATE_NAMES:
            setattr(self, "_" + name, getattr(self, "_" + name)[gather])
        self._generation += 1

    def _advance_rows(self, rows, dt_s: float, n_steps: int,
                      stress_rows: np.ndarray,
                      capture_rows: np.ndarray,
                      recovery_rows: np.ndarray, kernel_key) -> None:
        """Advance the state rows ``rows`` sharing a sub-step count.

        The input arrays hold one entry per state row (any shape that
        flattens to state-row order); ``rows`` selects the group.
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
        any_stress = bool(stress_rows.any())
        m = occupancy.shape[0]
        if kernel_key is not None:
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
            self._occupancy[rows] = occupancy
            self._age_s[rows] = age
            self._weights[rows] = weights
            self._permanent_v[rows] = permanent

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
