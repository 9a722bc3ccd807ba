"""Batched-grid MNA engine: every parameter-grid point in one sweep.

A design-space study (the Fig. 10 load grid, the Fig. 9 mode-switch
matrix, a fleet of aged ring oscillators) runs the *same* netlist
topology at many parameter points.  The compiled engine
(:mod:`repro.circuit.compiled`) already turned one simulation into
flat scatter kernels plus cached LU factors, but a sweep still pays
the full Python driver -- Newton loop, device stamping, factor and
back-substitute dispatch -- once per grid point.  :class:`CircuitBatch`
stacks the whole grid along a leading batch axis instead:

* device parameters become ``(n_rows, n_devices)`` tables evaluated
  through one :meth:`MosfetBank.evaluate <repro.circuit.mosfet.
  MosfetBank.evaluate>` ufunc pass per Newton iteration, whatever the
  batch width;
* per-row Jacobians are assembled from per-row base matrices with the
  template's scatter indices (the topology is shared, so the index
  arrays are too) into one ``(active_rows, n, n)`` tensor and solved
  by a single stacked LAPACK ``gesv`` call per Newton iteration --
  the same ``getrf``/``getrs`` arithmetic the per-point engine runs,
  so an uncondensed batch row reproduces its solo run bit for bit;
* Newton damping and convergence run under **per-row masks**: each
  row damps against its own ``max |delta|``, freezes the moment it
  converges, and a slow row only costs extra iterations for itself --
  it never stalls or perturbs the rest of the batch.

On top of the stacked solve the batch applies **source condensation**:
a grounded voltage source whose positive node feeds only MOSFET gates
(the assist circuit's ``vg_*`` gate rails) pins that node voltage and
branch current in closed form, so the pair of unknowns drops out of
the Newton solve and the gate couplings move to the right-hand side.
The assist cell condenses from 28 unknowns to 8 this way -- a ~40x
cut in factorization flops per iteration.  Condensed solves are no
longer bit-identical to the per-point engine (the reduced elimination
order differs) but stay within LAPACK roundoff of it; measured over
the Fig. 10 grid the end-to-end waveform difference is ~1e-13, and
``condense=False`` forces the bitwise full-matrix path.  Circuits
with no such nodes (the ring oscillator) condense nothing and keep
exact bit parity automatically.

Rows may carry **per-row time steps** (``dt_s`` / ``stop_s`` arrays)
as long as every row lands on the same step count -- exactly the
shape of a ring-oscillator fleet, where the simulation window scales
with each member's aged period estimate but the window is always the
same number of points.

Element values (resistances, capacitances, device parameters) are
snapshotted at construction; source values are read at run time, so
mode changes between runs flow through while topology edits require
a new batch.  Heterogeneous batches (different node counts, element
lists or device terminals) are rejected with ``ValueError`` at
construction; such populations run point by point on the scalar
solvers (:func:`repro.circuit.dc.dc_operating_point`,
:func:`repro.circuit.transient.transient`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.compiled import (
    CompiledCircuit,
    MAX_ITERATIONS,
    MAX_UPDATE_V,
    VOLTAGE_TOL,
    _stamp_conductance,
    evaluate_waveform_grid,
)
from repro.circuit.dc import DcSolution
from repro.circuit.netlist import Circuit
from repro.circuit.mosfet import MosfetBank
from repro.circuit.transient import (
    TransientResult,
    Waveform,
    _apply_grid_values,
)
from repro.errors import ConvergenceError, NetlistError
from repro.solvers import FactorizationCache

__all__ = ["CircuitBatch", "dc_batch", "transient_batch"]


def _topology_layout(circuit: Circuit):
    """The index-level shape a batch row must share with the template."""
    return (
        circuit.n_nodes,
        tuple((r.a, r.b) for r in circuit.resistors),
        tuple((s.pos, s.neg, s.branch) for s in circuit.voltage_sources),
        tuple((s.a, s.b) for s in circuit.current_sources),
        tuple((c.a, c.b) for c in circuit.capacitors),
    )


def _as_rows(value, n_rows: int, name: str) -> np.ndarray:
    """Broadcast a scalar or per-row sequence to a float ``(n_rows,)``."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n_rows, float(arr))
    if arr.shape != (n_rows,):
        raise ValueError(
            f"{name} must be a scalar or one value per batch row")
    return arr.copy()


def _dangling_source_pairs(circuit: Circuit) -> List[Tuple[int, int]]:
    """Unknown pairs a batch can condense out of the Newton solve.

    A grounded voltage source whose positive node touches nothing but
    MOSFET gates has an MNA node row holding only the ``+1`` branch
    coupling (gates draw no current) and a branch row holding only the
    ``+1`` node coupling.  Both unknowns are closed-form -- the node
    voltage is the source value, the branch current is the node's
    injected current -- and the gate-column stamps of other rows can
    move to the right-hand side.  Returns ``(node, branch column)``
    pairs; an empty list means the circuit condenses nothing.
    """
    n_nodes = circuit.n_nodes
    touched = set()
    for resistor in circuit.resistors:
        touched.update((resistor.a, resistor.b))
    for capacitor in circuit.capacitors:
        touched.update((capacitor.a, capacitor.b))
    for mosfet in circuit.mosfets:
        # Gate references appear only as matrix columns and move to
        # the RHS; drain/source terminals stamp whole rows and pin the
        # node in the solve.
        touched.update((mosfet.drain, mosfet.source))
    uses = {}
    for source in circuit.voltage_sources:
        uses[source.pos] = uses.get(source.pos, 0) + 1
        uses[source.neg] = uses.get(source.neg, 0) + 1
    pairs = []
    for source in circuit.voltage_sources:
        node = source.pos
        if node < 0 or source.neg >= 0:
            continue
        if node in touched or uses.get(node, 0) > 1:
            continue
        pairs.append((node, n_nodes + source.branch))
    return pairs


class CircuitBatch:
    """A stack of same-topology netlists advanced as one tensor.

    Construction flattens the shared topology once (borrowing the
    scatter indices of a :class:`~repro.circuit.compiled.
    CompiledCircuit` template), stacks the per-row linear base
    matrices, capacitor values and device parameters, and -- unless
    ``condense=False`` -- eliminates dangling-source unknowns from
    the stacked solve.  The per-analysis drivers are
    :func:`dc_batch` and :func:`transient_batch`.

    Raises:
        ValueError: when the circuits do not share one topology
            (different nodes, element lists, device terminals or
            polarities) -- heterogeneous populations run point by
            point through :func:`~repro.circuit.dc.dc_operating_point`
            and :func:`~repro.circuit.transient.transient`.
    """

    def __init__(self, circuits: Sequence[Circuit],
                 condense: bool = True):
        circuits = list(circuits)
        if not circuits:
            raise ValueError("CircuitBatch needs at least one circuit")
        self.circuits = circuits
        self.n_rows = len(circuits)
        template = CompiledCircuit(circuits[0])
        self.template = template
        self.n = template.n
        self.n_nodes = template.n_nodes
        self.pad = template.pad
        self.n_mosfets = template.n_mosfets
        self.n_capacitors = template.n_capacitors

        layout = _topology_layout(circuits[0])
        for other in circuits[1:]:
            if _topology_layout(other) != layout:
                raise ValueError(
                    f"circuit {other.title!r} does not share the batch "
                    "topology; run heterogeneous populations point by "
                    "point through dc_operating_point / transient")

        if self.n_mosfets:
            try:
                self.bank = MosfetBank.stacked(
                    [c.mosfets for c in circuits], self.pad)
            except NetlistError as exc:
                raise ValueError(str(exc)) from exc
            self.mos_idx = template.mos_idx
            self.mos_take = template.mos_take
            self.res_idx = template.res_idx
            self.res_take = template.res_take
        else:
            self.bank = None

        # Per-row linear base matrices, assembled in the seed cell
        # order (the template's loop, once per row).
        size = self.n
        base = np.zeros((self.n_rows, size, size))
        for row, circuit in enumerate(circuits):
            matrix = base[row]
            for resistor in circuit.resistors:
                _stamp_conductance(matrix, resistor.a, resistor.b,
                                   resistor.conductance)
            for source in circuit.voltage_sources:
                branch_row = self.n_nodes + source.branch
                if source.pos >= 0:
                    matrix[source.pos, branch_row] += 1.0
                    matrix[branch_row, source.pos] += 1.0
                if source.neg >= 0:
                    matrix[source.neg, branch_row] -= 1.0
                    matrix[branch_row, source.neg] -= 1.0
        self.base_matrices = base

        if self.n_capacitors:
            self.cap_farads = np.array(
                [[c.farads for c in circuit.capacitors]
                 for circuit in circuits])
            self.cap_mat_idx = template.cap_mat_idx
            self.cap_mat_sign = template.cap_mat_sign
            self.cap_mat_capi = template.cap_mat_capi
            self.cap_rhs_idx = template.cap_rhs_idx
            self.cap_rhs_sign = template.cap_rhs_sign
            self.cap_rhs_capi = template.cap_rhs_capi
            self.cap_a = template.cap_a
            self.cap_b = template.cap_b

        self._x_pad = np.zeros((self.n_rows, size + 1))
        # Telemetry carrier: the batched engine does not key LU
        # factors (grid workloads re-stamp every iteration, so a keyed
        # cache would only miss), but the stacked-solve counters ride
        # the same registry the sweep reports read.
        self._telemetry = FactorizationCache(
            maxsize=4, name="circuit.lu.batched")
        self._build_condensation(condense)

    def _build_condensation(self, condense: bool) -> None:
        """Precompute the reduced-system index maps (or identity)."""
        size = self.n
        pairs = _dangling_source_pairs(self.circuits[0]) if condense \
            else []
        self.condensed = bool(pairs)
        if self.condensed:
            self.elim_nodes = np.array([p for p, _ in pairs],
                                       dtype=np.intp)
            self.elim_branches = np.array([b for _, b in pairs],
                                          dtype=np.intp)
            keep_mask = np.ones(size, dtype=bool)
            keep_mask[self.elim_nodes] = False
            keep_mask[self.elim_branches] = False
            self.keep = np.flatnonzero(keep_mask)
        else:
            self.elim_nodes = np.empty(0, dtype=np.intp)
            self.elim_branches = np.empty(0, dtype=np.intp)
            self.keep = np.arange(size, dtype=np.intp)
        keep = self.keep
        n_red = keep.size
        self.n_red = n_red
        full_to_red = np.full(size, -1, dtype=np.intp)
        full_to_red[keep] = np.arange(n_red, dtype=np.intp)
        elim_pos = np.full(size, -1, dtype=np.intp)
        elim_pos[self.elim_nodes] = np.arange(self.elim_nodes.size,
                                              dtype=np.intp)

        if self.condensed:
            self.base_red = self.base_matrices[:, keep[:, None],
                                               keep[None, :]]
        else:
            self.base_red = self.base_matrices

        kept_nodes = keep[keep < self.n_nodes]
        self.diag_red = full_to_red[kept_nodes] * (n_red + 1)

        n_rows = self.n_rows

        def flat_rows(idx: np.ndarray, stride: int) -> np.ndarray:
            # Row-major 1-D scatter indices: the first ``k * idx.size``
            # serve any compacted k-row subset, in the accumulation
            # order of the per-row scatters.
            return (np.arange(n_rows)[:, None] * stride + idx).reshape(-1)

        if self.n_mosfets:
            rows_full = self.mos_idx // size
            cols_full = self.mos_idx % size
            kept_slot = full_to_red[cols_full] >= 0
            self.mos_idx_red = (full_to_red[rows_full[kept_slot]] * n_red
                                + full_to_red[cols_full[kept_slot]])
            self.mos_take_red = self.mos_take[kept_slot]
            moved = ~kept_slot
            self.mos_mv_row = full_to_red[rows_full[moved]]
            self.mos_mv_take = self.mos_take[moved]
            self.mos_mv_col = elim_pos[cols_full[moved]]
            self.res_idx_red = full_to_red[self.res_idx]
            self._mos_flat = flat_rows(self.mos_idx_red, n_red * n_red)
            self._res_flat = flat_rows(self.res_idx_red, n_red)
            # Signed stamp gathers: slot j of a device reads its g_drain
            # (slots 0-3) or g_gate (4-7) from concatenate((g_drain,
            # g_gate)), signed (+, -, -, +); ``x * -1.0`` has the bits
            # of ``-x``.  The companion current is (-res, +res).  The
            # bitwise path gathers only the slots it scatters.
            m = self.n_mosfets
            slot = np.arange(8 * m)
            src = slot // 8 + m * (slot % 8 // 4)
            sign = np.tile([1.0, -1.0, -1.0, 1.0], 2 * m)
            res_src = np.arange(2 * m) // 2
            res_sign = np.tile([-1.0, 1.0], m)
            if not self.condensed:
                src, sign = src[self.mos_take_red], sign[self.mos_take_red]
                res_src = res_src[self.res_take]
                res_sign = res_sign[self.res_take]
            self._stamp_gather = (src, sign, res_src, res_sign)
        else:
            self.mos_mv_take = np.empty(0, dtype=np.intp)
        if self.n_capacitors:
            rows_full = self.cap_mat_idx // size
            cols_full = self.cap_mat_idx % size
            self._cap_mat_flat = flat_rows(
                full_to_red[rows_full] * n_red + full_to_red[cols_full],
                n_red * n_red)
            self._cap_rhs_flat = flat_rows(full_to_red[self.cap_rhs_idx],
                                           n_red)

        if self.condensed:
            # The condensed path is free to re-order accumulations, so
            # scatter indices become small 0/1 matrices and the
            # per-iteration stamping turns into GEMMs over the whole
            # batch -- no per-element ``np.add.at`` dispatch.
            self._base_for = None
            if self.n_mosfets:
                gem = np.zeros((8 * self.n_mosfets, n_red * n_red))
                gem[self.mos_take_red, self.mos_idx_red] = 1.0
                self._mos_gemm = gem
                res_gem = np.zeros((2 * self.n_mosfets, n_red))
                np.add.at(res_gem, (self.res_take, self.res_idx_red),
                          1.0)
                self._res_gemm = res_gem
                mv_gem = np.zeros((self.mos_mv_take.size, n_red))
                np.add.at(mv_gem,
                          (np.arange(self.mos_mv_take.size),
                           self.mos_mv_row), 1.0)
                self._mv_gemm = mv_gem
            self._gem_buf = np.empty((n_rows, n_red * n_red))

    # -- stacked assembly ----------------------------------------------

    def static_rhs_rows(self) -> np.ndarray:
        """Per-row RHS from current source values (seed cell order)."""
        rhs = np.zeros((self.n_rows, self.n))
        n_nodes = self.n_nodes
        for row, circuit in enumerate(self.circuits):
            out = rhs[row]
            for source in circuit.voltage_sources:
                out[n_nodes + source.branch] += source.volts
            for source in circuit.current_sources:
                if source.a >= 0:
                    out[source.a] -= source.amps
                if source.b >= 0:
                    out[source.b] += source.amps
        return rhs

    def rhs_grid_rows(self, grids_rows: Sequence[Dict[str, np.ndarray]],
                      n_steps: int) -> np.ndarray:
        """Per-row, per-step source RHS grid ``(rows, steps+1, n)``."""
        grid = np.zeros((self.n_rows, n_steps + 1, self.n))
        n_nodes = self.n_nodes
        for row, circuit in enumerate(self.circuits):
            out = grid[row]
            value_grids = grids_rows[row]
            for source in circuit.voltage_sources:
                values = value_grids.get(source.name, source.volts)
                out[:, n_nodes + source.branch] += values
            for source in circuit.current_sources:
                values = value_grids.get(source.name, source.amps)
                if source.a >= 0:
                    out[:, source.a] -= values
                if source.b >= 0:
                    out[:, source.b] += values
        return grid

    def cap_conductance_rows(self, dt_rows: np.ndarray
                             ) -> Optional[np.ndarray]:
        """Per-row companion-conductance stamps for per-row ``dt``."""
        if not self.n_capacitors:
            return None
        g = self.cap_farads / dt_rows[:, None]
        return self.cap_mat_sign * g[:, self.cap_mat_capi]

    def cap_voltage_rows(self, x: np.ndarray) -> np.ndarray:
        """Per-row capacitor voltages ``v(a) - v(b)``."""
        x_pad = self._x_pad
        x_pad[:, :self.n] = x
        return x_pad[:, self.cap_a] - x_pad[:, self.cap_b]

    def _vector_stamps_rows(self, x: np.ndarray):
        """Stacked device stamps: one ufunc pass over every row.

        Same device-major value order as the per-point
        :meth:`CompiledCircuit._scalar_stamps`, with a leading row
        axis (the bitwise path keeps only the slots it scatters); each
        row carries the per-point bytes exactly.
        """
        x_pad = self._x_pad
        x_pad[:, :self.n] = x
        g_drain, g_gate, residual = self.bank.evaluate(x_pad)
        src, sign, res_src, res_sign = self._stamp_gather
        conductances = np.concatenate((g_drain, g_gate), axis=1)
        return (conductances.take(src, axis=1) * sign,
                residual.take(res_src, axis=1) * res_sign)

    def _solve_rows_fallback(self, mats: np.ndarray, rhs: np.ndarray,
                             rows: np.ndarray, dc_mode: bool,
                             failed: np.ndarray, active: np.ndarray):
        """Per-row solves when the stacked call reports a singularity.

        LAPACK flags the whole stack when any row is singular, so
        isolate the bad rows one solve at a time: the per-row solves
        are bit-identical to the stacked ones, a singular transient
        row raises exactly like its solo run, and a singular DC row
        just drops out so the caller's gmin ladder can take over.
        """
        sols = np.empty_like(rhs)
        good: List[int] = []
        for i, row in enumerate(rows):
            try:
                sols[i] = np.linalg.solve(mats[i], rhs[i])
            except np.linalg.LinAlgError as exc:
                if not dc_mode:
                    raise ConvergenceError(
                        "transient step of "
                        f"{self.circuits[int(row)].title!r} is singular"
                    ) from exc
                failed[row] = True
                active[row] = False
                continue
            good.append(i)
        index = np.array(good, dtype=np.intp)
        return sols[index], rows[index]

    # -- masked Newton over the whole batch ----------------------------

    def _newton_batch(self, x: np.ndarray, rhs_rows: np.ndarray,
                      cap_currents: Optional[np.ndarray], gmin: float,
                      cap_g_rows: Optional[np.ndarray], dc_mode: bool,
                      active: Optional[np.ndarray] = None):
        """Damped Newton on every active row at a fixed gmin.

        Mutates the active rows of ``x`` in place and returns
        ``(converged, failed, iterations)`` masks/counts per row.  The
        per-row control flow is the per-point engine's verbatim: the
        same damping clamp against each row's own ``max |delta|``, the
        same tolerance, NaN handling and (in ``dc_mode``) the
        non-finite bailout; a converged row freezes while the rest
        keep iterating.  Each iteration assembles the active rows'
        Jacobians as one tensor (reduced by source condensation when
        available) and solves them in a single stacked LAPACK call;
        while every row is active and solved, the bookkeeping runs on
        whole arrays instead of per-row index lists.  In transient mode a singular row raises
        :class:`~repro.errors.ConvergenceError` exactly as its solo
        run would; in DC mode it just marks the row failed so the
        caller's gmin ladder can take over.
        """
        n_rows = self.n_rows
        n_nodes = self.n_nodes
        keep = self.keep
        if active is None:
            active = np.ones(n_rows, dtype=bool)
        else:
            active = active.copy()
        converged = np.zeros(n_rows, dtype=bool)
        failed = np.zeros(n_rows, dtype=bool)
        iterations = np.zeros(n_rows, dtype=np.intp)
        has_devices = bool(self.n_mosfets)
        target = np.empty_like(x)
        if self.condensed:
            # The condensed unknowns are closed-form and fixed for the
            # whole Newton run: node voltage = source value (RHS of
            # the branch row), branch current = the node row's
            # injected current less its gmin leak.
            v_elim = rhs_rows[:, self.elim_branches]
            if gmin > 0.0:
                i_elim = rhs_rows[:, self.elim_nodes] - gmin * v_elim
            else:
                i_elim = rhs_rows[:, self.elim_nodes]
            target[:, self.elim_branches] = i_elim
            target[:, self.elim_nodes] = v_elim
        else:
            v_elim = None
        telemetry = self._telemetry
        condensed = self.condensed
        if condensed:
            # Per-call constants of the reduced system: gmin and the
            # capacitor companions fold into the base matrix (kept
            # across transient steps while ``cap_g_rows`` is the same
            # array), the cap history currents into the RHS, and the
            # condensed gate voltages are gathered once per slot.
            # (The reduced elimination already reorders accumulation,
            # so folding is free; the bitwise path below keeps the
            # per-point order instead.)
            cached = self._base_for
            if cached is None or cached[0] != gmin \
                    or cached[1] is not cap_g_rows:
                base_flat = self.base_red.reshape(n_rows, -1).copy()
                if gmin > 0.0:
                    base_flat[:, self.diag_red] += gmin
                if cap_g_rows is not None:
                    np.add.at(base_flat.reshape(-1), self._cap_mat_flat,
                              cap_g_rows.reshape(-1))
                self._base_for = cached = (gmin, cap_g_rows, base_flat)
            base_flat = cached[2]
            rhs_call = rhs_rows.take(keep, axis=1)
            if cap_currents is not None:
                np.add.at(rhs_call.reshape(-1), self._cap_rhs_flat,
                          cap_currents.reshape(-1))
            if has_devices and self.mos_mv_take.size:
                v_mv = v_elim[:, self.mos_mv_col]
            else:
                v_mv = None
        shape = (-1, self.n_red, self.n_red)
        for iteration in range(1, MAX_ITERATIONS + 1):
            rows = active.nonzero()[0]
            k = rows.size
            if k == 0:
                break
            whole = k == n_rows
            iterations[rows] = iteration
            if has_devices:
                vals, res = self._vector_stamps_rows(x)
            if condensed:
                # Whole-batch assembly; device stamps land through
                # GEMMs against 0/1 scatter matrices.
                mats = base_flat
                rhs = rhs_call
                if has_devices:
                    mats = np.matmul(vals, self._mos_gemm,
                                     out=self._gem_buf)
                    np.add(mats, base_flat, out=mats)
                    rhs = rhs_call + res @ self._res_gemm
                    if v_mv is not None:
                        # Gate-column stamps of condensed nodes: the
                        # voltage is known, so the coupling moves to
                        # the RHS.
                        rhs -= (vals[:, self.mos_mv_take] * v_mv) \
                            @ self._mv_gemm
                msub = mats.reshape(shape)
                rsub = rhs
                if not whole:
                    msub = msub.take(rows, axis=0)
                    rsub = rhs.take(rows, axis=0)
            else:
                # Bitwise path: active-row Jacobians accumulated in
                # the per-point order (base, devices, gmin, caps)
                # with the per-point scatter sequences, as 1-D
                # scatters over contiguous row stacks.
                if whole:
                    msub = self.base_red.copy()
                    rsub = rhs_rows.copy()
                else:
                    msub = self.base_red.take(rows, axis=0)
                    rsub = rhs_rows.take(rows, axis=0)
                    if has_devices:
                        vals = vals.take(rows, axis=0)
                        res = res.take(rows, axis=0)
                flat = msub.reshape(-1)
                rflat = rsub.reshape(-1)
                if has_devices:
                    np.add.at(flat, self._mos_flat[:vals.size],
                              vals.reshape(-1))
                if gmin > 0.0:
                    msub.reshape(k, -1)[:, self.diag_red] += gmin
                if cap_g_rows is not None:
                    gcap = cap_g_rows if whole else cap_g_rows[rows]
                    np.add.at(flat, self._cap_mat_flat[:gcap.size],
                              gcap.reshape(-1))
                if has_devices:
                    np.add.at(rflat, self._res_flat[:res.size],
                              res.reshape(-1))
                if cap_currents is not None:
                    icap = cap_currents if whole else cap_currents[rows]
                    np.add.at(rflat, self._cap_rhs_flat[:icap.size],
                              icap.reshape(-1))
            try:
                sol = np.linalg.solve(msub, rsub[..., None])[..., 0]
                solved = rows
            except np.linalg.LinAlgError:
                sol, solved = self._solve_rows_fallback(
                    msub, rsub, rows, dc_mode, failed, active)
                whole = False
            if not solved.size:
                continue
            telemetry.record_batched_solve(solved.size)
            sel = solved
            if whole:
                # Every row active and solved (the common case):
                # whole-array bookkeeping, no fancy indexing.
                if condensed:
                    target[:, keep] = sol
                else:
                    target = sol
                target_sel = target
                delta = target - x
            else:
                target[solved[:, None], keep] = sol
                target_sel = target[sel]
                delta = target_sel - x[sel]
            if n_nodes:
                max_step = np.abs(delta[:, :n_nodes]).max(axis=1)
            else:
                max_step = np.zeros(sel.size)
            if dc_mode:
                finite = np.isfinite(target_sel).all(axis=1)
                if not finite.all():
                    whole = False
                    bad = sel[~finite]
                    failed[bad] = True
                    active[bad] = False
                    sel = sel[finite]
                    delta = delta[finite]
                    max_step = max_step[finite]
            # NaN max_step takes neither branch below: the row accepts
            # the update and keeps iterating, exactly like the
            # per-point loop.
            damp = max_step > MAX_UPDATE_V
            if whole and not damp.any():
                x[...] = target
                done = max_step <= VOLTAGE_TOL
                converged |= done
                active &= ~done
                continue
            if damp.any():
                rows_damp = sel[damp]
                coef = (MAX_UPDATE_V / max_step[damp])[:, None]
                x[rows_damp] = x[rows_damp] + coef * delta[damp]
            accept = ~damp
            if accept.any():
                rows_take = sel[accept]
                x[rows_take] = target[rows_take]
                done = max_step[accept] <= VOLTAGE_TOL
                rows_done = rows_take[done]
                converged[rows_done] = True
                active[rows_done] = False
        return converged, failed, iterations

    def solve_step_rows(self, estimate: np.ndarray,
                        rhs_rows: np.ndarray, dt_rows: np.ndarray,
                        cap_g_rows: Optional[np.ndarray]) -> np.ndarray:
        """One backward-Euler step for every row at once."""
        if self.n_capacitors:
            g = self.cap_farads / dt_rows[:, None]
            history = g * self.cap_voltage_rows(estimate)
            cap_currents = self.cap_rhs_sign \
                * history[:, self.cap_rhs_capi]
        else:
            cap_currents = None
        x = estimate.copy()
        converged, _, _ = self._newton_batch(
            x, rhs_rows, cap_currents, 0.0, cap_g_rows, dc_mode=False)
        if not converged.all():
            row = int(np.flatnonzero(~converged)[0])
            raise ConvergenceError(
                f"transient step of {self.circuits[row].title!r} "
                "failed to converge")
        return x


def dc_batch(circuits: Union[CircuitBatch, Sequence[Circuit]],
             initial_guess: Optional[np.ndarray] = None,
             condense: bool = True) -> List[DcSolution]:
    """DC operating points of a whole batch in one masked Newton run.

    Mirrors :func:`~repro.circuit.dc.dc_operating_point` per row --
    plain Newton first, then the per-row gmin ladder for rows that
    need it (a row that fails a ladder level keeps its previous
    estimate, exactly like the per-point ``break``), then the final
    ``gmin = 0`` polish.

    Args:
        circuits: a prebuilt :class:`CircuitBatch` or a sequence of
            same-topology circuits.
        initial_guess: optional ``(n_rows, n_unknowns)`` starting
            estimates.
        condense: eliminate dangling-source unknowns (ignored when a
            prebuilt batch is passed).

    Raises:
        ConvergenceError: if any row fails even with gmin stepping.
    """
    batch = circuits if isinstance(circuits, CircuitBatch) \
        else CircuitBatch(circuits, condense=condense)
    n_rows = batch.n_rows
    rhs = batch.static_rhs_rows()
    if initial_guess is not None \
            and initial_guess.shape == (n_rows, batch.n):
        start = np.asarray(initial_guess, dtype=float).copy()
    else:
        start = np.zeros((n_rows, batch.n))

    x = start.copy()
    converged, _, iterations = batch._newton_batch(
        x, rhs, None, 0.0, None, dc_mode=True)
    totals = iterations.astype(int)
    need = ~converged
    if need.any():
        # gmin stepping, per row: relax through the ladder, advancing
        # each row's estimate only past levels it converged at.
        estimates = start.copy()
        climb = need.copy()
        for exponent in range(3, 13):
            gmin = 10.0 ** (-exponent)
            trial = estimates.copy()
            stepped, _, used = batch._newton_batch(
                trial, rhs, None, gmin, None, dc_mode=True,
                active=climb)
            totals += used.astype(int)
            advanced = climb & stepped
            estimates[advanced] = trial[advanced]
            climb = advanced
            if not climb.any():
                break
        final = estimates.copy()
        polished, _, used = batch._newton_batch(
            final, rhs, None, 0.0, None, dc_mode=True, active=need)
        totals += used.astype(int)
        good = need & polished
        x[good] = final[good]
        bad = need & ~polished
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise ConvergenceError(
                f"DC analysis of {batch.circuits[row].title!r} "
                "failed to converge")
    return [DcSolution(batch.circuits[row], x[row].copy(),
                       int(totals[row]))
            for row in range(n_rows)]


def transient_batch(circuits: Union[CircuitBatch, Sequence[Circuit]],
                    stop_s, dt_s,
                    waveforms: Union[None, Dict[str, Waveform],
                                     Sequence[Optional[Dict[str, Waveform]]]] = None,
                    from_dc: bool = True,
                    condense: bool = True) -> List[TransientResult]:
    """Backward-Euler transients for every batch row in one sweep.

    The per-row semantics are exactly
    :func:`~repro.circuit.transient.transient`: waveform grids are
    pre-evaluated on each row's own time axis, the t=0 values land on
    the sources before the starting state is computed, capacitor
    states are mutated in place, and every row's final netlist state
    matches its solo run.

    Args:
        circuits: a prebuilt :class:`CircuitBatch` or a sequence of
            same-topology circuits.
        stop_s / dt_s: scalars shared by every row, or per-row arrays.
            Every row must land on the same step count (per-row
            windows with a shared grid length -- the fleet shape --
            are fine).
        waveforms: one dict applied to every row, or a sequence of
            per-row dicts (``None`` entries mean undriven).
        from_dc: start each row from its batched DC operating point
            (otherwise from the all-zero state).
        condense: eliminate dangling-source unknowns (ignored when a
            prebuilt batch is passed; ``False`` keeps the solve
            bit-identical to the per-point engine).

    Returns:
        One :class:`~repro.circuit.transient.TransientResult` per row.
    """
    batch = circuits if isinstance(circuits, CircuitBatch) \
        else CircuitBatch(circuits, condense=condense)
    members = batch.circuits
    n_rows = batch.n_rows
    stop_rows = _as_rows(stop_s, n_rows, "stop_s")
    dt_rows = _as_rows(dt_s, n_rows, "dt_s")
    if np.any(stop_rows <= 0.0) or np.any(dt_rows <= 0.0):
        raise ValueError("stop_s and dt_s must be positive")

    if waveforms is None:
        waveform_rows: List[Dict[str, Waveform]] = [{}] * n_rows
    elif isinstance(waveforms, dict):
        waveform_rows = [waveforms] * n_rows
    else:
        waveform_rows = [w or {} for w in waveforms]
        if len(waveform_rows) != n_rows:
            raise ValueError("waveforms must provide one dict per row")

    sources_rows = []
    for circuit, row_waveforms in zip(members, waveform_rows):
        sources = {source.name: source
                   for source in circuit.voltage_sources}
        sources.update({source.name: source
                        for source in circuit.current_sources})
        for name in row_waveforms:
            if name not in sources:
                raise ValueError(f"no source named {name!r} to drive")
        sources_rows.append(sources)

    steps_rows = np.round(stop_rows / dt_rows).astype(int)
    n_steps = int(steps_rows[0])
    if not np.all(steps_rows == n_steps):
        raise ValueError(
            "every batch row must land on the same step count "
            "(per-row dt_s must divide per-row stop_s identically)")

    times_rows = np.empty((n_rows, n_steps + 1))
    for row in range(n_rows):
        times_rows[row] = np.linspace(0.0, n_steps * dt_rows[row],
                                      n_steps + 1)
    grids_rows = [
        {name: evaluate_waveform_grid(waveform, times_rows[row])
         for name, waveform in waveform_rows[row].items()}
        for row in range(n_rows)]

    # The t=0 values go onto each row's sources before the starting
    # state and RHS grid are computed, mirroring the solo driver.
    for row in range(n_rows):
        _apply_grid_values(sources_rows[row], grids_rows[row], 0)
    if from_dc:
        x = np.stack([dc.solution for dc in dc_batch(batch)])
    else:
        x = np.zeros((n_rows, batch.n))
    for row, circuit in enumerate(members):
        for capacitor in circuit.capacitors:
            capacitor.update_state(x[row])

    solutions = np.empty((n_rows, n_steps + 1, batch.n))
    solutions[:, 0] = x
    rhs_grid = batch.rhs_grid_rows(grids_rows, n_steps)
    cap_g_rows = batch.cap_conductance_rows(dt_rows)
    for step in range(1, n_steps + 1):
        x = batch.solve_step_rows(x, rhs_grid[:, step], dt_rows,
                                  cap_g_rows)
        solutions[:, step] = x

    results = []
    for row, circuit in enumerate(members):
        _apply_grid_values(sources_rows[row], grids_rows[row], n_steps)
        for capacitor in circuit.capacitors:
            capacitor.update_state(x[row])
        results.append(TransientResult(circuit, times_rows[row],
                                       solutions[row]))
    return results
