"""Compiled MNA circuit programs: flat stamps, cached factors.

The seed engine re-stamped every element through Python method calls
(``MnaSystem`` dispatch, dataclass attribute walks, closure helpers)
on every Newton iteration of every time step -- ~115 us per iteration
on the assist circuit, almost all of it interpreter overhead.  A
:class:`CompiledCircuit` flattens the netlist once into index/value
arrays and runs each iteration through three compiled pieces:

* the **constant linear stamp** (resistor conductances and
  voltage-source connectivity) is assembled once into a base matrix;
* **nonlinear devices** become a flat parameter table plus
  precomputed scatter indices.  Per iteration they evaluate through a
  lean scalar kernel -- a tight loop of plain float arithmetic, the
  profitable choice at MNA-scale device counts, where one numpy
  dispatch costs more than a whole device evaluation.  The kernel
  follows the exact scalar expression tree of
  :meth:`repro.circuit.mosfet.Mosfet.stamp`, so every produced bit
  matches the seed loop, and the resulting entries land in the matrix
  in the seed's per-cell accumulation order.  The vectorized
  :class:`~repro.circuit.mosfet.MosfetBank` ufunc pass, bit-identical
  to this kernel, belongs to the batched engine
  (:mod:`repro.circuit.batched`);
* the dense solve goes straight to LAPACK ``getrf``/``getrs`` (the
  same routines ``scipy.linalg.lu_factor``/``lu_solve`` wrap, minus
  the per-call wrapper overhead), behind a
  :class:`~repro.solvers.FactorizationCache` keyed on the *inputs*
  that determine the matrix: the packed device stamp values, ``gmin``
  and the ``dt`` selecting the capacitor companions.  Device biases
  quantize -- a settled or slowly-moving transient revisits a handful
  of distinct stamp-value patterns even while the solution drifts in
  its last bits -- so key hits skip assembly and factorization
  entirely and the iteration reduces to one back-substitution.

Transient runs additionally pre-evaluate every source waveform over
the whole time grid up front (:func:`evaluate_waveform_grid`) and
fold the values into a per-step RHS grid, replacing the seed's
per-step waveform callables and re-stamping.

Newton damping, tolerances and gmin stepping are byte-for-byte the
seed's control flow, so the engines converge along identical paths;
``benchmarks/test_circuit_engine.py`` asserts <= 1e-10 agreement on
whole waveforms against the verbatim seed replica (and the property
tests assert bit-level equality).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.netlist import Circuit
from repro.errors import ConvergenceError
from repro.solvers import DenseLuOperator, FactorizationCache

#: Maximum Newton iterations per gmin level (the seed's value).
MAX_ITERATIONS = 200

#: Per-iteration clamp on node-voltage updates (volts).
MAX_UPDATE_V = 0.3

#: Convergence tolerance on node voltages (volts).
VOLTAGE_TOL = 1e-9


def _stamp_conductance(matrix: np.ndarray, a: int, b: int,
                       g: float) -> None:
    """Scalar conductance stamp (build-time only; seed cell order)."""
    if a >= 0:
        matrix[a, a] += g
    if b >= 0:
        matrix[b, b] += g
    if a >= 0 and b >= 0:
        matrix[a, b] -= g
        matrix[b, a] -= g


def _flatten_entries(rows: np.ndarray, cols: np.ndarray, size: int
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Compress (rows, cols) stamp slots into kept flat indices.

    ``rows``/``cols`` hold raw node indices (-1 = ground) in
    device-major order; a slot survives only when both endpoints are
    real nodes, matching the seed's ground skips.  Returns the flat
    matrix indices of the kept slots and the positions to ``take``
    from the device-major value buffer.
    """
    keep = (rows >= 0) & (cols >= 0)
    keep_flat = keep.reshape(-1)
    flat = (rows * size + cols).reshape(-1)
    return flat[keep_flat].astype(np.intp), np.flatnonzero(keep_flat)


class CompiledCircuit:
    """A netlist flattened into scatter-ready stamp arrays.

    Built fresh per analysis call (construction is microseconds next
    to any solve), so mutated source values, aged device parameters
    and added elements are always picked up -- there is no
    invalidation protocol to get wrong.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        n_nodes = circuit.n_nodes
        size = n_nodes + len(circuit.voltage_sources)
        self.n_nodes = n_nodes
        self.n = size
        self.pad = size  # index of the always-zero ground slot

        # -- constant linear stamp (assembled once, seed cell order) --
        base = np.zeros((size, size))
        for resistor in circuit.resistors:
            _stamp_conductance(base, resistor.a, resistor.b,
                               resistor.conductance)
        for source in circuit.voltage_sources:
            row = n_nodes + source.branch
            if source.pos >= 0:
                base[source.pos, row] += 1.0
                base[row, source.pos] += 1.0
            if source.neg >= 0:
                base[source.neg, row] -= 1.0
                base[row, source.neg] -= 1.0
        self.base_matrix = base
        self.diag_flat = np.arange(n_nodes, dtype=np.intp) * (size + 1)

        # -- nonlinear devices: parameter table + scatter pattern --
        mosfets = circuit.mosfets
        self.n_mosfets = len(mosfets)
        pad = self.pad

        def padded(node: int) -> int:
            return node if node >= 0 else pad

        # Flat per-device row for the scalar kernel: padded terminal
        # slots, raw drain/source indices for the RHS companion
        # current (-1 = skip), then model constants.  A device-free
        # netlist packs an empty stamp key.
        self.device_table = [
            (padded(m.drain), padded(m.gate), padded(m.source),
             m.drain, m.source,
             -1.0 if m.params.polarity == "pmos" else 1.0,
             m.params.vth_v, m.params.beta, m.params.lambda_per_v,
             m.params.leak_s)
            for m in mosfets]
        self._pack = struct.Struct(f"{8 * self.n_mosfets}d").pack
        if mosfets:
            d = np.array([m.drain for m in mosfets])
            g = np.array([m.gate for m in mosfets])
            s = np.array([m.source for m in mosfets])
            # The eight Mosfet.stamp slots, in stamp order:
            #   (d,d)+gd (d,s)-gd (s,d)-gd (s,s)+gd
            #   (d,g)+gg (d,s)-gg (s,g)-gg (s,s)+gg
            rows = np.stack([d, d, s, s, d, d, s, s], axis=1)
            cols = np.stack([d, s, d, s, g, s, g, s], axis=1)
            self.mos_idx, self.mos_take = _flatten_entries(rows, cols,
                                                           size)
            # Companion-current slots: rhs[d] -= res, rhs[s] += res.
            rrows = np.stack([d, s], axis=1)
            rkeep = (rrows >= 0).reshape(-1)
            self.res_idx = rrows.reshape(-1)[rkeep].astype(np.intp)
            self.res_take = np.flatnonzero(rkeep)

        # -- capacitor companion tables --------------------------------
        capacitors = circuit.capacitors
        self.n_capacitors = len(capacitors)
        if capacitors:
            a = np.array([c.a for c in capacitors])
            b = np.array([c.b for c in capacitors])
            self.cap_farads = np.array([c.farads for c in capacitors])
            # Conductance slots in add_conductance order:
            #   (a,a)+g (b,b)+g (a,b)-g (b,a)-g
            rows = np.stack([a, b, a, b], axis=1)
            cols = np.stack([a, b, b, a], axis=1)
            signs = np.tile(np.array([1.0, 1.0, -1.0, -1.0]),
                            (self.n_capacitors, 1))
            capi = np.tile(np.arange(self.n_capacitors)[:, None],
                           (1, 4))
            keep = ((rows >= 0) & (cols >= 0)).reshape(-1)
            flat = (rows * size + cols).reshape(-1)
            self.cap_mat_idx = flat[keep].astype(np.intp)
            self.cap_mat_sign = signs.reshape(-1)[keep]
            self.cap_mat_capi = capi.reshape(-1)[keep]
            # Kernel table: padded terminals for v_old, raw terminals
            # for the history-current RHS slots.
            self.cap_table = [
                (c.a if c.a >= 0 else self.pad,
                 c.b if c.b >= 0 else self.pad,
                 c.b, c.a, c.farads)
                for c in capacitors]
            # Voltage gathers and history-current scatter for the
            # batched engine (repro.circuit.batched).
            self.cap_a = np.array(
                [ci if ci >= 0 else self.pad for ci in a],
                dtype=np.intp)
            self.cap_b = np.array(
                [ci if ci >= 0 else self.pad for ci in b],
                dtype=np.intp)
            rrows = np.stack([b, a], axis=1)
            rsigns = np.tile(np.array([-1.0, 1.0]),
                             (self.n_capacitors, 1))
            rkeep = (rrows >= 0).reshape(-1)
            self.cap_rhs_idx = rrows.reshape(-1)[rkeep].astype(np.intp)
            self.cap_rhs_sign = rsigns.reshape(-1)[rkeep]
            self.cap_rhs_capi = capi[:, :2].reshape(-1)[rkeep]

        self._lu_cache = FactorizationCache(maxsize=32, name="circuit.lu")

    # -- right-hand sides ----------------------------------------------

    def static_rhs(self) -> np.ndarray:
        """RHS from the current source values (seed cell order)."""
        rhs = np.zeros(self.n)
        n_nodes = self.n_nodes
        for source in self.circuit.voltage_sources:
            rhs[n_nodes + source.branch] += source.volts
        for source in self.circuit.current_sources:
            if source.a >= 0:
                rhs[source.a] -= source.amps
            if source.b >= 0:
                rhs[source.b] += source.amps
        return rhs

    def rhs_grid(self, value_grids: dict, n_steps: int) -> np.ndarray:
        """Per-step source RHS rows for a whole transient run.

        ``value_grids`` maps a driven source name to its pre-evaluated
        value grid over all time points; undriven sources contribute
        their static value to every row.  One vectorized pass per
        source replaces the seed's per-step ``apply_waveforms`` +
        re-stamp loop.
        """
        grid = np.zeros((n_steps + 1, self.n))
        n_nodes = self.n_nodes
        for source in self.circuit.voltage_sources:
            values = value_grids.get(source.name, source.volts)
            grid[:, n_nodes + source.branch] += values
        for source in self.circuit.current_sources:
            values = value_grids.get(source.name, source.amps)
            if source.a >= 0:
                grid[:, source.a] -= values
            if source.b >= 0:
                grid[:, source.b] += values
        return grid

    # -- capacitor companions ------------------------------------------

    def cap_conductances(self, dt_s: float) -> Optional[np.ndarray]:
        """Flat companion-conductance stamp values for a fixed dt."""
        if not self.n_capacitors:
            return None
        g = self.cap_farads / dt_s
        return self.cap_mat_sign * g.take(self.cap_mat_capi)

    def _cap_adds(self, xl: List[float], dt_s: float
                  ) -> Sequence[Tuple[int, float]]:
        """Per-step history-current RHS updates from the old bias.

        ``xl`` is the padded step-start solution (the capacitor
        state); the returned ``(rhs_index, amount)`` pairs replicate
        ``Capacitor.stamp_transient``'s ``add_current(b, a, g*v_old)``
        in element order.
        """
        if not self.n_capacitors:
            return ()
        adds = []
        for a, b, rb, ra, farads in self.cap_table:
            g = farads / dt_s
            amount = g * (xl[a] - xl[b])
            if rb >= 0:
                adds.append((rb, -amount))
            if ra >= 0:
                adds.append((ra, amount))
        return adds

    # -- device stamp kernels ------------------------------------------

    def _scalar_stamps(self, xl: List[float],
                       rhs_list: List[float]) -> List[float]:
        """Per-device Newton stamps via plain float arithmetic.

        The loop body inlines :func:`repro.circuit.mosfet._nmos_core`
        and :meth:`Mosfet.evaluate`/:meth:`Mosfet.stamp` verbatim --
        the identical Python float expression trees -- so every value
        carries the seed engine's exact bits.  Jacobian entries are
        collected device-major into the returned value list; the
        companion currents are applied to ``rhs_list`` in place
        (``rhs[d] -= residual; rhs[s] += residual``, the seed's
        ``add_current`` order).
        """
        vals: List[float] = []
        for di, gi, si, rd, rs, mirror, vth, beta, lam, leak in \
                self.device_table:
            vd = xl[di]
            vg = xl[gi]
            vs = xl[si]
            ud = mirror * vd
            ug = mirror * vg
            us = mirror * vs
            if ud >= us:
                vgs = ug - us
                vds = ud - us
                vov = vgs - vth
                if vov <= 0.0:
                    ids = 0.0
                    gm = 0.0
                    gds = 0.0
                else:
                    clm = 1.0 + lam * vds
                    if vds < vov:
                        ids = beta * (vov - 0.5 * vds) * vds * clm
                        gm = beta * vds * clm
                        gds = beta * ((vov - vds) * clm
                                      + (vov - 0.5 * vds) * vds * lam)
                    else:
                        ids = 0.5 * beta * vov * vov * clm
                        gm = beta * vov * clm
                        gds = 0.5 * beta * vov * vov * lam
                current_n = ids
                g_drain = gds
                g_gate = gm
            else:
                # Symmetric conduction: swap effective drain/source.
                vgs = ug - ud
                vds = us - ud
                vov = vgs - vth
                if vov <= 0.0:
                    ids = 0.0
                    gm = 0.0
                    gds = 0.0
                else:
                    clm = 1.0 + lam * vds
                    if vds < vov:
                        ids = beta * (vov - 0.5 * vds) * vds * clm
                        gm = beta * vds * clm
                        gds = beta * ((vov - vds) * clm
                                      + (vov - 0.5 * vds) * vds * lam)
                    else:
                        ids = 0.5 * beta * vov * vov * clm
                        gm = beta * vov * clm
                        gds = 0.5 * beta * vov * vov * lam
                current_n = -ids
                g_drain = gm + gds
                g_gate = -gm
            current_n += leak * (ud - us)
            g_drain += leak
            ids_out = mirror * current_n
            residual = ids_out - g_drain * (vd - vs) \
                - g_gate * (vg - vs)
            ngd = -g_drain
            ngg = -g_gate
            vals += (g_drain, ngd, ngd, g_drain,
                     g_gate, ngg, ngg, g_gate)
            if rd >= 0:
                rhs_list[rd] -= residual
            if rs >= 0:
                rhs_list[rs] += residual
        return vals

    # -- linearized solves ---------------------------------------------

    def _factor(self, vals: List[float], gmin: float,
                cap_conductances: Optional[np.ndarray]
                ) -> DenseLuOperator:
        """Assemble the Jacobian in the seed's cell order and factor.

        Only runs on an LU-cache miss.  Accumulation order per cell
        matches the seed loop exactly: linear base, then device
        stamps, then gmin, then capacitor companions.  The scratch
        matrix is handed to the shared operator for in-place
        factorization.
        """
        matrix = self.base_matrix.copy()
        flat = matrix.reshape(-1)
        if self.n_mosfets:
            np.add.at(flat, self.mos_idx,
                      np.asarray(vals).take(self.mos_take))
        if gmin > 0.0:
            flat[self.diag_flat] += gmin
        if cap_conductances is not None:
            np.add.at(flat, self.cap_mat_idx, cap_conductances)
        return DenseLuOperator(matrix, overwrite_matrix=True)

    def _iterate(self, xl: List[float], row_list: List[float],
                 cap_adds: Sequence[Tuple[int, float]],
                 gmin: float, dt_key: float,
                 cap_conductances: Optional[np.ndarray]
                 ) -> np.ndarray:
        """One linearized solve at padded bias ``xl``."""
        rhs_list = row_list.copy()
        vals = self._scalar_stamps(xl, rhs_list)
        for index, amount in cap_adds:
            rhs_list[index] += amount
        key = (self._pack(*vals), gmin, dt_key)
        operator = self._lu_cache.get_or_build(
            key, lambda: self._factor(vals, gmin, cap_conductances))
        return operator.solve(np.array(rhs_list), overwrite_rhs=True)

    # -- Newton drivers (the seed's control flow, verbatim) ------------

    def newton(self, estimate: np.ndarray, rhs_base: np.ndarray,
               gmin: float) -> Tuple[Optional[np.ndarray], int]:
        """Damped Newton at a fixed gmin: (solution or None, count)."""
        x = estimate.copy()
        n_nodes = self.n_nodes
        row_list = rhs_base.tolist()
        for iteration in range(1, MAX_ITERATIONS + 1):
            xl = x.tolist()
            xl.append(0.0)
            try:
                target = self._iterate(xl, row_list, (), gmin, 0.0,
                                       None)
            except np.linalg.LinAlgError:
                return None, iteration
            if not np.all(np.isfinite(target)):
                return None, iteration
            delta = target - x
            max_step = float(np.abs(delta[:n_nodes]).max()) \
                if n_nodes else 0.0
            if max_step > MAX_UPDATE_V:
                x = x + (MAX_UPDATE_V / max_step) * delta
                continue
            x = target
            if max_step <= VOLTAGE_TOL:
                return x, iteration
        return None, MAX_ITERATIONS

    def solve_step(self, estimate: np.ndarray, rhs_row: np.ndarray,
                   dt_s: float,
                   cap_conductances: Optional[np.ndarray]
                   ) -> np.ndarray:
        """One backward-Euler step: Newton on the companion network.

        The capacitor history currents come from ``estimate`` -- the
        previous step's solution, which is exactly the state the seed
        tracked through ``Capacitor.update_state`` -- and stay fixed
        while Newton re-linearizes the devices.
        """
        x = estimate.copy()
        n_nodes = self.n_nodes
        xl = x.tolist()
        xl.append(0.0)
        row_list = rhs_row.tolist()
        cap_adds = self._cap_adds(xl, dt_s)
        for _ in range(MAX_ITERATIONS):
            try:
                target = self._iterate(xl, row_list, cap_adds, 0.0,
                                       dt_s, cap_conductances)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"transient step of {self.circuit.title!r} "
                    "is singular") from exc
            tl = target.tolist()
            # max |delta| over the node entries, with numpy's NaN
            # propagation (any NaN forces the non-converged path).
            max_step = 0.0
            for i in range(n_nodes):
                d = tl[i] - xl[i]
                if d < 0.0:
                    d = -d
                if d > max_step or d != d:
                    max_step = d
            if max_step > MAX_UPDATE_V:
                x = x + (MAX_UPDATE_V / max_step) * (target - x)
                xl = x.tolist()
                xl.append(0.0)
                continue
            x = target
            xl = tl
            xl.append(0.0)
            if max_step <= VOLTAGE_TOL:
                return x
        raise ConvergenceError(
            f"transient step of {self.circuit.title!r} "
            "failed to converge")


def evaluate_waveform_grid(waveform, times: np.ndarray) -> np.ndarray:
    """A source waveform evaluated over the whole time grid.

    Tries one vectorized call first (array-aware waveforms -- e.g.
    ``np.where``-based mode-switch steps -- cost one ufunc pass for
    the entire run); scalar-only callables fall back to per-point
    evaluation with the exact time values the seed engine passed.
    """
    try:
        grid = np.asarray(waveform(times), dtype=float)
        if grid.shape == times.shape:
            return grid
    except Exception:
        pass
    return np.array([float(waveform(t)) for t in times], dtype=float)
