"""Square-law (level-1) MOSFET with symmetric conduction.

The assist circuitry of the paper uses header/footer transistors as
*pass devices*: depending on the operating mode, current may flow in
either direction through the same device.  The model therefore treats
drain and source symmetrically -- when the nominal drain is biased
below the nominal source (for an NMOS), the terminals are swapped
internally and the computed current is negated.

The model is a standard level-1 description::

    cutoff:  vgs <= vth:   ids = 0
    triode:  vds < vov:    ids = k (W/L) (vov - vds/2) vds (1 + lam vds)
    sat:     vds >= vov:   ids = k/2 (W/L) vov^2 (1 + lam vds)

with ``vov = vgs - vth``.  A small drain-source leakage conductance
keeps the MNA matrix non-singular when devices are off.  PMOS devices
mirror all polarities.

Threshold voltages are *mutable* so that BTI-aged circuits can be
simulated directly: ``mosfet.params = mosfet.params.with_vth_shift(dv)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from repro.circuit.elements import MnaSystem
from repro.errors import NetlistError


@dataclass(frozen=True)
class MosfetParams:
    """Static device parameters.

    Attributes:
        polarity: ``"nmos"`` or ``"pmos"``.
        vth_v: threshold voltage magnitude (positive number for both
            polarities).
        kp_a_v2: process transconductance ``mu * Cox`` in A/V^2.
        w_over_l: device aspect ratio.
        lambda_per_v: channel-length modulation coefficient.
        leak_s: off-state drain-source conductance (keeps matrices
            regular; physically the subthreshold/junction leakage).
    """

    polarity: str
    vth_v: float
    kp_a_v2: float
    w_over_l: float
    lambda_per_v: float = 0.05
    leak_s: float = 1e-9

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise NetlistError("polarity must be 'nmos' or 'pmos'")
        if self.vth_v <= 0.0:
            raise NetlistError("vth_v must be positive (magnitude)")
        if self.kp_a_v2 <= 0.0 or self.w_over_l <= 0.0:
            raise NetlistError("kp_a_v2 and w_over_l must be positive")
        if self.lambda_per_v < 0.0 or self.leak_s < 0.0:
            raise NetlistError("lambda_per_v and leak_s must be >= 0")

    @property
    def beta(self) -> float:
        """Gain factor ``k (W/L)``."""
        return self.kp_a_v2 * self.w_over_l

    def with_vth_shift(self, delta_v: float) -> "MosfetParams":
        """A copy with the threshold magnitude increased by ``delta_v``.

        This is how BTI wearout enters circuit simulation: positive
        ``delta_v`` raises |Vth| and weakens the device.
        """
        return replace(self, vth_v=self.vth_v + delta_v)

    def scaled(self, width_factor: float) -> "MosfetParams":
        """A copy with the width (W/L) scaled by ``width_factor``."""
        if width_factor <= 0.0:
            raise NetlistError("width_factor must be positive")
        return replace(self, w_over_l=self.w_over_l * width_factor)


#: Representative 28 nm FD-SOI devices for the Fig. 9/10 experiments
#: (1.0 V nominal supply, |Vth| ~ 0.30 V).
NMOS_28NM = MosfetParams(polarity="nmos", vth_v=0.30, kp_a_v2=3.0e-4,
                         w_over_l=10.0)
PMOS_28NM = MosfetParams(polarity="pmos", vth_v=0.30, kp_a_v2=1.5e-4,
                         w_over_l=20.0)


def _nmos_core(vgs: float, vds: float, params: MosfetParams
               ) -> Tuple[float, float, float]:
    """Level-1 NMOS current and derivatives for ``vds >= 0``.

    Returns ``(ids, gm, gds)`` excluding leakage.
    """
    vov = vgs - params.vth_v
    if vov <= 0.0:
        return 0.0, 0.0, 0.0
    beta = params.beta
    lam = params.lambda_per_v
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
    return ids, gm, gds


@dataclass
class Mosfet:
    """A MOSFET instance in a netlist.

    Attributes:
        name: unique element name.
        drain / gate / source: node indices.
        params: device parameters (mutable slot; swap to age a device).
    """

    name: str
    drain: int
    gate: int
    source: int
    params: MosfetParams

    def evaluate(self, v) -> Tuple[float, float, float]:
        """Drain current and Jacobian entries at a bias point.

        Args:
            v: node-voltage vector (branch entries may trail; only node
                indices are read).

        Returns:
            ``(ids, g_drain, g_gate)`` where ``ids`` is the current
            flowing from the nominal drain node to the nominal source
            node, ``g_drain = d ids / d v(drain)`` and
            ``g_gate = d ids / d v(gate)``.  The source derivative
            follows from translation invariance:
            ``g_source = -(g_drain + g_gate)``.
        """
        def at(node: int) -> float:
            return float(v[node]) if node >= 0 else 0.0

        vd, vg, vs = at(self.drain), at(self.gate), at(self.source)
        mirror = -1.0 if self.params.polarity == "pmos" else 1.0
        ud, ug, us = mirror * vd, mirror * vg, mirror * vs
        if ud >= us:
            ids, gm, gds = _nmos_core(ug - us, ud - us, self.params)
            current_n = ids
            g_drain = gds
            g_gate = gm
        else:
            # Symmetric conduction: swap effective drain and source.
            ids, gm, gds = _nmos_core(ug - ud, us - ud, self.params)
            current_n = -ids
            g_drain = gm + gds
            g_gate = -gm
        # Leakage acts on the un-swapped vds in mirrored coordinates.
        current_n += self.params.leak_s * (ud - us)
        g_drain += self.params.leak_s
        # Mirroring flips the current but leaves derivatives w.r.t.
        # real node voltages unchanged (two sign flips cancel).
        return mirror * current_n, g_drain, g_gate

    def stamp(self, system: MnaSystem, v) -> None:
        """Stamp the Newton companion model at the bias point ``v``.

        The linearization
        ``i(v) ~ i0 + gd*(vd-vd0) + gg*(vg-vg0) + gs*(vs-vs0)`` is
        stamped as two VCCS entries plus a constant current source.
        """
        ids, g_drain, g_gate = self.evaluate(v)

        def at(node: int) -> float:
            return float(v[node]) if node >= 0 else 0.0

        vds0 = at(self.drain) - at(self.source)
        vgs0 = at(self.gate) - at(self.source)
        system.add_transconductance(self.drain, self.source,
                                    self.drain, self.source, g_drain)
        system.add_transconductance(self.drain, self.source,
                                    self.gate, self.source, g_gate)
        residual = ids - g_drain * vds0 - g_gate * vgs0
        system.add_current(self.drain, self.source, residual)

    def current(self, v) -> float:
        """Drain-to-source current at a solved bias point."""
        return self.evaluate(v)[0]


class MosfetBank:
    """Vectorized level-1 evaluation of a fixed list of MOSFETs.

    The device kernel of the batched grid engine
    (:mod:`repro.circuit.batched`): every device of every batch row
    evaluates in one ufunc pass per Newton iteration.  Each
    elementwise expression below follows the *exact* operation tree
    of the scalar path (:func:`_nmos_core` / ``evaluate``, inlined in
    :meth:`repro.circuit.compiled.CompiledCircuit._scalar_stamps`) --
    same associativity, same constant folding -- so the vectorized
    lanes reproduce the scalar results bit for bit, which is what lets
    an uncondensed batch row match its solo run exactly.

    Ground terminals are mapped to ``pad_index``, the extra
    always-zero trailing slot of the padded solution vector the
    engine gathers from.

    :meth:`evaluate` accepts a padded bias of any leading shape
    ``(..., size + 1)`` and returns ``(..., n_devices)`` stamp arrays.
    Built via :meth:`stacked`, the parameter arrays carry a leading
    batch axis ``(n_rows, n_devices)``, one device table per
    parameter-grid point.
    """

    def __init__(self, mosfets: Sequence[Mosfet], pad_index: int):
        self.n_devices = len(mosfets)
        pad = pad_index

        def padded(node: int) -> int:
            return node if node >= 0 else pad

        # Gather index: rows are (drain, gate, source) per device.
        self.dgs_index = np.array(
            [[padded(m.drain) for m in mosfets],
             [padded(m.gate) for m in mosfets],
             [padded(m.source) for m in mosfets]], dtype=np.intp)
        params = [m.params for m in mosfets]
        self.mirror = np.array([-1.0 if p.polarity == "pmos" else 1.0
                                for p in params])
        self.vth = np.array([p.vth_v for p in params])
        self.beta = np.array([p.beta for p in params])
        # The scalar path computes ``0.5 * beta`` afresh each call;
        # one multiply on the same operands gives the same bits.
        self.half_beta = 0.5 * self.beta
        self.lam = np.array([p.lambda_per_v for p in params])
        self.leak = np.array([p.leak_s for p in params])

    @classmethod
    def stacked(cls, mosfet_rows: Sequence[Sequence[Mosfet]],
                pad_index: int) -> "MosfetBank":
        """A bank evaluating one device *table* per batch row.

        Every row must list the same devices (same names, terminals
        and polarities, in the same order) -- only the numeric
        parameters may differ, which is exactly the shape of a
        parameter-grid sweep (aged thresholds, resized widths).  The
        parameter arrays become ``(n_rows, n_devices)`` and broadcast
        against an ``(n_rows, size + 1)`` padded bias in
        :meth:`evaluate`.
        """
        if not mosfet_rows:
            raise NetlistError("mosfet_rows must not be empty")
        first = list(mosfet_rows[0])
        bank = cls(first, pad_index)
        for row in mosfet_rows[1:]:
            if len(row) != len(first):
                raise NetlistError(
                    "every batch row needs the same device count")
            for mine, theirs in zip(first, row):
                if (mine.drain, mine.gate, mine.source,
                        mine.params.polarity) != \
                        (theirs.drain, theirs.gate, theirs.source,
                         theirs.params.polarity):
                    raise NetlistError(
                        f"device {theirs.name!r} changes terminals or "
                        "polarity across batch rows; the batched "
                        "engine needs a shared topology")
        params = [[m.params for m in row] for row in mosfet_rows]
        bank.mirror = np.array(
            [[-1.0 if p.polarity == "pmos" else 1.0 for p in row]
             for row in params])
        bank.vth = np.array([[p.vth_v for p in row] for row in params])
        bank.beta = np.array([[p.beta for p in row] for row in params])
        bank.half_beta = 0.5 * bank.beta
        bank.lam = np.array([[p.lambda_per_v for p in row]
                             for row in params])
        bank.leak = np.array([[p.leak_s for p in row] for row in params])
        return bank

    def evaluate(self, x_padded: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-device Newton companion values at a padded bias vector.

        Returns ``(g_drain, g_gate, residual)`` where the first two are
        the Jacobian stamps of :meth:`Mosfet.stamp` and ``residual`` is
        its constant companion current
        ``ids - g_drain*vds0 - g_gate*vgs0``.  ``x_padded`` may carry
        leading batch axes (``(..., size + 1)``); every lane's
        expression tree is unchanged, so each batch row reproduces the
        unbatched bits exactly.
        """
        vdgs = np.take(x_padded, self.dgs_index, axis=-1)
        vd = vdgs[..., 0, :]
        vg = vdgs[..., 1, :]
        vs = vdgs[..., 2, :]
        ud = self.mirror * vd
        ug = self.mirror * vg
        us = self.mirror * vs
        swap = ud < us
        # Effective (drain, source) after symmetric-conduction swap.
        ed = np.where(swap, us, ud)
        es = np.where(swap, ud, us)
        vgs = ug - es
        vds = ed - es
        vov = vgs - self.vth
        lamvds = self.lam * vds
        clm = 1.0 + lamvds
        half_vds = 0.5 * vds
        a = vov - half_vds
        # Triode branch (expression trees mirror _nmos_core verbatim).
        t1 = self.beta * a
        t2 = t1 * vds
        ids_triode = t2 * clm
        bvds = self.beta * vds
        gm_triode = bvds * clm
        w = vov - vds
        p = w * clm
        q = a * vds
        r = q * self.lam
        gds_triode = self.beta * (p + r)
        # Saturation branch.
        hv = self.half_beta * vov
        hvv = hv * vov
        ids_sat = hvv * clm
        bv = self.beta * vov
        gm_sat = bv * clm
        gds_sat = hvv * self.lam
        active = vov > 0.0
        triode = active & (vds < vov)
        on_sat = active & ~triode
        ids = np.where(triode, ids_triode,
                       np.where(on_sat, ids_sat, 0.0))
        gm = np.where(triode, gm_triode,
                      np.where(on_sat, gm_sat, 0.0))
        gds = np.where(triode, gds_triode,
                       np.where(on_sat, gds_sat, 0.0))
        # Undo the swap: current negates, derivatives re-map.
        current_n = np.where(swap, -ids, ids)
        g_drain = np.where(swap, gm + gds, gds)
        g_gate = np.where(swap, -gm, gm)
        duds = ud - us
        current_n = current_n + self.leak * duds
        g_drain = g_drain + self.leak
        ids_out = self.mirror * current_n
        vds0 = vd - vs
        vgs0 = vg - vs
        residual = ids_out - g_drain * vds0 - g_gate * vgs0
        return g_drain, g_gate, residual
