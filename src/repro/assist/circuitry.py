"""Netlist-level implementation of the assist circuitry (Fig. 8).

Topology (device roles are documented in :mod:`repro.assist.modes`)::

            vdd ----+-------------------+------------- vdd
                    |                   |                |
                   P1                  P2               P5
                    |                   |                |
             A o----+--[ VDD grid ]--+--o B             |
                    |                |                   |
                   P3               P4                   |
                    |                |                   |
                    +------ lvdd ----+          lvss ----+
                            |                     |
                          [load]                [load]
                            |                     |
                    +------ lvss ----+           ...
                    |                |
                   N3               N4
                    |                |
             C o----+--[ VSS grid ]--+--o D
                    |                |
                   N1               N2
                    |                |
            gnd ----+----------------+--------- lvdd --N5-- gnd

The local VDD and VSS grids are the EM-sensitive structures; the load
(a bank of ring oscillators in the paper's simulation) is modelled as
a resistive current draw plus decoupling capacitance, which is what
determines the published observables: grid current magnitude/direction,
load rail voltages, droop, and mode-switching time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.assist.modes import (
    AssistMode,
    DEVICE_NAMES,
    gate_voltages,
)
from repro.circuit.mosfet import MosfetParams, NMOS_28NM, PMOS_28NM
from repro.circuit.netlist import Circuit
from repro.circuit.dc import DcSolution, dc_operating_point
from repro.circuit.transient import TransientResult, transient
from repro.errors import NetlistError


def mode_switch_waveforms(from_mode: AssistMode, to_mode: AssistMode,
                          supply_v: float, switch_at_s: float
                          ) -> Dict[str, Callable]:
    """Gate-drive step waveforms for a mode change at ``switch_at_s``.

    One waveform per assist device, keyed by its gate-source name.
    Each is array-aware (``np.where`` over a whole time grid) so the
    transient engine evaluates it in a single vectorized call; for a
    scalar ``t`` the selection reduces to the same two-level step.
    """
    before = gate_voltages(from_mode, supply_v)
    after = gate_voltages(to_mode, supply_v)
    waveforms = {}
    for device in DEVICE_NAMES:
        def waveform(t, lo=before[device], hi=after[device]):
            return np.where(np.asarray(t) >= switch_at_s, hi, lo)
        waveforms[f"vg_{device}"] = waveform
    return waveforms


def _require_mode_change(from_mode: AssistMode,
                         to_mode: AssistMode) -> None:
    """Reject a "switch" that stays in the same mode.

    Its rails never move, so no switching time exists to measure.
    """
    if from_mode == to_mode:
        raise ValueError(
            f"a mode switch needs two different modes, got "
            f"{from_mode.name} -> {to_mode.name}")


def switching_time_from(result: TransientResult, load_vdd_v: float,
                        load_vss_v: float, switch_at_s: float,
                        tolerance_v: float = 0.02) -> float:
    """Switching time read off a mode-switch transient (Fig. 10 metric).

    Time from the switch instant until both load rails settle to their
    target-mode DC values within ``tolerance_v``; ``inf`` if a rail
    never settles.  A rail that never leaves the tolerance band settles
    at ``t = 0``, so a switch whose rails barely move (Normal <-> EM)
    reports ``-switch_at_s``.
    """
    settled = max(result.settle_time("lvdd", load_vdd_v, tolerance_v),
                  result.settle_time("lvss", load_vss_v, tolerance_v))
    return settled - switch_at_s


@dataclass(frozen=True)
class AssistCircuitConfig:
    """Electrical configuration of one assist-circuit instance.

    Attributes:
        supply_v: nominal supply (1.0 V, 28 nm FD-SOI in the paper).
        grid_resistance_ohm: resistance of each local VDD/VSS grid
            ("the VDD/VSS grid was treated as a resistor for which we
            picked a reasonable value based on the published
            literature").
        load_resistance_ohm: equivalent resistance of ONE load unit (a
            parallel set of ring oscillators draws roughly constant
            current, so a resistor at the operating point is adequate
            for the DC observables).
        rail_capacitance_f: fixed parasitic capacitance of each load
            rail node (local grid wiring plus assist-circuit
            diffusion); dominates the rail capacitance, which is why
            adding load units -- more conduction, little extra
            capacitance -- *shortens* the mode-switching time, as
            Fig. 10 reports.
        load_capacitance_f: additional rail capacitance contributed by
            each load unit.
        n_loads: number of identical load units attached in parallel
            (the Fig. 10 sweep variable).
        header_params / footer_params: headers (P1, P2) and taps
            (P3, P4) share ``header_params``; footers (N1, N2) and
            taps (N3, N4) share ``footer_params``.
        bti_pullup_params / bti_pulldown_params: the BTI cross-connect
            devices P5 / N5; sized so the load rails land near the
            paper's 0.816 V / 0.223 V with ~0.2-0.3 V droop.
    """

    supply_v: float = 1.0
    grid_resistance_ohm: float = 20.0
    load_resistance_ohm: float = 1.6e3
    rail_capacitance_f: float = 15e-12
    load_capacitance_f: float = 1e-12
    n_loads: int = 1
    header_params: MosfetParams = field(
        default_factory=lambda: PMOS_28NM.scaled(10.0))
    footer_params: MosfetParams = field(
        default_factory=lambda: NMOS_28NM.scaled(10.0))
    bti_pullup_params: MosfetParams = field(
        default_factory=lambda: PMOS_28NM.scaled(1.1))
    bti_pulldown_params: MosfetParams = field(
        default_factory=lambda: NMOS_28NM.scaled(0.95))

    def __post_init__(self) -> None:
        if self.supply_v <= 0.0:
            raise NetlistError("supply_v must be positive")
        if self.grid_resistance_ohm <= 0.0 \
                or self.load_resistance_ohm <= 0.0:
            raise NetlistError("resistances must be positive")
        if self.rail_capacitance_f <= 0.0 or self.load_capacitance_f <= 0.0:
            raise NetlistError("rail capacitances must be positive")
        if self.n_loads < 1:
            raise NetlistError("n_loads must be at least 1")


@dataclass(frozen=True)
class ModeOperatingPoint:
    """DC observables of one operating mode (the Fig. 9 quantities).

    Attributes:
        mode: the analysed mode.
        load_vdd_v / load_vss_v: load rail voltages.
        vdd_grid_current_a: current through the VDD grid, positive in
            the normal direction (end A to end B).
        vss_grid_current_a: current through the VSS grid, positive in
            the normal direction (end C to end D).
        load_current_a: current through the load bank (lvdd -> lvss).
        supply_current_a: current drawn from the supply.
    """

    mode: AssistMode
    load_vdd_v: float
    load_vss_v: float
    vdd_grid_current_a: float
    vss_grid_current_a: float
    load_current_a: float
    supply_current_a: float

    @property
    def load_swing_v(self) -> float:
        """Voltage across the load bank."""
        return self.load_vdd_v - self.load_vss_v


class AssistCircuit:
    """A built assist-circuit netlist with mode control."""

    def __init__(self, config: Optional[AssistCircuitConfig] = None):
        self.config = config or AssistCircuitConfig()
        self.circuit = self._build()
        self._mode: Optional[AssistMode] = None

    def _build(self) -> Circuit:
        cfg = self.config
        circuit = Circuit("assist-circuitry")
        circuit.add_voltage_source("vsupply", "vdd", "gnd", cfg.supply_v)
        # Gate-drive sources, one per assist device.
        for device in DEVICE_NAMES:
            circuit.add_voltage_source(f"vg_{device}", f"g_{device}",
                                       "gnd", 0.0)
        # Local grids (the EM-sensitive wires).
        circuit.add_resistor("r_vdd_grid", "ga", "gb",
                             cfg.grid_resistance_ohm)
        circuit.add_resistor("r_vss_grid", "gc", "gd",
                             cfg.grid_resistance_ohm)
        # Headers and VDD-side taps.
        circuit.add_mosfet("P1", "ga", "g_P1", "vdd", cfg.header_params)
        circuit.add_mosfet("P2", "gb", "g_P2", "vdd", cfg.header_params)
        circuit.add_mosfet("P3", "lvdd", "g_P3", "ga", cfg.header_params)
        circuit.add_mosfet("P4", "lvdd", "g_P4", "gb", cfg.header_params)
        # Footers and VSS-side taps.
        circuit.add_mosfet("N1", "gc", "g_N1", "gnd", cfg.footer_params)
        circuit.add_mosfet("N2", "gd", "g_N2", "gnd", cfg.footer_params)
        circuit.add_mosfet("N3", "gc", "g_N3", "lvss", cfg.footer_params)
        circuit.add_mosfet("N4", "gd", "g_N4", "lvss", cfg.footer_params)
        # BTI cross-connect devices.
        circuit.add_mosfet("P5", "lvss", "g_P5", "vdd",
                           cfg.bti_pullup_params)
        circuit.add_mosfet("N5", "lvdd", "g_N5", "gnd",
                           cfg.bti_pulldown_params)
        # Load bank: n identical units in parallel.
        circuit.add_resistor("r_load", "lvdd", "lvss",
                             cfg.load_resistance_ohm / cfg.n_loads)
        rail_c = cfg.rail_capacitance_f + cfg.load_capacitance_f * cfg.n_loads
        circuit.add_capacitor("c_lvdd", "lvdd", "gnd", rail_c)
        circuit.add_capacitor("c_lvss", "lvss", "gnd", rail_c)
        return circuit

    # -- aging ----------------------------------------------------------

    def age_devices(self, delta_vth_v: float) -> None:
        """BTI-age every assist device by a threshold shift.

        The assist circuitry itself wears out (its ON devices are
        under constant bias); this applies a uniform |Vth| increase so
        the mode behaviours can be re-verified on an aged instance.
        """
        if delta_vth_v < 0.0:
            raise NetlistError("delta_vth_v must be non-negative")
        for mosfet in self.circuit.mosfets:
            mosfet.params = mosfet.params.with_vth_shift(delta_vth_v)

    # -- mode control -------------------------------------------------------

    def set_mode(self, mode: AssistMode) -> None:
        """Drive all gate sources to the truth-table values of a mode."""
        for device, volts in gate_voltages(mode,
                                           self.config.supply_v).items():
            self.circuit.find_voltage_source(f"vg_{device}").volts = volts
        self._mode = mode

    @property
    def mode(self) -> Optional[AssistMode]:
        """The last mode applied with :meth:`set_mode`."""
        return self._mode

    # -- analyses -----------------------------------------------------------

    def solve_mode(self, mode: AssistMode) -> ModeOperatingPoint:
        """DC operating point of a mode (the Fig. 9 observables)."""
        self.set_mode(mode)
        solution = self._solve_dc()
        return self._operating_point(mode, solution)

    def _solve_dc(self) -> DcSolution:
        return dc_operating_point(self.circuit)

    def _operating_point(self, mode: AssistMode,
                         solution: DcSolution) -> ModeOperatingPoint:
        return ModeOperatingPoint(
            mode=mode,
            load_vdd_v=solution.voltage("lvdd"),
            load_vss_v=solution.voltage("lvss"),
            vdd_grid_current_a=solution.resistor_current("r_vdd_grid"),
            vss_grid_current_a=solution.resistor_current("r_vss_grid"),
            load_current_a=solution.resistor_current("r_load"),
            supply_current_a=-solution.source_current("vsupply"),
        )

    def mode_switch_transient(self, from_mode: AssistMode,
                              to_mode: AssistMode,
                              stop_s: float = 100e-9,
                              dt_s: float = 0.2e-9,
                              switch_at_s: float = 5e-9
                              ) -> TransientResult:
        """Transient of a mode change at ``switch_at_s``.

        The circuit starts in the DC state of ``from_mode``; at the
        switch instant every gate drive steps to the ``to_mode`` value.
        """
        waveforms = mode_switch_waveforms(from_mode, to_mode,
                                          self.config.supply_v,
                                          switch_at_s)
        self.set_mode(from_mode)
        return transient(self.circuit, stop_s=stop_s, dt_s=dt_s,
                         waveforms=waveforms)

    def switching_time_s(self, from_mode: AssistMode,
                         to_mode: AssistMode,
                         tolerance_v: float = 0.02,
                         stop_s: float = 100e-9,
                         dt_s: float = 0.2e-9,
                         switch_at_s: float = 5e-9) -> float:
        """Retention/switching time between modes (Fig. 10 metric).

        Time from the switch instant until both load rails settle to
        their new DC values within ``tolerance_v`` (see
        :func:`switching_time_from`).  Raises ``ValueError`` when both
        modes are the same.
        """
        _require_mode_change(from_mode, to_mode)
        target = self.solve_mode(to_mode)
        result = self.mode_switch_transient(from_mode, to_mode,
                                            stop_s=stop_s, dt_s=dt_s,
                                            switch_at_s=switch_at_s)
        return switching_time_from(result, target.load_vdd_v,
                                   target.load_vss_v, switch_at_s,
                                   tolerance_v)
