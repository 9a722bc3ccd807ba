"""Transistor-level ring oscillator built on the circuit simulator.

The paper measures BTI through a 75-stage LUT-mapped ring oscillator;
the compact :class:`repro.sensors.ring_oscillator.RingOscillator` model
maps threshold shift to frequency with the alpha-power law.  This
module closes the loop: it builds an *actual* CMOS ring oscillator
netlist, simulates it in the time domain, measures its oscillation
frequency from the waveform, and lets tests cross-validate the compact
model against the transistor-level one (fresh and BTI-aged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.circuit.mosfet import MosfetParams, NMOS_28NM, PMOS_28NM
from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientResult, transient
from repro.errors import SimulationError


@dataclass(frozen=True)
class RingOscillatorNetlist:
    """A CMOS ring oscillator as a simulated netlist.

    Attributes:
        stages: number of inverter stages (must be odd to oscillate).
        supply_v: oscillator supply.
        nmos / pmos: device parameters of every stage.
        stage_capacitance_f: explicit load capacitance per stage node.
    """

    stages: int = 5
    supply_v: float = 1.0
    nmos: MosfetParams = NMOS_28NM
    pmos: MosfetParams = PMOS_28NM
    stage_capacitance_f: float = 5e-15

    def __post_init__(self) -> None:
        if self.stages < 3 or self.stages % 2 == 0:
            raise SimulationError(
                "a ring oscillator needs an odd stage count >= 3")
        if self.supply_v <= 0.0:
            raise SimulationError("supply_v must be positive")
        if self.stage_capacitance_f <= 0.0:
            raise SimulationError("stage_capacitance_f must be positive")

    def aged(self, delta_vth_v: float) -> "RingOscillatorNetlist":
        """A copy with every device BTI-aged by ``delta_vth_v``."""
        if delta_vth_v < 0.0:
            raise SimulationError("delta_vth_v must be non-negative")
        from dataclasses import replace
        return replace(self,
                       nmos=self.nmos.with_vth_shift(delta_vth_v),
                       pmos=self.pmos.with_vth_shift(delta_vth_v))

    def build(self) -> Circuit:
        """Construct the netlist (nodes ``n0`` .. ``n{stages-1}``)."""
        circuit = Circuit(f"{self.stages}-stage ring oscillator")
        circuit.add_voltage_source("vdd", "vdd", "gnd", self.supply_v)
        for stage in range(self.stages):
            node_in = f"n{stage}"
            node_out = f"n{(stage + 1) % self.stages}"
            circuit.add_mosfet(f"mp{stage}", node_out, node_in, "vdd",
                               self.pmos)
            circuit.add_mosfet(f"mn{stage}", node_out, node_in, "gnd",
                               self.nmos)
            # Seed alternate initial node voltages so the transient
            # starts from a propagating edge rather than the
            # metastable DC point.
            initial = self.supply_v if stage % 2 == 0 else 0.0
            circuit.add_capacitor(f"c{stage}", node_out, "gnd",
                                  self.stage_capacitance_f,
                                  initial_v=initial)
        return circuit

    def simulation_window(self, n_periods_hint: float = 8.0,
                          points_per_period: int = 60
                          ) -> Tuple[float, float]:
        """``(stop_s, dt_s)`` sized from a first-order delay estimate.

        The estimate is ``stages * C * V / I_sat`` per edge; exposing
        it lets alternative drivers (the seed-engine benchmark,
        :func:`~repro.assist.sweeps.ring_oscillator_fleet`) run the
        exact same time grid.
        """
        i_sat = 0.5 * self.nmos.beta \
            * max(self.supply_v - self.nmos.vth_v, 0.05) ** 2
        stage_delay = self.stage_capacitance_f * self.supply_v / i_sat
        period_estimate = 2.0 * self.stages * stage_delay
        stop = n_periods_hint * period_estimate
        dt = period_estimate / points_per_period
        return stop, dt

    def simulate(self, n_periods_hint: float = 8.0,
                 points_per_period: int = 60) -> TransientResult:
        """Run a transient long enough to observe several periods.

        The run length is sized by :meth:`simulation_window`; the
        measurement then uses only the settled second half of the
        waveform.
        """
        stop, dt = self.simulation_window(n_periods_hint,
                                          points_per_period)
        circuit = self.build()
        return transient(circuit, stop_s=stop, dt_s=dt, from_dc=False)

    def measured_frequency_hz(self,
                              result: Optional[TransientResult] = None
                              ) -> float:
        """Oscillation frequency from rising-edge crossings of node n0.

        Uses the second half of the waveform (start-up discarded) and
        averages the spacing of mid-supply rising crossings.

        Raises:
            SimulationError: if fewer than two rising edges are found
                (the ring is not oscillating, e.g. aged past cutoff).
        """
        result = result or self.simulate()
        wave = result.voltage("n0")
        times = result.times_s
        half = len(wave) // 2
        wave = wave[half:]
        times = times[half:]
        mid = 0.5 * self.supply_v
        above = wave >= mid
        rising = np.nonzero(~above[:-1] & above[1:])[0]
        if len(rising) < 2:
            raise SimulationError(
                "no sustained oscillation observed; the ring may be "
                "aged past cutoff or the run too short")
        # Linear interpolation of every crossing instant at once.
        v0, v1 = wave[rising], wave[rising + 1]
        t0, t1 = times[rising], times[rising + 1]
        crossings = t0 + (mid - v0) / (v1 - v0) * (t1 - t0)
        periods = np.diff(crossings)
        return float(1.0 / periods.mean())

    def frequency_degradation(self, delta_vth_v: float) -> float:
        """Fractional frequency loss of the aged ring vs the fresh one.

        This is the transistor-level counterpart of
        :meth:`repro.sensors.ring_oscillator.RingOscillator.frequency_degradation`,
        measured from actual waveforms.
        """
        fresh = self.measured_frequency_hz()
        aged = self.aged(delta_vth_v).measured_frequency_hz()
        return 1.0 - aged / fresh
