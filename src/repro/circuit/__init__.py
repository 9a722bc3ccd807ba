"""A small but real circuit simulator (MNA, Newton DC, transient).

This substrate replaces the SPICE + 28 nm FD-SOI PDK flow the paper
used to validate its assist circuitry (Fig. 9 and Fig. 10).  It
implements:

* :class:`~repro.circuit.netlist.Circuit` -- netlist container with
  named nodes;
* linear elements (:class:`~repro.circuit.elements.Resistor`,
  :class:`~repro.circuit.elements.Capacitor`,
  :class:`~repro.circuit.elements.VoltageSource`,
  :class:`~repro.circuit.elements.CurrentSource`);
* a square-law :class:`~repro.circuit.mosfet.Mosfet` with symmetric
  drain/source conduction (needed for the assist circuit's pass
  devices) and channel-length modulation;
* Newton DC analysis with gmin stepping
  (:func:`~repro.circuit.dc.dc_operating_point`), and
* backward-Euler transient analysis with time-varying sources
  (:func:`~repro.circuit.transient.transient`).

Both analyses execute on compiled circuit programs
(:class:`~repro.circuit.compiled.CompiledCircuit`): the netlist is
flattened once into scatter-ready stamp index/value arrays, device
models evaluate through one scalar kernel in plain float arithmetic,
and the dense LU factors are reused through an input-keyed cache.

Parameter-grid studies additionally run through the batched engine
(:class:`~repro.circuit.batched.CircuitBatch`,
:func:`~repro.circuit.batched.dc_batch`,
:func:`~repro.circuit.batched.transient_batch`): every grid point of
a same-topology population advances through one stacked Newton
iteration per step instead of one simulation per point, with the
devices of every row evaluated in one
:class:`~repro.circuit.mosfet.MosfetBank` ufunc pass.
"""

from repro.circuit.batched import CircuitBatch, dc_batch, transient_batch
from repro.circuit.compiled import CompiledCircuit, evaluate_waveform_grid
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.circuit.mosfet import Mosfet, MosfetParams, NMOS_28NM, PMOS_28NM
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.dc import DcSolution, dc_operating_point
from repro.circuit.transient import TransientResult, transient
from repro.circuit.oscillator import RingOscillatorNetlist

__all__ = [
    "RingOscillatorNetlist",
    "Circuit",
    "CircuitBatch",
    "CompiledCircuit",
    "dc_batch",
    "transient_batch",
    "evaluate_waveform_grid",
    "GROUND",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Mosfet",
    "MosfetParams",
    "NMOS_28NM",
    "PMOS_28NM",
    "DcSolution",
    "dc_operating_point",
    "TransientResult",
    "transient",
]
