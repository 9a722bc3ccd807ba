"""Equivalence properties of the compiled MNA engine vs the seed loop.

The compiled engine (:mod:`repro.circuit.compiled`) must be *bit*
identical to the seed's per-element stamping loop, which is kept
verbatim in :mod:`benchmarks.seed_circuit`.  These tests drive both
engines over the netlist families the repo actually uses -- linear RC,
the assist circuit's mode switches, transistor-level ring oscillators
-- including waveform-driven current sources and ``from_dc=False``
starts, and assert exact array equality plus matching mutated netlist
state.
"""

import numpy as np
import pytest

from benchmarks.seed_circuit import seed_dc_operating_point, seed_transient
from repro.assist.circuitry import (
    AssistCircuit,
    AssistCircuitConfig,
    mode_switch_waveforms,
)
from repro.assist.modes import AssistMode
from repro.circuit import (
    Circuit,
    RingOscillatorNetlist,
    evaluate_waveform_grid,
    transient,
)
from repro.circuit.dc import dc_operating_point


def rc_lowpass() -> Circuit:
    circuit = Circuit("rc lowpass")
    circuit.add_voltage_source("vs", "in", "gnd", 0.5)
    circuit.add_resistor("r1", "in", "out", 10e3)
    circuit.add_capacitor("c1", "out", "gnd", 1e-9)
    return circuit


def current_driven_rc() -> Circuit:
    circuit = Circuit("current-driven rc")
    circuit.add_current_source("idrive", "gnd", "out", 10e-6)
    circuit.add_resistor("r1", "out", "gnd", 50e3)
    circuit.add_capacitor("c1", "out", "gnd", 2e-9)
    return circuit


def assert_transients_equal(result, reference):
    assert np.array_equal(result.times_s, reference.times_s)
    assert np.array_equal(result.solutions, reference.solutions)


class TestDcEquivalence:
    def test_rc_operating_point(self):
        compiled = dc_operating_point(rc_lowpass())
        seeded = seed_dc_operating_point(rc_lowpass())
        assert np.array_equal(compiled.solution, seeded.solution)
        assert compiled.iterations == seeded.iterations

    @pytest.mark.parametrize("mode", list(AssistMode))
    def test_assist_modes(self, mode):
        compiled = AssistCircuit(AssistCircuitConfig())
        compiled.set_mode(mode)
        seeded = AssistCircuit(AssistCircuitConfig())
        seeded.set_mode(mode)
        a = dc_operating_point(compiled.circuit)
        b = seed_dc_operating_point(seeded.circuit)
        assert np.array_equal(a.solution, b.solution)
        assert a.iterations == b.iterations


class TestTransientEquivalence:
    def test_rc_step_waveform(self):
        waveforms = {"vs": lambda t: 1.0 if t >= 2e-6 else 0.0}
        compiled = transient(rc_lowpass(), stop_s=20e-6, dt_s=0.2e-6,
                             waveforms=waveforms)
        seeded = seed_transient(rc_lowpass(), stop_s=20e-6,
                                dt_s=0.2e-6, waveforms=waveforms)
        assert_transients_equal(compiled, seeded)

    def test_current_source_waveform(self):
        # Waveform-driven *current* sources exercise the other RHS
        # branch of the compiled source grid.
        waveforms = {"idrive":
                     lambda t: 20e-6 * np.sin(2e5 * np.asarray(t))}
        compiled = transient(current_driven_rc(), stop_s=50e-6,
                             dt_s=0.5e-6, waveforms=waveforms)
        seeded = seed_transient(current_driven_rc(), stop_s=50e-6,
                                dt_s=0.5e-6, waveforms=waveforms)
        assert_transients_equal(compiled, seeded)

    def test_assist_mode_switch(self):
        config = AssistCircuitConfig(n_loads=2)
        compiled = AssistCircuit(config)
        result = compiled.mode_switch_transient(
            AssistMode.NORMAL, AssistMode.BTI_RECOVERY,
            stop_s=40e-9, dt_s=0.4e-9)

        seeded = AssistCircuit(config)
        waveforms = mode_switch_waveforms(
            AssistMode.NORMAL, AssistMode.BTI_RECOVERY,
            config.supply_v, 5e-9)
        seeded.set_mode(AssistMode.NORMAL)
        reference = seed_transient(seeded.circuit, stop_s=40e-9,
                                   dt_s=0.4e-9, waveforms=waveforms)
        assert_transients_equal(result, reference)

    def test_ring_oscillator_from_zero_state(self):
        # from_dc=False starts at the all-zero MNA vector, the path
        # the oscillator uses to break metastability.
        netlist = RingOscillatorNetlist(stages=3)
        stop_s, dt_s = netlist.simulation_window(n_periods_hint=3.0)
        compiled = transient(netlist.build(), stop_s=stop_s,
                             dt_s=dt_s, from_dc=False)
        seeded = seed_transient(netlist.build(), stop_s=stop_s,
                                dt_s=dt_s, from_dc=False)
        assert_transients_equal(compiled, seeded)

    def test_final_netlist_state_matches_seed(self):
        # Both engines must leave the mutated netlist in the same
        # state: sources at the last waveform value, capacitors at
        # their last solved voltage.
        waveforms = {"vs": lambda t: 1.0 if t >= 2e-6 else 0.0}
        compiled_circuit = rc_lowpass()
        seeded_circuit = rc_lowpass()
        transient(compiled_circuit, stop_s=20e-6, dt_s=0.2e-6,
                  waveforms=waveforms)
        seed_transient(seeded_circuit, stop_s=20e-6, dt_s=0.2e-6,
                       waveforms=waveforms)
        assert compiled_circuit.find_voltage_source("vs").volts \
            == seeded_circuit.find_voltage_source("vs").volts
        for a, b in zip(compiled_circuit.capacitors,
                        seeded_circuit.capacitors):
            assert a.voltage_v == b.voltage_v


class TestWaveformGrid:
    def test_vectorized_waveform_single_call(self):
        calls = []

        def waveform(t):
            calls.append(np.ndim(t))
            return np.where(np.asarray(t) >= 1.0, 2.0, -1.0)

        times = np.linspace(0.0, 2.0, 11)
        grid = evaluate_waveform_grid(waveform, times)
        assert calls == [1]
        assert np.array_equal(grid,
                              np.where(times >= 1.0, 2.0, -1.0))

    def test_scalar_waveform_fallback_matches_per_step(self):
        def waveform(t):
            return 1.0 if t >= 1.0 else 0.0  # scalar-only branch

        times = np.linspace(0.0, 2.0, 9)
        grid = evaluate_waveform_grid(waveform, times)
        assert np.array_equal(
            grid, np.array([waveform(t) for t in times]))

    def test_scalar_returning_waveform_falls_back(self):
        # A waveform that accepts arrays but collapses to a scalar
        # must not be mistaken for an array-aware one.
        times = np.linspace(0.0, 1.0, 5)
        grid = evaluate_waveform_grid(lambda t: 3.0, times)
        assert np.array_equal(grid, np.full(5, 3.0))
