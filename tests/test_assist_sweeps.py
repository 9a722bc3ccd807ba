"""Tests for repro.assist.sweeps (assist studies on the batched engine).

The golden tests pin each study against the public per-point analyses
it replaces: :class:`~repro.assist.circuitry.AssistCircuit` for the
Fig. 9 / Fig. 10 observables (within LAPACK roundoff for the condensed
assist cell) and per-member aged
:class:`~repro.circuit.oscillator.RingOscillatorNetlist` runs for the
ring fleet (bitwise).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.assist import (
    AssistCircuit,
    AssistCircuitConfig,
    AssistMode,
    FleetMember,
    mode_switch_matrix,
    ring_oscillator_fleet,
    sweep_load_size_pooled,
)
from repro.assist.sizing import _alpha_power_delay
from repro.circuit import RingOscillatorNetlist
from repro.sensors import RingOscillator
from repro.solvers import task_seed_sequence

TOLERANCE = 1e-10


def per_point_load_sweep(loads, config):
    """``(n_loads, swing, delay, switching)`` of each point, one
    :class:`AssistCircuit` at a time."""
    rows = []
    for n_loads in loads:
        circuit = AssistCircuit(replace(config, n_loads=n_loads))
        swing = circuit.solve_mode(AssistMode.NORMAL).load_swing_v
        switching = circuit.switching_time_s(AssistMode.NORMAL,
                                             AssistMode.BTI_RECOVERY)
        rows.append((n_loads, swing, _alpha_power_delay(swing),
                     switching))
    return rows


def assert_load_sweep_matches_per_point(points, loads, config):
    rows = per_point_load_sweep(loads, config)
    delay_ref, switching_ref = rows[0][2], rows[0][3]
    assert len(points) == len(rows)
    for point, (n_loads, swing, delay, switching) in zip(points, rows):
        assert point.n_loads == n_loads
        assert abs(point.load_swing_v - swing) <= TOLERANCE
        assert abs(point.delay_normalized - delay / delay_ref) \
            <= TOLERANCE
        assert abs(point.switching_time_s - switching) <= TOLERANCE
        assert abs(point.switching_time_normalized
                   - switching / switching_ref) <= TOLERANCE


def per_member_fleet(n_rings, delta_vth_v, sigma_vth_v, netlist, seed):
    """The fleet one aged netlist at a time, with the same draws."""
    members = []
    for index in range(n_rings):
        rng = np.random.default_rng(task_seed_sequence(seed, index))
        shift = max(delta_vth_v
                    + sigma_vth_v * float(rng.standard_normal()), 0.0)
        members.append(FleetMember(
            index=index, delta_vth_v=shift,
            frequency_hz=netlist.aged(shift).measured_frequency_hz()))
    return members


class TestLoadSizeSweep:
    def test_matches_serial_sweep(self):
        config = AssistCircuitConfig()
        points = sweep_load_size_pooled((1, 2, 3), config)
        assert_load_sweep_matches_per_point(points, (1, 2, 3), config)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sweep_load_size_pooled(())


class TestModeSwitchMatrix:
    def test_covers_all_ordered_pairs(self):
        cells = mode_switch_matrix(stop_s=40e-9, dt_s=0.4e-9)
        pairs = {(cell.from_mode, cell.to_mode) for cell in cells}
        assert len(cells) == 6
        assert all(a != b for a, b in pairs)
        assert pairs == {(a, b) for a in AssistMode for b in AssistMode
                         if a != b}

    def test_bti_entry_switch_settles(self):
        cells = mode_switch_matrix(
            mode_pairs=[(AssistMode.NORMAL, AssistMode.BTI_RECOVERY)],
            stop_s=100e-9, dt_s=0.4e-9)
        (cell,) = cells
        assert np.isfinite(cell.switching_time_s)
        assert cell.switching_time_s > 0.0
        # BTI recovery swaps the load rails: lvdd near ground, lvss
        # near the supply (minus the pass-device droop).
        assert cell.settled_load_vdd_v < 0.5
        assert cell.settled_load_vss_v > 0.5

    def test_rejects_empty_pairs(self):
        with pytest.raises(ValueError):
            mode_switch_matrix(mode_pairs=[])

    def test_rejects_same_mode_pairs(self):
        pairs = [(AssistMode.NORMAL, AssistMode.BTI_RECOVERY),
                 (AssistMode.NORMAL, AssistMode.NORMAL)]
        with pytest.raises(ValueError, match="two different modes"):
            mode_switch_matrix(mode_pairs=pairs)


class TestRingFleet:
    def test_zero_sigma_fleet_is_uniform(self):
        netlist = RingOscillatorNetlist(stages=3)
        fleet = ring_oscillator_fleet(2, delta_vth_v=0.05,
                                      netlist=netlist)
        assert fleet[0].delta_vth_v == fleet[1].delta_vth_v == 0.05
        assert fleet[0].frequency_hz == fleet[1].frequency_hz

    def test_aging_slows_the_fleet(self):
        netlist = RingOscillatorNetlist(stages=3)
        fresh = ring_oscillator_fleet(1, netlist=netlist)
        aged = ring_oscillator_fleet(1, delta_vth_v=0.1,
                                     netlist=netlist)
        assert aged[0].frequency_hz < fresh[0].frequency_hz

    def test_sensor_inversion_roundtrip(self):
        # The compact sensor model inverts the fleet's frequencies
        # back to threshold shifts in one vectorized call.
        netlist = RingOscillatorNetlist(stages=3)
        fleet = ring_oscillator_fleet(3, delta_vth_v=0.03,
                                      sigma_vth_v=0.01,
                                      netlist=netlist, seed=2)
        frequencies = np.array([m.frequency_hz for m in fleet])
        fresh = ring_oscillator_fleet(1, netlist=netlist)[0].frequency_hz
        sensor = RingOscillator(stages=3,
                                fresh_frequency_hz=fresh,
                                supply_v=netlist.supply_v,
                                fresh_vth_v=netlist.nmos.vth_v)
        inferred = sensor.infer_delta_vth_v_array(frequencies)
        scalar = np.array([sensor.infer_delta_vth_v(f)
                           for f in frequencies])
        # numpy's ** and libm's pow may disagree in the last ulp.
        np.testing.assert_allclose(inferred, scalar, rtol=1e-14)
        # The compact law's alpha is not the transistor-level ring's,
        # so the absolute scale differs; the inversion must still be
        # positive and order the members by their true shifts.
        true_shifts = np.array([m.delta_vth_v for m in fleet])
        assert np.all(inferred > 0.0)
        assert np.array_equal(np.argsort(inferred),
                              np.argsort(true_shifts))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ring_oscillator_fleet(0)
        with pytest.raises(ValueError):
            ring_oscillator_fleet(1, sigma_vth_v=-0.1)


class TestBatchedGolden:
    """The batched studies against the per-point public analyses."""

    def test_batched_load_sweep_matches_per_point_circuit(self):
        loads = (1, 2, 4)
        points = sweep_load_size_pooled(loads)
        assert_load_sweep_matches_per_point(points, loads,
                                            AssistCircuitConfig())

    def test_batched_mode_matrix_matches_per_point_circuit(self):
        config = AssistCircuitConfig()
        cells = mode_switch_matrix(config, stop_s=40e-9, dt_s=0.4e-9)
        assert len(cells) == 6
        for cell in cells:
            circuit = AssistCircuit(config)
            target = circuit.solve_mode(cell.to_mode)
            switching = circuit.switching_time_s(
                cell.from_mode, cell.to_mode, stop_s=40e-9, dt_s=0.4e-9)
            assert cell.settled_load_vdd_v == pytest.approx(
                target.load_vdd_v, abs=TOLERANCE)
            assert cell.settled_load_vss_v == pytest.approx(
                target.load_vss_v, abs=TOLERANCE)
            if np.isfinite(switching):
                assert abs(cell.switching_time_s - switching) \
                    <= TOLERANCE
            else:
                assert not np.isfinite(cell.switching_time_s)

    def test_batched_fleet_matches_aged_netlists_bitwise(self):
        netlist = RingOscillatorNetlist(stages=3)
        fleet = ring_oscillator_fleet(4, delta_vth_v=0.02,
                                      sigma_vth_v=0.01, netlist=netlist,
                                      seed=5)
        assert fleet == per_member_fleet(4, 0.02, 0.01, netlist, 5)
        assert [member.index for member in fleet] == [0, 1, 2, 3]
        # The draws must actually differ, or the equality is vacuous.
        assert len({member.delta_vth_v for member in fleet}) == 4
