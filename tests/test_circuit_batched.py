"""Equivalence properties of the batched-grid MNA engine.

The batched engine (:mod:`repro.circuit.batched`) advances every
parameter-grid point of a same-topology population in one tensor
sweep.  Its contract against the per-point compiled engine comes in
two strengths: with ``condense=False`` the stacked solve reproduces
each solo run *bit for bit* (same getrf/getrs arithmetic, same Newton
control flow under per-row masks); with source condensation on, the
reduced elimination order differs, so agreement is within LAPACK
roundoff -- pinned here at 1e-12 over the Fig. 10 grid.  A crafted
slow-converging row checks the per-row convergence masks: one damped
row must not perturb (or stall) the rest of the batch.  The Newton
step has a whole-batch branch (every row active and solved) and a
masked per-row branch; ``TestNewtonBranches`` pins that both give the
same bits, and that a singular row takes the per-row fallback solve.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.assist.circuitry import (
    AssistCircuit,
    AssistCircuitConfig,
    mode_switch_waveforms,
)
from repro.assist.modes import AssistMode
from repro.circuit import (
    Circuit,
    CircuitBatch,
    NMOS_28NM,
    RingOscillatorNetlist,
    dc_batch,
    transient,
    transient_batch,
)
from repro.circuit.dc import dc_operating_point
from repro.errors import ConvergenceError
from repro.solvers import cache_counters

CONDENSED_TOL = 1e-12

#: Fig. 10 load-grid sizes, including the paper's 1..5 range.
LOAD_GRID = (1, 2, 3, 4, 5, 8)


def nmos_amplifier(rd_ohms: float, vin_v: float) -> Circuit:
    circuit = Circuit(f"nmos amplifier rd={rd_ohms:g} vin={vin_v:g}")
    circuit.add_voltage_source("vdd", "vdd", "gnd", 1.0)
    circuit.add_voltage_source("vin", "g", "gnd", vin_v)
    circuit.add_resistor("rd", "vdd", "d", rd_ohms)
    circuit.add_mosfet("m1", "d", "g", "gnd", NMOS_28NM)
    circuit.add_capacitor("cl", "d", "gnd", 10e-15)
    return circuit


def source_follower(leak_s: float, title: str) -> Circuit:
    """Node ``n`` sees only MOSFET channels: with ``leak_s = 0`` both
    devices are off at the all-zero start and its MNA row is empty, so
    the Jacobian is exactly singular until the follower turns on."""
    params = replace(NMOS_28NM, leak_s=leak_s)
    circuit = Circuit(title)
    circuit.add_voltage_source("vdd", "vdd", "gnd", 1.0)
    circuit.add_mosfet("m1", "vdd", "vdd", "n", params)
    circuit.add_mosfet("m2", "n", "gnd", "gnd", params)
    circuit.add_capacitor("c1", "vdd", "gnd", 1e-15)
    return circuit


#: Leakages of a three-row follower batch; the middle row is singular.
FOLLOWER_LEAKS = (1e-9, 0.0, 2e-9)


def followers():
    return [source_follower(leak, f"follower leak={leak:g}")
            for leak in FOLLOWER_LEAKS]


def assist_cells(modes=None):
    """One assist cell per Fig. 10 grid point, set to ``modes``."""
    cells = [AssistCircuit(AssistCircuitConfig(n_loads=n))
             for n in LOAD_GRID]
    if modes is not None:
        for cell in cells:
            cell.set_mode(modes)
    return cells


class TestBatchedDc:
    def test_fig10_grid_matches_per_point_within_tolerance(self):
        cells = assist_cells(AssistMode.NORMAL)
        batched = dc_batch([cell.circuit for cell in cells])
        for cell, solution in zip(assist_cells(AssistMode.NORMAL),
                                  batched):
            reference = dc_operating_point(cell.circuit)
            assert np.max(np.abs(solution.solution
                                 - reference.solution)) \
                <= CONDENSED_TOL

    def test_uncondensed_grid_is_bitwise(self):
        cells = assist_cells(AssistMode.NORMAL)
        batched = dc_batch([cell.circuit for cell in cells],
                           condense=False)
        for cell, solution in zip(assist_cells(AssistMode.NORMAL),
                                  batched):
            reference = dc_operating_point(cell.circuit)
            assert np.array_equal(solution.solution,
                                  reference.solution)
            assert solution.iterations == reference.iterations

    def test_slow_converging_row_does_not_perturb_the_batch(self):
        # The 5 V gate drive forces repeated damped Newton steps on
        # one row while its neighbours converge in a handful of
        # iterations; per-row masks must keep every row identical to
        # its solo run anyway.
        grid = [(20e3, 0.55), (20e3, 0.35), (5e3, 5.0), (40e3, 0.75)]
        circuits = [nmos_amplifier(rd, vin) for rd, vin in grid]
        batched = dc_batch(circuits, condense=False)
        iteration_counts = []
        for (rd, vin), solution in zip(grid, batched):
            reference = dc_operating_point(nmos_amplifier(rd, vin))
            assert np.array_equal(solution.solution,
                                  reference.solution)
            assert solution.iterations == reference.iterations
            iteration_counts.append(solution.iterations)
        # The crafted row really is slower -- otherwise this test
        # would not exercise the convergence masks at all.
        assert max(iteration_counts) > min(iteration_counts)

    def test_counts_batched_solves(self):
        before = cache_counters().get("circuit.lu.batched",
                                      {"batched_solves": 0,
                                       "batched_rows": 0})
        # The totals must survive the batch itself: built, used and
        # dropped inside the call, its traffic still lands in the
        # durable per-name counters sweep telemetry reads.
        dc_batch([cell.circuit for cell in assist_cells(
            AssistMode.NORMAL)])
        after = cache_counters()["circuit.lu.batched"]
        assert after["batched_solves"] > before["batched_solves"]
        assert after["batched_rows"] - before["batched_rows"] \
            >= len(LOAD_GRID)


class TestBatchedTransient:
    def test_mode_switch_grid_matches_per_point(self):
        waveforms = mode_switch_waveforms(
            AssistMode.NORMAL, AssistMode.BTI_RECOVERY,
            AssistCircuitConfig().supply_v, switch_at_s=2e-9)
        cells = assist_cells(AssistMode.NORMAL)
        batched = transient_batch([cell.circuit for cell in cells],
                                  stop_s=20e-9, dt_s=0.4e-9,
                                  waveforms=waveforms)
        for cell, result in zip(assist_cells(AssistMode.NORMAL),
                                batched):
            reference = transient(cell.circuit, 20e-9, 0.4e-9,
                                  waveforms=waveforms)
            assert np.array_equal(result.times_s, reference.times_s)
            assert np.max(np.abs(result.solutions
                                 - reference.solutions)) \
                <= CONDENSED_TOL

    def test_uncondensed_mode_switch_is_bitwise(self):
        waveforms = mode_switch_waveforms(
            AssistMode.NORMAL, AssistMode.BTI_RECOVERY,
            AssistCircuitConfig().supply_v, switch_at_s=2e-9)
        cells = assist_cells(AssistMode.NORMAL)
        batched = transient_batch([cell.circuit for cell in cells],
                                  stop_s=20e-9, dt_s=0.4e-9,
                                  waveforms=waveforms, condense=False)
        for cell, result in zip(assist_cells(AssistMode.NORMAL),
                                batched):
            reference = transient(cell.circuit, 20e-9, 0.4e-9,
                                  waveforms=waveforms)
            assert np.array_equal(result.solutions,
                                  reference.solutions)

    def test_ring_rows_with_per_row_windows_are_bitwise(self):
        # Rings condense nothing, so the batched rows must reproduce
        # each solo transient exactly -- including per-row (stop, dt)
        # windows, which share the step count by construction.
        netlists = [RingOscillatorNetlist(stages=3).aged(shift)
                    for shift in (0.0, 0.03, 0.08)]
        circuits = [net.build() for net in netlists]
        windows = [net.simulation_window() for net in netlists]
        batched = transient_batch(
            circuits,
            stop_s=[stop for stop, _ in windows],
            dt_s=[dt for _, dt in windows],
            from_dc=False)
        for net, result in zip(netlists, batched):
            solo = net.build()
            stop_s, dt_s = net.simulation_window()
            reference = transient(solo, stop_s, dt_s, from_dc=False)
            assert np.array_equal(result.times_s, reference.times_s)
            assert np.array_equal(result.solutions,
                                  reference.solutions)

    def test_rejects_mismatched_step_counts(self):
        circuits = [RingOscillatorNetlist(stages=3).build()
                    for _ in range(2)]
        with pytest.raises(ValueError, match="step count"):
            transient_batch(circuits, stop_s=[10e-9, 10e-9],
                            dt_s=[0.1e-9, 0.2e-9], from_dc=False)


class TestBatchValidation:
    def test_rejects_heterogeneous_topologies(self):
        mixed = [RingOscillatorNetlist(stages=3).build(),
                 RingOscillatorNetlist(stages=5).build()]
        with pytest.raises(ValueError,
                           match="dc_operating_point / transient"):
            CircuitBatch(mixed)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            CircuitBatch([])

    def test_rejects_unknown_waveform_source(self):
        circuits = [nmos_amplifier(20e3, 0.55)]
        with pytest.raises(ValueError, match="no source"):
            transient_batch(circuits, stop_s=1e-9, dt_s=0.1e-9,
                            waveforms={"nope": lambda t: 0.0})


class TestNewtonBranches:
    def test_singular_dc_row_takes_the_fallback_and_gmin_ladder(
            self, monkeypatch):
        fallbacks = []
        original = CircuitBatch._solve_rows_fallback

        def spy(self, mats, rhs, rows, dc_mode, failed, active):
            sols, solved = original(self, mats, rhs, rows, dc_mode,
                                    failed, active)
            fallbacks.append((rows.tolist(), solved.tolist()))
            return sols, solved

        monkeypatch.setattr(CircuitBatch, "_solve_rows_fallback", spy)
        batched = dc_batch(followers(), condense=False)
        # The stacked solve of all three rows fails; only the singular
        # middle row drops out of it.
        assert fallbacks[0] == ([0, 1, 2], [0, 2])
        for circuit, solution in zip(followers(), batched):
            reference = dc_operating_point(circuit)
            assert np.array_equal(solution.solution, reference.solution)
            assert solution.iterations == reference.iterations
        # The dropped row really went through the gmin ladder.
        assert batched[1].iterations > batched[0].iterations

    def test_singular_transient_row_raises_naming_its_circuit(self):
        with pytest.raises(ConvergenceError,
                           match="'follower leak=0' is singular"):
            transient_batch(followers(), stop_s=1e-9, dt_s=0.1e-9,
                            from_dc=False)
        with pytest.raises(ConvergenceError,
                           match="'follower leak=0' is singular"):
            transient(followers()[1], 1e-9, 0.1e-9, from_dc=False)

    @pytest.mark.parametrize("condense", [True, False])
    def test_one_row_batch_equals_row_zero_of_a_wide_batch(self,
                                                           condense):
        # A one-row batch only ever takes the whole-batch branch; in a
        # 32-row batch of different load sizes the rows converge at
        # different iterations, so row 0 also runs masked iterations.
        waveforms = mode_switch_waveforms(
            AssistMode.NORMAL, AssistMode.BTI_RECOVERY,
            AssistCircuitConfig().supply_v, switch_at_s=2e-9)

        def cells(loads):
            circuits = []
            for n_loads in loads:
                cell = AssistCircuit(AssistCircuitConfig(n_loads=n_loads))
                cell.set_mode(AssistMode.NORMAL)
                circuits.append(cell.circuit)
            return circuits

        wide_loads = [3] + list(range(1, 32))
        one_dc = dc_batch(cells([3]), condense=condense)[0]
        wide_dc = dc_batch(cells(wide_loads), condense=condense)[0]
        assert np.array_equal(one_dc.solution, wide_dc.solution)
        assert one_dc.iterations == wide_dc.iterations

        one = transient_batch(cells([3]), stop_s=20e-9, dt_s=0.4e-9,
                              waveforms=waveforms, condense=condense)[0]
        before = cache_counters()["circuit.lu.batched"]
        wide = transient_batch(cells(wide_loads), stop_s=20e-9,
                               dt_s=0.4e-9, waveforms=waveforms,
                               condense=condense)[0]
        after = cache_counters()["circuit.lu.batched"]
        assert np.array_equal(one.solutions, wide.solutions)
        # Some stacked solves covered fewer than all 32 rows.
        solves = after["batched_solves"] - before["batched_solves"]
        rows = after["batched_rows"] - before["batched_rows"]
        assert rows < 32 * solves
