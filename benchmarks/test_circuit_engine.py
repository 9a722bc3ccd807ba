"""Before/after benchmarks for the compiled MNA circuit engine.

Times the seed's per-element Python stamping loop (kept verbatim in
:mod:`benchmarks.seed_circuit`) against the compiled
:class:`~repro.circuit.CompiledCircuit` programs on the two transient
workloads the assist studies lean on -- a 1k-step assist mode-switch
transient and a transistor-level ring-oscillator run.

Timings land in ``BENCH_circuit.json`` at the repo root as medians of
alternating runs (:func:`benchmarks.conftest.alternating_runs`); the
assist and ring tests assert the PR acceptance criteria (>= 5x and
>= 3x respectively, with <= 1e-10 waveform equivalence against the
seed engine checked inside the timed scenarios themselves).

Three record-only entries time a one-row uncondensed
:class:`~repro.circuit.CircuitBatch` against the scalar kernel it would
replace (assist switch, ring, assist DC point), checking the two
agree bit for bit; ``batch_over_scalar`` is the ratio the plan to run
the scalar analyses as one-row batches is judged on.
"""

from __future__ import annotations

import platform
from pathlib import Path

import numpy as np
import pytest

from repro.assist.circuitry import (
    AssistCircuit,
    AssistCircuitConfig,
    mode_switch_waveforms,
)
from repro.assist.modes import AssistMode
from repro.circuit import (
    RingOscillatorNetlist,
    dc_batch,
    transient,
    transient_batch,
)
from repro.circuit.dc import dc_operating_point

from benchmarks.conftest import (
    alternating_runs,
    merge_bench_json,
    run_once,
)
from benchmarks.seed_circuit import seed_transient

RESULTS = {}
SPEEDUP_THRESHOLD_ASSIST = 5.0
SPEEDUP_THRESHOLD_RING = 3.0
EQUIVALENCE_TOLERANCE = 1e-10
#: Alternating runs per side; every timing is the median.
REPS = 7
#: A one-row batch may replace the scalar kernel within this ratio.
ONE_ROW_BAR = 1.2
#: DC solves per timed run of the one-row DC entry.
DC_CALLS = 200


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Merge the collected before/after timings into
    BENCH_circuit.json, so running a subset keeps the other entries."""
    yield
    if not RESULTS:
        return
    header = {
        "suite": "benchmarks/test_circuit_engine.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "units": "seconds, median of alternating runs",
    }
    merge_bench_json(
        Path(__file__).resolve().parent.parent / "BENCH_circuit.json",
        header, RESULTS)


def record(name, after_runs, before_runs, **extra):
    """Store the medians of both sides with every run and pair."""
    before_s = float(np.median(before_runs))
    after_s = float(np.median(after_runs))
    entry = {"before_s": before_s, "after_s": after_s,
             "speedup": before_s / after_s, "reps": len(after_runs),
             "statistic": "median", "before_runs_s": before_runs,
             "after_runs_s": after_runs,
             "pair_speedups": [b / a for a, b in zip(after_runs,
                                                     before_runs)],
             **extra}
    RESULTS[name] = entry
    return entry


def waveform_difference(result, reference):
    """Worst scaled elementwise difference between two transients."""
    assert np.array_equal(result.times_s, reference.times_s)
    a, b = result.solutions, reference.solutions
    assert a.shape == b.shape
    scale = max(float(np.abs(b).max(initial=0.0)), 1.0)
    return float(np.abs(a - b).max(initial=0.0)) / scale


def _scalar_step_closures(from_mode, to_mode, supply_v, switch_at_s):
    """The seed engine's original gate drives: scalar step closures.

    The compiled path gets the array-aware ``np.where`` waveforms; the
    seed path gets the plain branches it historically evaluated per
    step, so its timing reflects the engine it was, not a penalty for
    calling vectorized waveforms 1000 times with scalars.  Both
    produce identical values at every grid point.
    """
    vectorized = mode_switch_waveforms(from_mode, to_mode, supply_v,
                                       switch_at_s)
    closures = {}
    for name, waveform in vectorized.items():
        lo = float(waveform(0.0))
        hi = float(waveform(2.0 * switch_at_s))

        def closure(t, lo=lo, hi=hi):
            return hi if t >= switch_at_s else lo
        closures[name] = closure
    return closures


def test_assist_mode_switch_1k_steps(benchmark):
    """The PR acceptance case: >= 5x on a 1k-step assist transient."""
    config = AssistCircuitConfig(n_loads=16)
    stop_s, dt_s = 200e-9, 0.2e-9
    from_mode, to_mode = AssistMode.NORMAL, AssistMode.EM_RECOVERY
    n_steps = int(round(stop_s / dt_s))

    def run_compiled():
        assist = AssistCircuit(config)
        return assist.mode_switch_transient(from_mode, to_mode,
                                            stop_s=stop_s, dt_s=dt_s)

    def run_seed():
        assist = AssistCircuit(config)
        waveforms = _scalar_step_closures(from_mode, to_mode,
                                          config.supply_v, 5e-9)
        assist.set_mode(from_mode)
        return seed_transient(assist.circuit, stop_s=stop_s, dt_s=dt_s,
                              waveforms=waveforms)

    after_runs, before_runs, after, before = alternating_runs(
        run_compiled, run_seed, REPS)
    assert waveform_difference(after, before) <= EQUIVALENCE_TOLERANCE
    entry = record(
        "circuit_assist_mode_switch_1k_steps", after_runs, before_runs,
        n_steps=n_steps, n_unknowns=after.solutions.shape[1])
    entry["steps_per_s_before"] = n_steps / entry["before_s"]
    entry["steps_per_s_after"] = n_steps / entry["after_s"]
    run_once(benchmark, run_compiled)
    assert entry["speedup"] >= SPEEDUP_THRESHOLD_ASSIST


def test_ring_oscillator_simulate(benchmark):
    """The PR acceptance case: >= 3x on a ring-oscillator simulate()."""
    netlist = RingOscillatorNetlist(stages=7)
    stop_s, dt_s = netlist.simulation_window()
    n_steps = int(round(stop_s / dt_s))

    def run_compiled():
        return netlist.simulate()

    def run_seed():
        return seed_transient(netlist.build(), stop_s=stop_s,
                              dt_s=dt_s, from_dc=False)

    after_runs, before_runs, after, before = alternating_runs(
        run_compiled, run_seed, REPS)
    assert waveform_difference(after, before) <= EQUIVALENCE_TOLERANCE
    frequency = netlist.measured_frequency_hz(after)
    entry = record(
        "circuit_ring_oscillator_simulate", after_runs, before_runs,
        stages=netlist.stages, n_steps=n_steps,
        measured_frequency_hz=frequency)
    entry["steps_per_s_before"] = n_steps / entry["before_s"]
    entry["steps_per_s_after"] = n_steps / entry["after_s"]
    run_once(benchmark, run_compiled)
    assert entry["speedup"] >= SPEEDUP_THRESHOLD_RING


def _one_row_entry(name, scalar, batch, same, setup=None, **extra):
    """Record a one-row batch (after) against the scalar kernel
    (before), on fresh inputs from ``setup`` when given; ``same``
    checks that the two results agree bit for bit."""
    after_runs, before_runs, after, before = alternating_runs(
        batch, scalar, REPS, after_setup=setup, before_setup=setup)
    assert same(after, before)
    entry = record(name, after_runs, before_runs, condense=False,
                   **extra)
    ratio = entry["after_s"] / entry["before_s"]
    entry.update(batch_over_scalar=ratio, one_row_bar=ONE_ROW_BAR,
                 within_one_row_bar=ratio <= ONE_ROW_BAR)
    return entry


def _same_transient(a, b):
    return np.array_equal(a.times_s, b.times_s) \
        and np.array_equal(a.solutions, b.solutions)


def test_one_row_batch_assist_switch(benchmark):
    """Record-only: the 1k-step assist switch, one-row batch vs scalar."""
    config = AssistCircuitConfig(n_loads=16)
    stop_s, dt_s = 200e-9, 0.2e-9
    waveforms = mode_switch_waveforms(AssistMode.NORMAL,
                                      AssistMode.EM_RECOVERY,
                                      config.supply_v, 5e-9)

    def setup():
        assist = AssistCircuit(config)
        assist.set_mode(AssistMode.NORMAL)
        return assist.circuit

    def scalar(circuit):
        return transient(circuit, stop_s=stop_s, dt_s=dt_s,
                         waveforms=waveforms)

    def batch(circuit):
        return transient_batch([circuit], stop_s=stop_s, dt_s=dt_s,
                               waveforms=waveforms, condense=False)[0]

    _one_row_entry("circuit_one_row_batch_assist_switch", scalar, batch,
                   _same_transient, setup,
                   n_steps=int(round(stop_s / dt_s)))
    run_once(benchmark, lambda: batch(setup()))


def test_one_row_batch_ring(benchmark):
    """Record-only: the 7-stage ring transient, one-row batch vs
    scalar."""
    netlist = RingOscillatorNetlist(stages=7)
    stop_s, dt_s = netlist.simulation_window()

    def scalar(circuit):
        return transient(circuit, stop_s=stop_s, dt_s=dt_s,
                         from_dc=False)

    def batch(circuit):
        return transient_batch([circuit], stop_s=stop_s, dt_s=dt_s,
                               from_dc=False, condense=False)[0]

    _one_row_entry("circuit_one_row_batch_ring", scalar, batch,
                   _same_transient, netlist.build,
                   stages=netlist.stages,
                   n_steps=int(round(stop_s / dt_s)))
    run_once(benchmark, lambda: batch(netlist.build()))


def test_one_row_batch_dc_point(benchmark):
    """Record-only: the assist DC operating point, one-row batch vs
    scalar (``DC_CALLS`` solves per timed run, far above the timer's
    resolution)."""
    circuit = AssistCircuit(AssistCircuitConfig(n_loads=16)).circuit

    def scalar():
        return [dc_operating_point(circuit) for _ in range(DC_CALLS)][-1]

    def batch():
        return [dc_batch([circuit], condense=False)[0]
                for _ in range(DC_CALLS)][-1]

    def same(a, b):
        return np.array_equal(a.solution, b.solution) \
            and a.iterations == b.iterations

    entry = _one_row_entry("circuit_one_row_batch_dc_point", scalar,
                           batch, same, calls_per_run=DC_CALLS)
    entry["per_call_s_before"] = entry["before_s"] / DC_CALLS
    entry["per_call_s_after"] = entry["after_s"] / DC_CALLS
    run_once(benchmark, batch)
