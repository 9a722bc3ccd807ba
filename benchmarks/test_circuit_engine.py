"""Before/after benchmarks for the compiled MNA circuit engine.

Times the seed's per-element Python stamping loop (kept verbatim in
:mod:`benchmarks.seed_circuit`) against the compiled
:class:`~repro.circuit.CompiledCircuit` programs on the two transient
workloads the assist studies lean on -- a 1k-step assist mode-switch
transient and a transistor-level ring-oscillator run.

Timings land in ``BENCH_circuit.json`` at the repo root; the assist
and ring tests assert the PR acceptance criteria (>= 5x and >= 3x
respectively, with <= 1e-10 waveform equivalence against the seed
engine checked inside the timed scenarios themselves).
"""

from __future__ import annotations

import gc
import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.assist.circuitry import (
    AssistCircuit,
    AssistCircuitConfig,
    mode_switch_waveforms,
)
from repro.assist.modes import AssistMode
from repro.circuit import RingOscillatorNetlist, transient

from benchmarks.conftest import run_once
from benchmarks.seed_circuit import seed_transient

RESULTS = {}
SPEEDUP_THRESHOLD_ASSIST = 5.0
SPEEDUP_THRESHOLD_RING = 3.0
EQUIVALENCE_TOLERANCE = 1e-10


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Dump the collected before/after timings to BENCH_circuit.json."""
    yield
    if not RESULTS:
        return
    payload = {
        "suite": "benchmarks/test_circuit_engine.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "units": "seconds, best of the recorded repetitions",
        "timings": RESULTS,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_circuit.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def best_of(fn, reps):
    """Best wall-clock of ``reps`` runs, plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def record(name, before_s, after_s, **extra):
    entry = {"before_s": before_s, "after_s": after_s,
             "speedup": before_s / after_s, **extra}
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

    # Interleave the two timed paths so machine-speed drift inflates
    # both sides alike instead of skewing the ratio.
    after_s = before_s = float("inf")
    for _ in range(3):
        a, after = best_of(run_compiled, reps=3)
        b, before = best_of(run_seed, reps=1)
        after_s, before_s = min(after_s, a), min(before_s, b)
    assert waveform_difference(after, before) <= EQUIVALENCE_TOLERANCE
    entry = record(
        "circuit_assist_mode_switch_1k_steps", before_s, after_s,
        n_steps=n_steps, n_unknowns=after.solutions.shape[1],
        steps_per_s_before=n_steps / before_s,
        steps_per_s_after=n_steps / after_s)
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

    after_s = before_s = float("inf")
    for _ in range(3):
        a, after = best_of(run_compiled, reps=2)
        b, before = best_of(run_seed, reps=1)
        after_s, before_s = min(after_s, a), min(before_s, b)
    assert waveform_difference(after, before) <= EQUIVALENCE_TOLERANCE
    frequency = netlist.measured_frequency_hz(after)
    entry = record(
        "circuit_ring_oscillator_simulate", before_s, after_s,
        stages=netlist.stages, n_steps=n_steps,
        measured_frequency_hz=frequency,
        steps_per_s_before=n_steps / before_s,
        steps_per_s_after=n_steps / after_s)
    run_once(benchmark, run_compiled)
    assert entry["speedup"] >= SPEEDUP_THRESHOLD_RING

