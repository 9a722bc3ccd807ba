"""Assist-circuit studies at sweep scale (Fig. 9 / Fig. 10 and a
ring-oscillator fleet) on the batched grid engine.

Every Fig. 9 mode-switch cell and every member of a ring-oscillator
fleet is an independent netlist build plus DC / transient solve over
the *same topology*, which makes these studies ideal for the batched
grid engine (:mod:`repro.circuit.batched`): all points stack along a
leading batch axis and advance through one tensor Newton iteration
per step instead of one simulation per point.  Observables match the
per-point :class:`~repro.assist.circuitry.AssistCircuit` and
:class:`~repro.circuit.oscillator.RingOscillatorNetlist` analyses --
bitwise for the uncondensed ring fleet, within 1e-10 for the
condensed assist cell.

Fleet member ``k`` draws its process variation from
:func:`repro.solvers.task_seed_sequence` ``(seed, k)``, so a fleet is
reproducible member by member whatever its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.assist.circuitry import (
    AssistCircuit,
    AssistCircuitConfig,
    _require_mode_change,
    mode_switch_waveforms,
    switching_time_from,
)
from repro.assist.modes import AssistMode
from repro.assist.sizing import sweep_load_size
from repro.circuit.batched import dc_batch, transient_batch
from repro.circuit.oscillator import RingOscillatorNetlist
from repro.solvers import task_seed_sequence

# -- Fig. 10: load-size trade-off ------------------------------------------

#: :func:`repro.assist.sizing.sweep_load_size` under its older name.
sweep_load_size_pooled = sweep_load_size


# -- Fig. 9: mode-switch matrix --------------------------------------------


@dataclass(frozen=True)
class ModeSwitchCell:
    """One ordered mode transition of the Fig. 9 matrix.

    Attributes:
        from_mode / to_mode: the transition endpoints.
        switching_time_s: settle time of both load rails after the
            switch instant (``inf`` if a rail never settles).
        settled_load_vdd_v / settled_load_vss_v: the target-mode DC
            rail voltages the transient settles towards.
    """

    from_mode: AssistMode
    to_mode: AssistMode
    switching_time_s: float
    settled_load_vdd_v: float
    settled_load_vss_v: float


def mode_switch_matrix(
        config: Optional[AssistCircuitConfig] = None,
        mode_pairs: Optional[Sequence[Tuple[AssistMode,
                                            AssistMode]]] = None, *,
        stop_s: float = 100e-9,
        dt_s: float = 0.2e-9,
        switch_at_s: float = 5e-9,
) -> List[ModeSwitchCell]:
    """Switching times of every ordered mode transition.

    The paper's Fig. 9 exercises Normal <-> EM and Normal <-> BTI
    transitions; by default all six ordered pairs of the three modes
    are solved.  Every cell shares one topology and differs only in
    gate-source values, so the whole matrix runs as one DC batch and
    one batched transient with per-cell gate waveforms.  A pair whose
    two modes are equal raises ``ValueError``.
    """
    if mode_pairs is None:
        mode_pairs = list(permutations(AssistMode, 2))
    if not mode_pairs:
        raise ValueError("mode_pairs must not be empty")
    for from_mode, to_mode in mode_pairs:
        _require_mode_change(from_mode, to_mode)
    cfg = config or AssistCircuitConfig()
    cells = [AssistCircuit(cfg) for _ in mode_pairs]
    circuits = [cell.circuit for cell in cells]
    for cell, (_, to_mode) in zip(cells, mode_pairs):
        cell.set_mode(to_mode)
    targets = dc_batch(circuits)
    wave_rows = [mode_switch_waveforms(from_mode, to_mode,
                                       cfg.supply_v, switch_at_s)
                 for from_mode, to_mode in mode_pairs]
    for cell, (from_mode, _) in zip(cells, mode_pairs):
        cell.set_mode(from_mode)
    results = transient_batch(circuits, stop_s=stop_s, dt_s=dt_s,
                              waveforms=wave_rows)
    matrix = []
    for (from_mode, to_mode), target, result in zip(mode_pairs,
                                                    targets, results):
        load_vdd = target.voltage("lvdd")
        load_vss = target.voltage("lvss")
        matrix.append(ModeSwitchCell(
            from_mode=from_mode,
            to_mode=to_mode,
            switching_time_s=switching_time_from(result, load_vdd,
                                                 load_vss, switch_at_s),
            settled_load_vdd_v=load_vdd,
            settled_load_vss_v=load_vss,
        ))
    return matrix


# -- ring-oscillator fleet -------------------------------------------------


@dataclass(frozen=True)
class FleetMember:
    """One simulated oscillator of a process-varied fleet.

    Attributes:
        index: position in the fleet (also the seed key).
        delta_vth_v: the member's effective BTI shift after process
            variation (clamped non-negative).
        frequency_hz: measured oscillation frequency of the aged ring.
    """

    index: int
    delta_vth_v: float
    frequency_hz: float


def ring_oscillator_fleet(
        n_rings: int,
        delta_vth_v: float = 0.0,
        sigma_vth_v: float = 0.0,
        netlist: Optional[RingOscillatorNetlist] = None, *,
        seed: int = 0,
) -> List[FleetMember]:
    """Simulate a fleet of process-varied transistor-level rings.

    Each member ages the base ``netlist`` by ``delta_vth_v`` plus a
    member-specific Gaussian draw of width ``sigma_vth_v`` (clamped at
    zero -- :meth:`RingOscillatorNetlist.aged` models wearout, not
    rejuvenation), runs a full transient, and measures the frequency
    from the waveform.  Member ``k``'s draw comes from
    ``task_seed_sequence(seed, k)``.

    The whole fleet advances through one batched transient.  Each aged
    ring shares the base topology; vth shifts enter per row through
    the stamped device parameters, and each row carries its own
    (stop, dt) window from :meth:`simulation_window` (the step count
    is shift-independent, so rows stay in lockstep).  Every member is
    bitwise equal to ``netlist.aged(shift).measured_frequency_hz()``.
    """
    if n_rings < 1:
        raise ValueError("n_rings must be at least 1")
    if sigma_vth_v < 0.0:
        raise ValueError("sigma_vth_v must be non-negative")
    base = netlist or RingOscillatorNetlist()
    shifts = []
    for index in range(n_rings):
        rng = np.random.default_rng(task_seed_sequence(seed, index))
        shift = delta_vth_v + sigma_vth_v * float(rng.standard_normal())
        shifts.append(max(shift, 0.0))
    netlists = [base.aged(shift) for shift in shifts]
    windows = [net.simulation_window() for net in netlists]
    results = transient_batch(
        [net.build() for net in netlists],
        stop_s=[stop for stop, _ in windows],
        dt_s=[dt for _, dt in windows],
        from_dc=False)
    return [FleetMember(index=index, delta_vth_v=shifts[index],
                        frequency_hz=netlists[index]
                        .measured_frequency_hz(results[index]))
            for index in range(n_rings)]
