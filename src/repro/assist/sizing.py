"""Load-size vs performance / switching-time exploration (Fig. 10).

The paper sweeps the number of load units behind one assist circuit
and reports two normalized metrics:

* **load delay** rises roughly linearly with load size, because the
  extra current through the fixed-size header/footer devices deepens
  the droop at the load rails (performance follows the alpha-power
  delay law of the reduced swing);
* **mode switching time** falls with load size, but at a slower rate,
  because the larger load conduction helps slew the rail nodes during
  a mode change even though the rail capacitance grows too.

The sweep concludes, as the paper does, that each load has its own
optimal design point: compensating the delay requires upsizing the
header/footer devices, which costs area.

Every load size is the same topology, so the whole sweep runs as rows
of the batched grid engine (:mod:`repro.circuit.batched`): one DC
batch per mode and one stacked switching transient, whatever the
number of points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.assist.circuitry import (
    AssistCircuit,
    AssistCircuitConfig,
    mode_switch_waveforms,
    switching_time_from,
)
from repro.assist.modes import AssistMode
from repro.circuit.batched import dc_batch, transient_batch

#: Alpha-power exponent used for the delay metric.
_ALPHA = 1.3

#: Device threshold used for the delay metric (28 nm presets).
_VTH_V = 0.30


def _alpha_power_delay(swing_v: float) -> float:
    """Relative logic delay at a supply swing (alpha-power law)."""
    overdrive = swing_v - _VTH_V
    if overdrive <= 0.0:
        return float("inf")
    return swing_v / overdrive ** _ALPHA


@dataclass(frozen=True)
class LoadSizingPoint:
    """One point of the Fig. 10 sweep.

    Attributes:
        n_loads: number of parallel load units.
        load_swing_v: voltage across the load bank in Normal mode.
        delay_normalized: load delay relative to the 1-load point.
        switching_time_s: Normal -> BTI mode switching time.
        switching_time_normalized: relative to the 1-load point.
    """

    n_loads: int
    load_swing_v: float
    delay_normalized: float
    switching_time_s: float
    switching_time_normalized: float


def sweep_load_size(n_loads_values: Sequence[int] = (1, 2, 3, 4, 5),
                    base_config: Optional[AssistCircuitConfig] = None,
                    ) -> List[LoadSizingPoint]:
    """Reproduce the Fig. 10 sweep.

    Args:
        n_loads_values: load sizes to evaluate (the paper uses 1..5).
        base_config: circuit configuration template; only ``n_loads``
            is varied.

    Returns:
        One :class:`LoadSizingPoint` per requested size, normalized to
        the first entry.
    """
    if not n_loads_values:
        raise ValueError("n_loads_values must not be empty")
    base = base_config or AssistCircuitConfig()
    switch_at_s = 5e-9
    n_loads_values = list(n_loads_values)
    cells = [AssistCircuit(replace(base, n_loads=n))
             for n in n_loads_values]
    circuits = [cell.circuit for cell in cells]
    for cell in cells:
        cell.set_mode(AssistMode.NORMAL)
    normals = dc_batch(circuits)
    for cell in cells:
        cell.set_mode(AssistMode.BTI_RECOVERY)
    targets = dc_batch(circuits)
    waveforms = mode_switch_waveforms(AssistMode.NORMAL,
                                      AssistMode.BTI_RECOVERY,
                                      base.supply_v, switch_at_s)
    for cell in cells:
        cell.set_mode(AssistMode.NORMAL)
    results = transient_batch(circuits, stop_s=100e-9, dt_s=0.2e-9,
                              waveforms=waveforms)
    swings = [normal.voltage("lvdd") - normal.voltage("lvss")
              for normal in normals]
    delays = [_alpha_power_delay(swing) for swing in swings]
    switching = [switching_time_from(result, target.voltage("lvdd"),
                                     target.voltage("lvss"), switch_at_s)
                 for target, result in zip(targets, results)]
    return [LoadSizingPoint(
        n_loads=n_loads,
        load_swing_v=swing,
        delay_normalized=delay / delays[0],
        switching_time_s=time_s,
        switching_time_normalized=time_s / switching[0],
    ) for n_loads, swing, delay, time_s in zip(n_loads_values, swings,
                                               delays, switching)]
