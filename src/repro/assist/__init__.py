"""The paper's assist circuitry for activating BTI and EM recovery.

Implements the Fig. 8 scheme as a real netlist on top of
:mod:`repro.circuit` and reproduces its published behaviours:

* three operating modes (:class:`~repro.assist.modes.AssistMode`) with
  the device ON/OFF truth table of Fig. 8(b),
* *EM Active Recovery*: the current through the local VDD/VSS grids is
  reversed at the same magnitude while the load keeps operating
  (Fig. 9a),
* *BTI Active Recovery*: the idle load's VDD and VSS nodes are swapped
  -- load-VDD is pulled near VSS and load-VSS near VDD, with the
  ~0.2 V pass-device droop the paper reports (Fig. 9b),
* the load-size vs performance / switching-time trade-off of Fig. 10
  (:mod:`repro.assist.sizing`), and the Fig. 9 mode-switch matrix and
  a process-varied ring-oscillator fleet (:mod:`repro.assist.sweeps`),
  each run as one study on the batched grid engine.
"""

from repro.assist.modes import AssistMode, DeviceState, TRUTH_TABLE
from repro.assist.circuitry import (
    AssistCircuit,
    AssistCircuitConfig,
    ModeOperatingPoint,
    mode_switch_waveforms,
)
from repro.assist.sizing import LoadSizingPoint, sweep_load_size
from repro.assist.sweeps import (
    FleetMember,
    ModeSwitchCell,
    mode_switch_matrix,
    ring_oscillator_fleet,
    sweep_load_size_pooled,
)
from repro.assist.area import (
    AssistAreaModel,
    SharingDesignPoint,
    compensated_header_scale,
    optimal_sharing,
)

__all__ = [
    "AssistAreaModel",
    "SharingDesignPoint",
    "compensated_header_scale",
    "optimal_sharing",
    "AssistMode",
    "DeviceState",
    "TRUTH_TABLE",
    "AssistCircuit",
    "AssistCircuitConfig",
    "ModeOperatingPoint",
    "mode_switch_waveforms",
    "LoadSizingPoint",
    "sweep_load_size",
    "sweep_load_size_pooled",
    "ModeSwitchCell",
    "mode_switch_matrix",
    "FleetMember",
    "ring_oscillator_fleet",
]
