"""Multicore chip description for system-level simulation.

A :class:`Chip` is a grid floorplan of identical cores, each with a
local power grid (the EM-sensitive structure of Fig. 11), a thermal
node, and BTI-aging logic monitored by a ring oscillator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import units
from repro.errors import SimulationError
from repro.sensors.ring_oscillator import RingOscillator
from repro.thermal.floorplan import Floorplan
from repro.thermal.network import ThermalNetworkConfig, ThermalRCNetwork


@dataclass(frozen=True)
class CoreSpec:
    """Electrical/thermal description of one core.

    Attributes:
        active_power_w: power at 100 % utilization.
        idle_power_w: power when idle (clock-gated).
        recovery_power_w: power while in BTI active recovery (rails
            swapped, load idle; essentially leakage).
        stress_voltage_v: gate overdrive during operation, feeding the
            BTI stress model.
        grid_current_density_a_m2: local-grid current density at 100 %
            utilization, feeding the EM model.
        width_m / height_m: core footprint.
        oscillator: the per-core wearout monitor / performance proxy.
    """

    active_power_w: float = 1.5
    idle_power_w: float = 0.15
    recovery_power_w: float = 0.05
    stress_voltage_v: float = 0.45
    grid_current_density_a_m2: float = units.ma_per_cm2(2.0)
    width_m: float = 2e-3
    height_m: float = 2e-3
    oscillator: RingOscillator = field(default_factory=RingOscillator)

    def __post_init__(self) -> None:
        if self.active_power_w <= 0.0:
            raise SimulationError("active_power_w must be positive")
        if not 0.0 <= self.idle_power_w <= self.active_power_w:
            raise SimulationError(
                "idle power must be within [0, active_power_w]")
        if self.recovery_power_w < 0.0:
            raise SimulationError("recovery_power_w must be >= 0")
        if self.grid_current_density_a_m2 <= 0.0:
            raise SimulationError(
                "grid_current_density_a_m2 must be positive")

    def power_w(self, utilization: float) -> float:
        """Core power at a given utilization."""
        if not 0.0 <= utilization <= 1.0:
            raise SimulationError("utilization must be within [0, 1]")
        return self.idle_power_w + utilization * (
            self.active_power_w - self.idle_power_w)


class Chip:
    """A rows x cols grid of identical cores with a thermal model."""

    def __init__(self, rows: int, cols: int,
                 core: Optional[CoreSpec] = None,
                 thermal: Optional[ThermalNetworkConfig] = None):
        if rows < 1 or cols < 1:
            raise SimulationError("chip needs at least one core")
        self.rows = rows
        self.cols = cols
        self.core = core or CoreSpec()
        self.floorplan = Floorplan.grid(
            rows, cols, core_width_m=self.core.width_m,
            core_height_m=self.core.height_m)
        self.thermal = ThermalRCNetwork(self.floorplan, thermal)

    @property
    def n_cores(self) -> int:
        """Total core count."""
        return self.rows * self.cols

    @property
    def core_names(self) -> List[str]:
        """Core names in floorplan order."""
        return [block.name for block in self.floorplan.blocks]

    def neighbours_of(self, index: int) -> List[int]:
        """Indices of cores adjacent to core ``index``."""
        name = self.floorplan.blocks[index].name
        return [self.floorplan.index_of(other)
                for other in self.floorplan.neighbours_of(name)]


@dataclass(frozen=True)
class ChipConfig:
    """A buildable chip description (picklable, unlike a live Chip).

    Attributes:
        rows / cols: core-grid dimensions.
        core: core specification (default :class:`CoreSpec`).
        thermal: thermal network parameters (defaults apply).
        name: label used in the result table; defaults to
            ``"{rows}x{cols}"``.
    """

    rows: int
    cols: int
    core: Optional[CoreSpec] = None
    thermal: Optional[ThermalNetworkConfig] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise SimulationError("chip needs at least one core")

    @property
    def label(self) -> str:
        """Table label of this configuration."""
        return self.name or f"{self.rows}x{self.cols}"

    def build(self) -> Chip:
        """A fresh :class:`Chip` (thermal state included)."""
        return Chip(self.rows, self.cols, core=self.core,
                    thermal=self.thermal)
