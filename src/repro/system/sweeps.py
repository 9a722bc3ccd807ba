"""Policy x workload x chip lifetime sweeps on the fleet engine.

The Fig. 12(b) experiments compare a handful of scheduling policies on
one chip; design-space work multiplies that by workload mixes and chip
configurations.  :func:`run_lifetime_sweep` evaluates the full
Cartesian grid and returns a structured :class:`SweepResult` table
(guardband, permanent Vth, EM failures, migration overhead per cell).

Every distinct chip design of the grid runs as one structure-of-arrays
fleet study (:func:`repro.system.fleet.run_fleet_lifetime_study`):
one :class:`~repro.system.fleet.FleetGroup` per (policy, workload)
pair with one fleet chip per grid chip of that design, advanced in
stacked tensor sweeps instead of one one-chip study per cell.  Grid
chips are unvaried, so each cohort's policy observable is every member
cell's own observable and each cell equals its one-chip study
(:class:`~repro.system.simulator.SystemSimulator`) bit for bit.
Workloads reseeded per cell become one-chip groups, so their streams
stay per cell too.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import units
from repro.errors import SimulationError
from repro.solvers.sweep import SweepReport, task_seed_sequence
from repro.system.chip import Chip, CoreSpec
from repro.thermal.network import ThermalNetworkConfig


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


@dataclass(frozen=True)
class SweepCellResult:
    """Summary observables of one (policy, workload, chip) cell.

    Attributes:
        policy / workload / chip: the grid labels of this cell.
        guardband: peak worst-core delay degradation over the horizon.
        final_delta_vth_v: worst-core total Vth shift at the end.
        final_permanent_vth_v: worst-core permanent Vth at the end.
        em_failures: hard-failed local grids at the end.
        migration_events: transitions into BTI recovery over the run.
        migration_overhead: those transitions as a fraction of the
            simulated core-epochs (at the default per-migration cost).
        lost_demand_fraction: unplaced fraction of demanded compute.
    """

    policy: str
    workload: str
    chip: str
    guardband: float
    final_delta_vth_v: float
    final_permanent_vth_v: float
    em_failures: int
    migration_events: int
    migration_overhead: float
    lost_demand_fraction: float


@dataclass(frozen=True)
class SweepResult:
    """The full sweep grid with tabular accessors."""

    cells: Tuple[SweepCellResult, ...]
    n_epochs: int
    epoch_s: float

    _SCHEMA = ("policy", "workload", "chip", "guardband",
               "final_delta_vth_v", "final_permanent_vth_v",
               "em_failures", "migration_events",
               "migration_overhead", "lost_demand_fraction")

    def __len__(self) -> int:
        return len(self.cells)

    def column(self, name: str) -> np.ndarray:
        """One result field across all cells, in grid order."""
        if name not in self._SCHEMA:
            raise SimulationError(
                f"unknown column {name!r}; one of {self._SCHEMA}")
        return np.array([getattr(cell, name) for cell in self.cells])

    def cell(self, policy: str, workload: str,
             chip: str) -> SweepCellResult:
        """The cell with the given grid labels."""
        for candidate in self.cells:
            if (candidate.policy, candidate.workload,
                    candidate.chip) == (policy, workload, chip):
                return candidate
        raise KeyError(f"no cell ({policy!r}, {workload!r}, {chip!r})")

    def best_policy(self, metric: str = "guardband") -> str:
        """Policy label with the lowest worst-case ``metric``."""
        values: Dict[str, float] = {}
        for cell in self.cells:
            current = values.get(cell.policy, -np.inf)
            values[cell.policy] = max(current, getattr(cell, metric))
        return min(values, key=lambda label: values[label])

    def table(self) -> str:
        """A fixed-width text table of every cell."""
        header = ("policy", "workload", "chip", "guardband",
                  "perm dVth", "EM fails", "migr ovh", "lost")
        rows = [(cell.policy, cell.workload, cell.chip,
                 f"{cell.guardband:.2%}",
                 f"{cell.final_permanent_vth_v * 1e3:.2f} mV",
                 str(cell.em_failures),
                 f"{cell.migration_overhead:.4%}",
                 f"{cell.lost_demand_fraction:.2%}")
                for cell in self.cells]
        widths = [max(len(header[i]), *(len(row[i]) for row in rows))
                  for i in range(len(header))]
        def fmt(row: Sequence[str]) -> str:
            return "  ".join(cell.ljust(width)
                             for cell, width in zip(row, widths))
        lines = [fmt(header), fmt(["-" * width for width in widths])]
        lines.extend(fmt(row) for row in rows)
        return "\n".join(lines)


def _labelled(items: Union[Mapping[str, Any], Sequence[Any]],
              kind: str) -> List[Tuple[str, Any]]:
    """Normalize a mapping or sequence into unique (label, item) pairs."""
    if isinstance(items, Mapping):
        pairs = list(items.items())
    else:
        pairs = []
        for index, item in enumerate(items):
            name = getattr(item, "name", "") or type(item).__name__
            pairs.append((f"{name}#{index}" if len(items) > 1
                          else str(name), item))
    if not pairs:
        raise SimulationError(f"at least one {kind} is required")
    labels = [label for label, _ in pairs]
    if len(set(labels)) != len(labels):
        raise SimulationError(f"{kind} labels must be unique")
    return pairs


def _as_chip_config(chip: Union[ChipConfig, Tuple[int, int]]
                    ) -> ChipConfig:
    if isinstance(chip, ChipConfig):
        return chip
    rows, cols = chip
    return ChipConfig(rows=int(rows), cols=int(cols))


def _cell_summary(policy_label: str, workload_label: str,
                  chip_label: str, result) -> SweepCellResult:
    """Condense one cell's SystemResult into the sweep table row."""
    return SweepCellResult(
        policy=policy_label,
        workload=workload_label,
        chip=chip_label,
        guardband=result.guardband,
        final_delta_vth_v=float(result.final_delta_vth_v.max()),
        final_permanent_vth_v=float(result.final_permanent_vth_v.max()),
        em_failures=int(result.em_failures.sum()),
        migration_events=result.migration_events,
        migration_overhead=result.migration_overhead(),
        lost_demand_fraction=result.lost_demand_fraction)


def _same_design(a: ChipConfig, b: ChipConfig) -> bool:
    """Whether two grid chips build the same chip (labels aside)."""
    return ((a.rows, a.cols, a.core, a.thermal)
            == (b.rows, b.cols, b.core, b.thermal))


def _design_groups(positions: Sequence[int],
                   chip_configs: Sequence[ChipConfig],
                   policy_pairs: Sequence[Tuple[str, Any]],
                   workload_pairs: Sequence[Tuple[str, Any]],
                   seed: Optional[int]):
    """The fleet layout of one chip design's cells.

    ``positions`` are the grid indices of the design's chips.  Each
    (policy, workload) pair becomes one
    :class:`~repro.system.fleet.FleetGroup` with one fleet chip per
    grid chip, laid out back-to-back in grid order; a workload that is
    reseeded per cell splits into one-chip groups instead, each seeded
    from the cell's ``task_seed_sequence(seed, cell_index)`` stream.

    Returns ``(groups, rows)``: the groups, and per fleet chip its
    ``(cell_index, policy_label, workload_label, chip_label)``.
    """
    from repro.system.fleet import FleetGroup
    groups: List[FleetGroup] = []
    rows: List[Tuple[int, str, str, str]] = []
    for pair, ((policy_label, policy), (workload_label, workload)) \
            in enumerate(itertools.product(policy_pairs, workload_pairs)):
        name = f"{policy_label}/{workload_label}"
        indices = [pair * len(chip_configs) + position
                   for position in positions]
        if (seed is not None and dataclasses.is_dataclass(workload)
                and hasattr(workload, "seed")):
            for index in indices:
                reseeded = dataclasses.replace(workload, seed=int(
                    task_seed_sequence(seed, index).generate_state(1)[0]))
                groups.append(FleetGroup(n_chips=1, workload=reseeded,
                                         policy=policy, name=name))
        else:
            groups.append(FleetGroup(n_chips=len(positions),
                                     workload=workload, policy=policy,
                                     name=name))
        rows.extend((index, policy_label, workload_label,
                     chip_configs[position].label)
                    for index, position in zip(indices, positions))
    return groups, rows


def run_lifetime_sweep(
        policies: Union[Mapping[str, Any], Sequence[Any]],
        workloads: Union[Mapping[str, Any], Sequence[Any]],
        chips: Sequence[Union[ChipConfig, Tuple[int, int]]],
        *,
        n_epochs: int,
        epoch_s: float = units.hours(1.0),
        record_every: int = 1,
        seed: Optional[int] = 0,
        max_workers: Optional[int] = None,
        retries: int = 0,
        on_report=None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None) -> SweepResult:
    """Simulate every policy x workload x chip cell of a design grid.

    Each distinct chip design of ``chips`` runs as one
    :func:`~repro.system.fleet.run_fleet_lifetime_study` (see the
    module docstring); every cell is bitwise equal to the one-chip
    study (:class:`~repro.system.simulator.SystemSimulator`) of its
    chip, workload and a fresh policy copy.

    Args:
        policies: scheduling policies, as a ``{label: policy}`` mapping
            or a plain sequence (labelled by class name).  An entry
            without an ``assign`` method is treated as a *factory*
            called with the design's freshly built :class:`Chip` --
            use that for chip-bound policies like
            :class:`~repro.system.dark_silicon
            .DarkSiliconRotationPolicy` on heterogeneous chip grids.
            Stateful policies are deep-copied per fleet cohort.
        workloads: demand generators, mapping or sequence as above;
            deep-copied per fleet cohort.  When ``seed`` is given,
            workloads with a ``seed`` field (e.g.
            :class:`~repro.system.workload.RandomWorkload`) are
            re-seeded per cell from the deterministic per-cell stream
            ``task_seed_sequence(seed, cell_index)``.
        chips: chip configurations (:class:`ChipConfig` or bare
            ``(rows, cols)`` tuples).
        n_epochs: horizon of every cell, in epochs.
        epoch_s: epoch length in seconds.
        record_every: timeline decimation inside each cell (guardband
            is computed from the recorded timeline, so keep 1 unless
            the horizon is very long).
        seed: root seed of the per-cell workload reseeding; ``None``
            runs every cell with the workloads' own seeds.
        max_workers / retries: forwarded to the fleet engine's
            parallel chunk executor (the stacked rows of a design
            split into one whole-lifetime chunk per worker; results
            stay bitwise identical, and small grids remain one serial
            in-process advance behind the engine's work gate).
        on_report: optional callback receiving one
            :class:`~repro.solvers.SweepReport` per chip design, with
            ``n_tasks`` restated as the design's cell count and the
            fleet engine's chip/cohort/kernel-dedup counters in
            ``cache_counters``.
        checkpoint_every / checkpoint_dir: crash-durable execution,
            forwarded to
            :func:`~repro.system.fleet.run_fleet_lifetime_study`, so
            every chunk of the stacked grid persists its result (and
            in-flight progress every ``checkpoint_every`` epochs)
            under ``checkpoint_dir``, and re-invoking the identical
            sweep resumes instead of recomputing -- see
            :mod:`repro.system.checkpoint`.  One directory holds one
            fleet study, so checkpointing a grid of several chip
            designs raises :class:`~repro.errors.SimulationError`.

    Returns:
        A :class:`SweepResult` with one cell per grid point, ordered
        policy-major, then workload, then chip.
    """
    if n_epochs < 1:
        raise SimulationError("n_epochs must be at least 1")
    if epoch_s <= 0.0:
        raise SimulationError("epoch_s must be positive")
    if record_every < 1:
        raise SimulationError("record_every must be at least 1")
    policy_pairs = _labelled(policies, "policy")
    workload_pairs = _labelled(workloads, "workload")
    chip_configs = [_as_chip_config(chip) for chip in chips]
    if not chip_configs:
        raise SimulationError("at least one chip is required")
    chip_labels = [config.label for config in chip_configs]
    if len(set(chip_labels)) != len(chip_labels):
        raise SimulationError("chip labels must be unique")
    designs: List[Tuple[ChipConfig, List[int]]] = []
    for position, config in enumerate(chip_configs):
        for first, positions in designs:
            if _same_design(first, config):
                positions.append(position)
                break
        else:
            designs.append((config, [position]))
    if len(designs) > 1 and (checkpoint_dir is not None
                             or checkpoint_every is not None):
        raise SimulationError(
            "a checkpoint directory holds one fleet study, so a grid "
            f"of {len(designs)} chip designs cannot run on it")
    from repro.system.fleet import run_fleet_lifetime_study
    summaries: Dict[int, SweepCellResult] = {}
    for config, positions in designs:
        groups, rows = _design_groups(positions, chip_configs,
                                      policy_pairs, workload_pairs, seed)
        # With several workers the design's stacked rows split into
        # one whole-lifetime chunk per worker; results are invariant
        # in the chunk size, and the engine's work-aware serial gate
        # still keeps small grids in one in-process advance.
        max_chunk_chips = None
        if max_workers is not None and max_workers > 1:
            max_chunk_chips = max(1, -(-len(rows) // max_workers))
        captured: List[SweepReport] = []
        try:
            fleet = run_fleet_lifetime_study(
                config, groups=groups, n_epochs=n_epochs,
                epoch_s=epoch_s, record_every=record_every,
                max_chunk_chips=max_chunk_chips,
                max_workers=max_workers, retries=retries,
                on_report=(captured.append if on_report is not None
                           else None),
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir)
        finally:
            # The fleet report counts chunks as its tasks; grid
            # callers read n_tasks as the cell count, so restate it.
            for report in captured:
                on_report(dataclasses.replace(report, n_tasks=len(rows)))
        for row, (index, policy_label, workload_label, chip_label) \
                in enumerate(rows):
            summaries[index] = _cell_summary(
                policy_label, workload_label, chip_label,
                fleet.chip_result(row))
    return SweepResult(
        cells=tuple(summaries[index] for index in range(len(summaries))),
        n_epochs=n_epochs, epoch_s=epoch_s)
