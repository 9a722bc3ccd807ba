"""IR-drop solving and EM exposure analysis for power grids.

The grid is a linear resistive network: pads are ideal supplies, loads
are ideal current sinks.  The nodal system ``G v = i`` is assembled
sparse (a grid node couples only to its four neighbours) and LU
factored once per grid *topology* -- the factorization is cached by
:meth:`repro.pdn.grid.PdnGrid.matrix_fingerprint`, so re-solving the
same grid under a new load pattern (the system simulator's per-epoch
case) is a single sparse back-substitution, and
:func:`solve_ir_drop_batch` solves many load patterns in one batched
call.  The solution exposes exactly what the EM substrate needs:
per-segment currents and current densities, and the worst (most
EM-exposed) segments that the assist circuitry of Fig. 11 is meant to
protect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.em.line import EmStressCondition
from repro.em.lumped import LumpedEmModel
from repro.em.wire import Wire
from repro.errors import SimulationError
from repro.pdn.grid import GridSegment, NodeAddress, PdnGrid
from repro.solvers import FactorizationCache, SparseLuOperator

#: Cached nodal-matrix factorizations, keyed by grid fingerprint.
_OPERATORS = FactorizationCache(maxsize=8, name="pdn.lu")


@dataclass(frozen=True)
class IrDropSolution:
    """A solved power grid.

    Attributes:
        grid: the analysed grid.
        node_voltages_v: node voltages in node-index order.
        segment_currents_a: signed current per segment, in
            :meth:`repro.pdn.grid.PdnGrid.segments` order (positive
            from ``a`` to ``b``).
    """

    grid: PdnGrid
    node_voltages_v: np.ndarray
    segment_currents_a: np.ndarray

    def voltage_at(self, row: int, col: int) -> float:
        """Voltage of a grid node."""
        return float(self.node_voltages_v[self.grid.node_index(row, col)])

    def worst_drop_v(self) -> float:
        """Largest IR drop below the supply anywhere in the grid."""
        return float(self.grid.supply_v - self.node_voltages_v.min())

    def segment_report(self) -> List[Tuple[GridSegment, float, float]]:
        """Per segment: ``(segment, current_a, density_a_m2)``."""
        report = []
        for segment, current in zip(self.grid.segments(),
                                    self.segment_currents_a):
            report.append((segment, float(current),
                           segment.current_density(float(current))))
        return report

    def most_stressed_segments(self, count: int = 5
                               ) -> List[Tuple[GridSegment, float]]:
        """The ``count`` segments with the highest |current density|."""
        report = [(segment, abs(density))
                  for segment, _current, density in self.segment_report()]
        report.sort(key=lambda item: item[1], reverse=True)
        return report[:count]

    def em_exposure(self, temperature_k: float,
                    count: int = 5) -> List[Tuple[GridSegment, float]]:
        """Nucleation-time estimate of the ``count`` worst segments.

        Each segment is treated as a blocked-end line of its own
        geometry; returns ``(segment, nucleation_time_s)`` sorted most
        critical first.
        """
        exposure = []
        for segment, density in self.most_stressed_segments(count):
            wire = Wire(
                material=self.grid.material,
                length_m=segment.length_m,
                width_m=segment.width_m,
                thickness_m=segment.thickness_m,
                fresh_resistance_ohm=segment.resistance_ohm,
                name="pdn-segment")
            model = LumpedEmModel(wire)
            condition = EmStressCondition(
                current_density_a_m2=density,
                temperature_k=temperature_k,
                name="pdn-segment stress")
            exposure.append((segment, model.nucleation_time(condition)))
        exposure.sort(key=lambda item: item[1])
        return exposure


def _grid_operator(grid: PdnGrid) -> SparseLuOperator:
    """The factorized nodal matrix of a grid (cached by topology)."""
    index_a, index_b, conductance = grid.segment_index_arrays()
    pad_index = np.asarray(sorted(grid.node_index(*pad)
                                  for pad in grid.pads), dtype=np.intp)

    def build() -> SparseLuOperator:
        import scipy.sparse
        n = grid.n_nodes
        rows = np.concatenate([index_a, index_b, index_a, index_b])
        cols = np.concatenate([index_a, index_b, index_b, index_a])
        values = np.concatenate([conductance, conductance,
                                 -conductance, -conductance])
        # Pads: overwrite with Dirichlet rows (v = supply).
        keep = ~np.isin(rows, pad_index)
        rows = np.concatenate([rows[keep], pad_index])
        cols = np.concatenate([cols[keep], pad_index])
        values = np.concatenate([values[keep],
                                 np.ones(len(pad_index))])
        matrix = scipy.sparse.coo_matrix((values, (rows, cols)),
                                         shape=(n, n)).tocsc()
        return SparseLuOperator(matrix)

    return _OPERATORS.get_or_build(grid.matrix_fingerprint(), build)


def _load_rhs(grid: PdnGrid,
              loads_a: Mapping[NodeAddress, float]) -> np.ndarray:
    """Nodal current RHS for one load pattern (pads pinned to supply)."""
    current = np.zeros(grid.n_nodes)
    for address, amps in loads_a.items():
        current[grid.node_index(*address)] -= amps
    for address in grid.pads:
        current[grid.node_index(*address)] = grid.supply_v
    return current


def _segment_currents(grid: PdnGrid,
                      voltages: np.ndarray) -> np.ndarray:
    """Vectorized gather of per-segment currents from node voltages."""
    index_a, index_b, conductance = grid.segment_index_arrays()
    return (voltages[index_a] - voltages[index_b]) * conductance


def solve_ir_drop(grid: PdnGrid) -> IrDropSolution:
    """Solve the nodal voltages and segment currents of a power grid.

    Raises:
        SimulationError: if the grid has no pads (floating network).
    """
    if not grid.pads:
        raise SimulationError("grid has no pads; the network is floating")
    operator = _grid_operator(grid)
    voltages = operator.solve(_load_rhs(grid, grid.loads_a))
    return IrDropSolution(grid, voltages, _segment_currents(grid, voltages))


def solve_ir_drop_batch(grid: PdnGrid,
                        load_patterns: Sequence[Mapping[NodeAddress,
                                                        float]]
                        ) -> List[IrDropSolution]:
    """Solve one grid under many load patterns in a single batch.

    All patterns share the grid's cached factorization and are
    back-substituted as one multi-column RHS -- the per-epoch re-solve
    path of the system simulator and the Monte Carlo load sweeps.
    The grid's own attached loads are ignored; each pattern fully
    specifies its load map.

    Raises:
        SimulationError: if the grid has no pads (floating network).
    """
    if not grid.pads:
        raise SimulationError("grid has no pads; the network is floating")
    if not load_patterns:
        return []
    operator = _grid_operator(grid)
    rhs = np.column_stack([_load_rhs(grid, pattern)
                           for pattern in load_patterns])
    voltages = operator.solve(rhs)
    return [IrDropSolution(grid, voltages[:, k],
                           _segment_currents(grid, voltages[:, k]))
            for k in range(voltages.shape[1])]
