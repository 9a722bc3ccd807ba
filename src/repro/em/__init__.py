"""Electromigration (EM) wearout and recovery models.

This package is the interconnect substrate that replaces the paper's
0.18 um copper test-wire measurements (Section III-B/D of Guo & Stan
2017).  It provides:

* :class:`~repro.em.wire.Wire` / :class:`~repro.em.wire.Material` --
  geometry and material description, including the paper's Fig. 3 test
  wire as a calibrated preset.
* :class:`~repro.em.korhonen.KorhonenSolver` -- a 1-D finite-difference
  solver of Korhonen's stress-evolution equation with blocked or
  void-relaxed boundaries.
* :class:`~repro.em.line.EmLine` -- the stateful line model combining
  stress evolution, void nucleation, void growth/refill with a locked
  (permanent) pathway, and resistance read-out.
* :mod:`~repro.em.lumped` -- fast closed-form nucleation/growth models
  (semi-infinite superposition) for system-level simulation.
* :mod:`~repro.em.blacks` -- Black's-equation lifetime extrapolation.
* :mod:`~repro.em.ac_stress` -- frequency/duty-cycle dependence of EM
  under bidirectional current (paper refs [21], [22]).
"""

from repro.em.wire import Material, Wire, COPPER, PAPER_TEST_WIRE
from repro.em.korhonen import (
    BoundaryKind,
    KorhonenBatch,
    KorhonenConfig,
    KorhonenSolver,
)
from repro.em.line import (
    EmLine,
    EmLineConfig,
    EmStressCondition,
    PAPER_EM_STRESS,
    PAPER_EM_RECOVERY,
    VoidState,
)
from repro.em.lumped import LumpedEmModel, NucleationEstimate
from repro.em.blacks import BlacksModel
from repro.em.ac_stress import AcStressModel, effective_current_density
from repro.em.statistics import (
    WirePopulationSpec,
    healing_gain_at_quantile,
    population_from_blacks,
    sample_mixed_population_ttfs,
    sample_nucleation_ttfs_pde,
    sample_population_ttf_matrix,
    sample_population_ttfs,
    sample_population_ttfs_parallel,
)
from repro.em.blech import (
    BlechAssessment,
    assess,
    blech_product_a_per_m,
    critical_length_m,
    is_immortal,
    saturation_stress_pa,
)
from repro.em.chain import InterconnectChain, segment_stripe

__all__ = [
    "InterconnectChain",
    "segment_stripe",
    "BlechAssessment",
    "assess",
    "blech_product_a_per_m",
    "critical_length_m",
    "is_immortal",
    "saturation_stress_pa",
    "WirePopulationSpec",
    "healing_gain_at_quantile",
    "population_from_blacks",
    "sample_mixed_population_ttfs",
    "sample_nucleation_ttfs_pde",
    "sample_population_ttf_matrix",
    "sample_population_ttfs",
    "sample_population_ttfs_parallel",
    "Material",
    "Wire",
    "COPPER",
    "PAPER_TEST_WIRE",
    "BoundaryKind",
    "KorhonenBatch",
    "KorhonenConfig",
    "KorhonenSolver",
    "EmLine",
    "EmLineConfig",
    "EmStressCondition",
    "PAPER_EM_STRESS",
    "PAPER_EM_RECOVERY",
    "VoidState",
    "LumpedEmModel",
    "NucleationEstimate",
    "BlacksModel",
    "AcStressModel",
    "effective_current_density",
]
