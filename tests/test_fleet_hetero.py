"""Heterogeneous-fleet contracts: groups, chunking, routing.

The fleet engine generalizes from "one chip model, N variated copies"
to true mixed populations (:class:`~repro.system.fleet.FleetGroup`)
while keeping the stacked-tensor advance.  These tests pin the
contracts that generalization rests on:

* stacking invariance: a chip in a mixed-workload / mixed-policy
  fleet matches its one-chip study
  (:class:`~repro.system.simulator.SystemSimulator`) built with the
  same variation, phase-shifted workload and a fresh policy copy,
  exactly;
* results are invariant in how the population is chunked
  (``max_chunk_chips`` / ``state_budget_bytes``), so memory budgets
  are purely an execution concern;
* ``run_lifetime_sweep`` runs every chip design of a grid as one
  fleet study whose cells equal standalone simulator runs bit for bit.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

import repro.system.fleet as fleet_module
from repro.errors import SimulationError
from repro.solvers import cache_counters, task_seed_sequence
from repro.system.chip import Chip
from repro.system.dark_silicon import DarkSiliconRotationPolicy
from repro.system.fleet import (
    FleetGroup,
    FleetVariationSpec,
    run_fleet_lifetime_study,
    state_bytes_per_chip,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    PhasedWorkload,
    RandomWorkload,
)

N_CORES = 4
# Deliberately not a multiple of the diurnal period, so phase-shifted
# chips end mid-cycle with distinct demand totals.
N_EPOCHS = 26
SEED = 11
SPEC = FleetVariationSpec(capture_sigma=0.05, recovery_sigma=0.08,
                          em_current_sigma=0.05)

RESULT_FIELDS = ("times_s", "worst_degradation", "mean_degradation",
                 "dropped_demand", "final_delta_vth_v",
                 "final_permanent_vth_v", "final_em_drift_ohm",
                 "em_failures", "migration_events", "total_demand",
                 "total_dropped_demand")


def hetero_groups():
    """Fresh templates: two workloads, two policies, mixed phases."""
    return (
        FleetGroup(n_chips=3,
                   workload=DiurnalWorkload(n_cores=N_CORES,
                                            period_epochs=8),
                   policy=RoundRobinRecoveryPolicy(
                       recovery_slots=1, em_alternate_every=2),
                   phases=(0, 2, 2),
                   name="diurnal rr"),
        FleetGroup(n_chips=2,
                   workload=ConstantWorkload(n_cores=N_CORES,
                                             utilization=0.7),
                   policy=NoRecoveryPolicy(),
                   name="flat baseline"),
    )


def chip_plan():
    """(workload, phase, policy) templates per global chip index."""
    plan = []
    for group in hetero_groups():
        for local in range(group.n_chips):
            phase = group.phases[local] if group.phases else 0
            plan.append((group.workload, phase, group.policy))
    return plan


def run_hetero(**overrides):
    kwargs = dict(n_epochs=N_EPOCHS, variation=SPEC, seed=SEED)
    kwargs.update(overrides)
    return run_fleet_lifetime_study((2, 2), groups=hetero_groups(),
                                    **kwargs)


def assert_fleet_results_equal(a, b):
    for field in RESULT_FIELDS:
        assert np.array_equal(np.asarray(getattr(a, field)),
                              np.asarray(getattr(b, field))), field
    assert a.n_epochs == b.n_epochs
    for field in ("capture_scale", "recovery_scale",
                  "em_current_scale"):
        assert np.array_equal(getattr(a.variation, field),
                              getattr(b.variation, field)), field


class TestHeterogeneousFleetVsStandalone:
    """The tentpole acceptance: mixed fleet == standalone, exactly."""

    @pytest.fixture(scope="class")
    def fleet_result(self):
        return run_hetero()

    def test_population_layout(self, fleet_result):
        assert fleet_result.n_chips == 5
        assert fleet_result.final_delta_vth_v.shape == (5, N_CORES)

    def test_each_chip_matches_standalone_simulator(self, fleet_result):
        variation = SPEC.draw(5, SEED)
        for index, (workload, phase, policy) in enumerate(chip_plan()):
            simulator = SystemSimulator(
                Chip(2, 2), variation=variation.chip(index))
            reference = simulator.run(
                N_EPOCHS,
                PhasedWorkload(copy.deepcopy(workload), phase),
                copy.deepcopy(policy))
            chip_view = fleet_result.chip_result(index)
            for field in ("times_s", "worst_degradation",
                          "mean_degradation", "dropped_demand",
                          "final_delta_vth_v",
                          "final_permanent_vth_v",
                          "final_em_drift_ohm"):
                assert np.array_equal(
                    np.asarray(getattr(chip_view, field)),
                    np.asarray(getattr(reference, field))), \
                    (field, index)
            assert np.array_equal(chip_view.em_failures,
                                  reference.em_failures)
            assert chip_view.migration_events \
                == reference.migration_events
            assert chip_view.total_demand == reference.total_demand
            assert chip_view.total_dropped_demand \
                == reference.total_dropped_demand

    def test_phases_actually_shift_the_demand(self, fleet_result):
        # Chips 0 and 1 share workload and policy but differ in
        # phase, so their demand bookkeeping must differ -- otherwise
        # the phase plumbing is dead and the equality above vacuous.
        assert fleet_result.total_demand[0] \
            != fleet_result.total_demand[1]
        # Chips 1 and 2 share the phase too and are distinguished
        # only by their variation draw.
        assert fleet_result.total_demand[1] \
            == fleet_result.total_demand[2]

    def test_groups_see_their_own_policies(self, fleet_result):
        # The round-robin group migrates, the no-recovery group never
        # does -- per-chip migration counts must reflect the split.
        assert np.all(fleet_result.migration_events[:3] > 0)
        assert np.all(fleet_result.migration_events[3:] == 0)


class TestChunkInvariance:
    """Chunked execution is an implementation detail, not a result."""

    @pytest.fixture(scope="class")
    def unchunked(self):
        return run_hetero()

    @pytest.mark.parametrize("max_chunk_chips", [1, 2, 3])
    def test_chunk_size_never_changes_results(self, unchunked,
                                              max_chunk_chips):
        chunked = run_hetero(max_chunk_chips=max_chunk_chips)
        assert_fleet_results_equal(chunked, unchunked)

    def test_state_budget_streams_in_multiple_chunks(self, unchunked):
        per_chip = state_bytes_per_chip(N_CORES)
        before = cache_counters().get("fleet.engine",
                                      {}).get("chunks", 0)
        budgeted = run_hetero(state_budget_bytes=2 * per_chip)
        after = cache_counters()["fleet.engine"]["chunks"]
        # 5 chips at 2 per chunk -> 3 chunks, same numbers.
        assert after - before == 3
        assert_fleet_results_equal(budgeted, unchunked)

    def test_chunk_limits_validated(self):
        with pytest.raises(SimulationError):
            run_hetero(max_chunk_chips=0)
        with pytest.raises(SimulationError):
            run_hetero(state_budget_bytes=0)


class TestGroupValidation:
    def test_group_needs_chips(self):
        with pytest.raises(SimulationError):
            FleetGroup(n_chips=0,
                       workload=ConstantWorkload(N_CORES, 0.5),
                       policy=NoRecoveryPolicy())

    def test_phases_must_cover_every_chip(self):
        with pytest.raises(SimulationError):
            FleetGroup(n_chips=3,
                       workload=ConstantWorkload(N_CORES, 0.5),
                       policy=NoRecoveryPolicy(), phases=(0, 1))

    def test_phases_must_be_non_negative(self):
        with pytest.raises(SimulationError):
            FleetGroup(n_chips=2,
                       workload=ConstantWorkload(N_CORES, 0.5),
                       policy=NoRecoveryPolicy(), phases=(0, -1))

    def test_groups_exclusive_with_homogeneous_args(self):
        with pytest.raises(SimulationError):
            run_fleet_lifetime_study(
                (2, 2), groups=hetero_groups(),
                workload=ConstantWorkload(N_CORES, 0.5),
                n_epochs=4)

    def test_n_chips_must_match_groups(self):
        with pytest.raises(SimulationError):
            run_fleet_lifetime_study((2, 2), 7,
                                     groups=hetero_groups(),
                                     n_epochs=4)


def standalone_cell(policy, workload, config, n_epochs, seed=None,
                    cell_index=None):
    """One grid cell run the long way: a fresh SystemSimulator."""
    chip = config.build()
    if hasattr(policy, "assign"):
        policy = copy.deepcopy(policy)
    else:
        policy = policy(chip)
    workload = copy.deepcopy(workload)
    if seed is not None and hasattr(workload, "seed"):
        workload = dataclasses.replace(workload, seed=int(
            task_seed_sequence(seed, cell_index).generate_state(1)[0]))
    return SystemSimulator(chip).run(n_epochs, workload, policy)


def assert_cells_match_standalone(sweep, policies, workloads, chips,
                                  n_epochs, seed=None):
    """Every sweep cell equals its standalone simulator, bit for bit."""
    grid = [(policy_label, policy, workload_label, workload, config)
            for policy_label, policy in policies.items()
            for workload_label, workload in workloads.items()
            for config in chips]
    assert len(sweep.cells) == len(grid)
    for index, (cell, (policy_label, policy, workload_label, workload,
                       config)) in enumerate(zip(sweep.cells, grid)):
        assert (cell.policy, cell.workload, cell.chip) \
            == (policy_label, workload_label, config.label)
        result = standalone_cell(policy, workload, config, n_epochs,
                                 seed=seed, cell_index=index)
        assert cell.guardband == result.guardband
        assert cell.final_delta_vth_v \
            == float(result.final_delta_vth_v.max())
        assert cell.final_permanent_vth_v \
            == float(result.final_permanent_vth_v.max())
        assert cell.em_failures == int(result.em_failures.sum())
        assert cell.migration_events == result.migration_events
        assert cell.migration_overhead == result.migration_overhead()
        assert cell.lost_demand_fraction == result.lost_demand_fraction


def dark_silicon_factory(chip):
    return DarkSiliconRotationPolicy(chip, n_dark=1)


class TestSweepEngineRouting:
    """run_lifetime_sweep routes each chip design onto one fleet study."""

    N_SWEEP_EPOCHS = 10

    @staticmethod
    def grid():
        return (
            {"rr": RoundRobinRecoveryPolicy(recovery_slots=1,
                                            em_alternate_every=2),
             "none": NoRecoveryPolicy()},
            {"flat": ConstantWorkload(n_cores=N_CORES,
                                      utilization=0.6),
             "diurnal": DiurnalWorkload(n_cores=N_CORES,
                                        period_epochs=8)},
            [ChipConfig(2, 2, name="unit a"),
             ChipConfig(2, 2, name="unit b")],
        )

    def run_grid(self, **kwargs):
        policies, workloads, chips = self.grid()
        return run_lifetime_sweep(policies, workloads, chips,
                                  n_epochs=self.N_SWEEP_EPOCHS,
                                  **kwargs)

    def test_single_design_cells_match_standalone_simulators(self):
        reports = []
        sweep = self.run_grid(on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet"
        assert report.n_chunks == 1
        assert len(sweep.cells) == 8
        assert_cells_match_standalone(sweep, *self.grid(),
                                      self.N_SWEEP_EPOCHS)

    def test_mixed_designs_factory_and_reseeding_match_standalone(self):
        # Two chip designs (interleaved in the chip list), a chip-bound
        # policy factory and a workload reseeded per cell: one fleet
        # study per design, every cell still its standalone run.
        policies = {"dark": dark_silicon_factory,
                    "rr": RoundRobinRecoveryPolicy(
                        recovery_slots=1, em_alternate_every=2)}
        workloads = {"random": RandomWorkload(n_cores=N_CORES,
                                              mean_utilization=0.5),
                     "diurnal": DiurnalWorkload(n_cores=N_CORES,
                                                period_epochs=6)}
        chips = [ChipConfig(2, 2, name="small a"),
                 ChipConfig(3, 3, name="large a"),
                 ChipConfig(2, 2, name="small b"),
                 ChipConfig(3, 3, name="large b")]
        reports = []
        sweep = run_lifetime_sweep(policies, workloads, chips,
                                   n_epochs=self.N_SWEEP_EPOCHS,
                                   seed=5, on_report=reports.append)
        assert [report.mode for report in reports] == ["fleet", "fleet"]
        assert [report.n_chunks for report in reports] == [1, 1]
        assert len(sweep.cells) == 16
        assert_cells_match_standalone(sweep, policies, workloads, chips,
                                      self.N_SWEEP_EPOCHS, seed=5)
        random_cells = [cell for cell in sweep.cells
                        if cell.workload == "random"
                        and cell.policy == "rr"]
        assert len({cell.lost_demand_fraction
                    for cell in random_cells}) > 1, \
            "each reseeded cell must draw its own demand stream"

    def test_fleet_report_carries_engine_counters(self):
        reports = []
        self.run_grid(on_report=reports.append)
        counters = reports[0].cache_counters
        assert counters["fleet.engine"]["chips"] == 8
        assert counters["fleet.engine"]["epochs"] \
            == self.N_SWEEP_EPOCHS
        assert "bti.fleet.kernels" in counters

    def test_max_workers_stays_on_fleet_path(self, monkeypatch):
        # max_workers forwards to the fleet engine, and this grid is
        # far below the work gate, so the run stays one serial fleet
        # advance of one chunk: the sweep does not split it.
        monkeypatch.setattr(fleet_module, "available_cpus", lambda: 2)
        reports = []
        workers = self.run_grid(max_workers=2,
                                on_report=reports.append)
        assert reports[0].mode == "fleet"
        assert reports[0].n_chunks == 1
        assert "below pool threshold" in reports[0].serial_reason
        assert len(workers.cells) == 8
        baseline = self.run_grid()
        for a, b in zip(workers.cells, baseline.cells):
            assert a == b
