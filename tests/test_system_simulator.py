"""Tests for repro.system.simulator (end-to-end system runs)."""

import numpy as np
import pytest

from repro import units
from repro.errors import SimulationError
from repro.system.chip import Chip
from repro.system.dark_silicon import DarkSiliconRotationPolicy
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.workload import ConstantWorkload

EPOCHS = 48  # two days at 1 h epochs


def run_policy(policy, chip=None, epochs=EPOCHS):
    chip = chip or Chip(2, 2)
    simulator = SystemSimulator(chip)
    workload = ConstantWorkload(n_cores=chip.n_cores, utilization=0.6)
    return simulator.run(epochs, workload, policy, record_every=6)


class TestBaseline:
    def test_wearout_accumulates(self):
        result = run_policy(NoRecoveryPolicy())
        assert result.final_delta_vth_v.max() > 0.0
        assert result.guardband > 0.0

    def test_degradation_series_is_monotone_without_recovery(self):
        result = run_policy(NoRecoveryPolicy())
        assert np.all(np.diff(result.worst_degradation) >= -1e-12)

    def test_uniform_load_ages_cores_equally(self):
        result = run_policy(NoRecoveryPolicy())
        assert np.allclose(result.final_delta_vth_v,
                           result.final_delta_vth_v[0], rtol=1e-6)

    def test_timeline_is_decimated(self):
        result = run_policy(NoRecoveryPolicy())
        assert len(result.times_s) == EPOCHS // 6

    def test_no_demand_is_dropped_at_partial_load(self):
        result = run_policy(NoRecoveryPolicy())
        assert result.lost_demand_fraction == 0.0


class TestRecoveryPolicies:
    def test_round_robin_reduces_permanent_wearout(self):
        baseline = run_policy(NoRecoveryPolicy())
        healed = run_policy(RoundRobinRecoveryPolicy(
            recovery_slots=1, em_alternate_every=2))
        assert healed.final_permanent_vth_v.max() \
            < baseline.final_permanent_vth_v.max()

    def test_round_robin_reduces_guardband(self):
        baseline = run_policy(NoRecoveryPolicy())
        healed = run_policy(RoundRobinRecoveryPolicy(
            recovery_slots=1, em_alternate_every=2))
        assert healed.guardband <= baseline.guardband

    def test_em_alternation_protects_the_grid(self):
        baseline = run_policy(NoRecoveryPolicy())
        healed = run_policy(RoundRobinRecoveryPolicy(
            recovery_slots=1, em_alternate_every=2))
        assert healed.final_em_drift_ohm.max() \
            <= baseline.final_em_drift_ohm.max() + 1e-12

    def test_dark_silicon_policy_runs(self):
        chip = Chip(2, 2)
        result = run_policy(DarkSiliconRotationPolicy(chip=chip,
                                                      n_dark=1),
                            chip=chip)
        assert result.final_delta_vth_v.shape == (4,)

    def test_describe_summarizes(self):
        result = run_policy(NoRecoveryPolicy())
        text = result.describe()
        assert "guardband" in text
        assert "EM failures" in text


class TestMigrationAccounting:
    def test_no_recovery_means_no_migrations(self):
        result = run_policy(NoRecoveryPolicy())
        assert result.migration_events == 0
        assert result.migration_overhead() == 0.0

    def test_round_robin_migrates_once_per_rotation(self):
        result = run_policy(RoundRobinRecoveryPolicy(
            recovery_slots=1, em_alternate_every=0))
        # One core enters recovery every epoch (fresh each time).
        assert result.migration_events == EPOCHS

    def test_overhead_is_small(self):
        """Section IV-B expects 'a small switching overhead'."""
        result = run_policy(RoundRobinRecoveryPolicy(
            recovery_slots=1, em_alternate_every=2))
        assert result.migration_overhead() < 0.01

    def test_overhead_scales_with_cost(self):
        result = run_policy(RoundRobinRecoveryPolicy(
            recovery_slots=1, em_alternate_every=0))
        assert result.migration_overhead(0.02) == pytest.approx(
            2.0 * result.migration_overhead(0.01))

    def test_rejects_negative_cost(self):
        result = run_policy(NoRecoveryPolicy())
        with pytest.raises(SimulationError):
            result.migration_overhead(-1.0)


class TestValidation:
    def test_rejects_zero_epochs(self):
        simulator = SystemSimulator(Chip(2, 2))
        with pytest.raises(SimulationError):
            simulator.run(0, ConstantWorkload(n_cores=4),
                          NoRecoveryPolicy())

    def test_rejects_bad_record_every(self):
        simulator = SystemSimulator(Chip(2, 2))
        with pytest.raises(SimulationError):
            simulator.run(10, ConstantWorkload(n_cores=4),
                          NoRecoveryPolicy(), record_every=0)

    def test_rejects_bad_epoch_length(self):
        with pytest.raises(SimulationError):
            SystemSimulator(Chip(2, 2), epoch_s=0.0)

    @pytest.mark.parametrize("epoch_s", [float("nan"), float("inf")])
    def test_rejects_non_finite_epoch_length(self, epoch_s):
        with pytest.raises(SimulationError, match="epoch_s"):
            SystemSimulator(Chip(2, 2), epoch_s=epoch_s)
