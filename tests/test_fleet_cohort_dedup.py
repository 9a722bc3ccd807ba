"""Cohort dedup in the fleet engine: one condition build per assignment.

A fleet with unsorted workload phases splits into many cohorts, and
many of them make the same scheduling decision in an epoch.
:class:`~repro.system.fleet.FleetSimulator` asks each group's policy
once per epoch for one assignment row per cohort, computes base
conditions once per distinct row (memoized across epochs) and spreads
them over the chip rows with one gather.  These tests pin that
contract on a many-cohort study:

* every chip equals its standalone
  :class:`~repro.system.simulator.SystemSimulator` bit for bit, which
  pins the vectorized cohort-worst shift and the per-cohort demand,
  dropped-demand and migration scatters;
* ``base_epoch_conditions`` runs exactly once per distinct assignment
  row of the run -- fewer times than cohorts x missed epochs -- while
  each group's policy is consulted once per epoch, with one row per
  cohort;
* a saved and reloaded :class:`~repro.system.checkpoint.FleetSession`
  (whose condition memos start cold) continues bitwise, the
  dark-silicon policy with its dark sets and dwell included.
"""

from __future__ import annotations

import copy

import numpy as np

import repro.system.fleet as fleet_module
from repro.system.checkpoint import FleetSession
from repro.system.chip import Chip
from repro.system.dark_silicon import DarkSiliconRotationPolicy
from repro.system.fleet import (
    FleetGroup,
    FleetVariation,
    FleetVariationSpec,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.simulator import SystemSimulator
from repro.system.workload import DiurnalWorkload, PhasedWorkload

N_CORES = 4  # 2x2 grid
# Not a multiple of either diurnal period, so phase-shifted cohorts
# end mid-cycle.
N_EPOCHS = 14
SEED = 5

RESULT_FIELDS = ("times_s", "worst_degradation", "mean_degradation",
                 "dropped_demand", "final_delta_vth_v",
                 "final_permanent_vth_v", "final_em_drift_ohm",
                 "em_failures", "migration_events", "total_demand",
                 "total_dropped_demand")

# Scattered, non-consecutive repeats: equal phases in separate runs
# are separate cohorts that make the same decisions.
RR_PHASES = (0, 3, 0, 5, 3, 3, 0, 5)          # 7 cohorts
NONE_PHASES = (1, 1, 4, 1, 4, 4)              # 4 cohorts
DARK_PHASES = (0, 0, 0, 2, 2, 0)              # 3 cohorts
N_COHORTS = 14
N_GROUPS = 3
N_CHIPS = len(RR_PHASES) + len(NONE_PHASES) + len(DARK_PHASES)


def dark_policy(chip):
    return DarkSiliconRotationPolicy(chip, n_dark=1)


def groups():
    """Fresh templates: round-robin, no-recovery and dark silicon."""
    return (
        FleetGroup(n_chips=len(RR_PHASES),
                   workload=DiurnalWorkload(N_CORES, 0.9, 0.2, 6),
                   policy=RoundRobinRecoveryPolicy(
                       recovery_slots=1, em_alternate_every=2),
                   phases=RR_PHASES, name="rr"),
        FleetGroup(n_chips=len(NONE_PHASES),
                   workload=DiurnalWorkload(N_CORES, 0.8, 0.3, 5),
                   policy=NoRecoveryPolicy(), phases=NONE_PHASES,
                   name="none"),
        FleetGroup(n_chips=len(DARK_PHASES),
                   workload=DiurnalWorkload(N_CORES, 0.7, 0.4, 6),
                   policy=dark_policy, phases=DARK_PHASES,
                   name="dark"),
    )


def variation():
    """A drawn population whose dark-silicon rows are unvaried.

    The dark-silicon policy reads the cohort-worst shift, which equals
    each member's own shift only when the cohort's rows are identical.
    """
    drawn = FleetVariationSpec(capture_sigma=0.05, recovery_sigma=0.08,
                               em_current_sigma=0.05).draw(N_CHIPS, SEED)
    dark_rows = slice(N_CHIPS - len(DARK_PHASES), N_CHIPS)
    scales = {}
    for name in ("capture_scale", "recovery_scale", "em_current_scale"):
        array = getattr(drawn, name).copy()
        array[dark_rows] = 1.0
        scales[name] = array
    return FleetVariation(**scales)


def run_study(**kwargs):
    return run_fleet_lifetime_study(
        (2, 2), groups=groups(), n_epochs=N_EPOCHS,
        variation=variation(), max_workers=1, **kwargs)


def row_keys(*arrays):
    """The bytes of every assignment row, one tuple per cohort."""
    return [tuple(row.tobytes() for row in rows) for rows in zip(*arrays)]


def assert_bitwise(a, b, fields, label=None):
    for field in fields:
        x = np.asarray(getattr(a, field))
        y = np.asarray(getattr(b, field))
        assert x.dtype == y.dtype and x.shape == y.shape, (field, label)
        assert x.tobytes() == y.tobytes(), (field, label)


class TestCohortDedup:

    def test_many_cohort_chips_match_standalone_bitwise(self):
        fleet = run_study()
        drawn = variation()
        index = 0
        for group in groups():
            for phase in group.phases:
                chip = Chip(2, 2)
                policy = (group.policy(chip)
                          if group.policy is dark_policy
                          else copy.deepcopy(group.policy))
                reference = SystemSimulator(
                    chip, variation=drawn.chip(index)).run(
                    N_EPOCHS,
                    PhasedWorkload(copy.deepcopy(group.workload), phase),
                    policy)
                assert_bitwise(fleet.chip_result(index), reference,
                               RESULT_FIELDS, label=index)
                index += 1
        # The study really exercises every bookkeeping path.
        assert np.ptp(fleet.total_demand) > 0.0
        assert np.ptp(fleet.total_dropped_demand) > 0.0
        assert np.any(fleet.migration_events > 0)
        assert np.all(fleet.migration_events[len(RR_PHASES):
                                             -len(DARK_PHASES)] == 0)

    def test_one_condition_build_per_distinct_assignment(
            self, monkeypatch):
        calls = []
        seen = []
        for cls in (RoundRobinRecoveryPolicy, NoRecoveryPolicy,
                    DarkSiliconRotationPolicy):
            def recording(self, *args, _assign=cls.assign, **kwargs):
                assignment = _assign(self, *args, **kwargs)
                calls.append(len(assignment.utilization))
                seen.extend(row_keys(assignment.utilization,
                                     assignment.bti_recovering,
                                     assignment.em_recovering))
                return assignment
            monkeypatch.setattr(cls, "assign", recording)
        builds = []
        base = fleet_module.base_epoch_conditions

        def counting(chip, kernels, *rows):
            builds.extend(row_keys(*(row[None] for row in rows)))
            return base(chip, kernels, *rows)

        monkeypatch.setattr(fleet_module, "base_epoch_conditions",
                            counting)
        reports = []
        run_study(on_report=reports.append)
        (report,) = reports
        counters = report.cache_counters
        distinct = len(set(seen))
        missed_epochs = counters["fleet.conditions"]["misses"]
        # One policy call per group and epoch, one row per cohort.
        assert len(calls) == N_GROUPS * N_EPOCHS
        assert len(seen) == N_COHORTS * N_EPOCHS
        assert counters["fleet.engine"]["cohorts"] == N_COHORTS
        assert counters["fleet.base_conditions"]["misses"] == distinct
        assert len(builds) == distinct
        assert len(set(builds)) == distinct
        assert distinct < N_COHORTS * missed_epochs

    def test_saved_session_resumes_bitwise(self, tmp_path):
        path = tmp_path / "cohorts.npz"
        unsaved = FleetSession((2, 2), groups=groups(),
                               variation=variation(), record_every=3)
        unsaved.advance(N_EPOCHS)
        saved = FleetSession((2, 2), groups=groups(),
                             variation=variation(), record_every=3)
        saved.advance(5)
        saved.save(path)
        resumed = FleetSession.load(path)
        assert resumed.epoch == 5
        resumed.advance(N_EPOCHS - 5)
        reference = unsaved.result()
        assert_bitwise(resumed.result(), reference, RESULT_FIELDS)
        saved.advance(N_EPOCHS - 5)
        assert_bitwise(saved.result(), reference, RESULT_FIELDS)

    def test_phased_dark_silicon_session_resumes_bitwise(self, tmp_path):
        # The stock policy as a template: its dark sets and the dwell
        # counter, saved mid-dwell, travel in the snapshot.
        def session():
            return FleetSession(
                (2, 2), groups=(FleetGroup(
                    n_chips=5,
                    workload=DiurnalWorkload(N_CORES, 0.8, 0.3, 6),
                    policy=DarkSiliconRotationPolicy(
                        Chip(2, 2), n_dark=1, dwell_epochs=3),
                    phases=(0, 2, 2, 5, 0)),), record_every=2)

        path = tmp_path / "dark.npz"
        unsaved = session()
        unsaved.advance(N_EPOCHS)
        saved = session()
        saved.advance(5)
        saved.save(path)
        resumed = FleetSession.load(path)
        resumed.advance(N_EPOCHS - 5)
        assert_bitwise(resumed.result(), unsaved.result(), RESULT_FIELDS)
