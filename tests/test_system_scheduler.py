"""Tests for repro.system.scheduler and repro.system.dark_silicon.

A policy decides for ``k`` cohorts at once: ``(k,)`` demands and
``(k, n_cores)`` ages in, one :class:`CoreAssignment` of ``(k, n_cores)``
rows out.  :class:`TestBatchedDecisions` pins every row of a batched
call, bit for bit, to ``k`` lockstep copies of the per-chip policies
kept verbatim in :mod:`benchmarks.seed_system`.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.system.chip import Chip
from repro.system.dark_silicon import DarkSiliconRotationPolicy
from repro.system.scheduler import (
    CoreAssignment,
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)

from benchmarks.seed_system import (
    SeedDarkSiliconRotationPolicy,
    SeedNoRecoveryPolicy,
    SeedRoundRobinRecoveryPolicy,
)

N = 8
AGES = np.linspace(0.0, 0.03, N)[None, :]


def demand(value):
    return np.array([value])


class TestCoreAssignment:
    def test_rejects_misaligned_arrays(self):
        with pytest.raises(SimulationError):
            CoreAssignment(np.zeros((1, 3)), np.zeros((1, 2), dtype=bool),
                           np.zeros((1, 3), dtype=bool), np.zeros(1))
        with pytest.raises(SimulationError):
            CoreAssignment(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool),
                           np.zeros((1, 3), dtype=bool), np.zeros(2))

    def test_rejects_loaded_healing_core(self):
        with pytest.raises(SimulationError):
            CoreAssignment(np.array([[0.5]]), np.array([[True]]),
                           np.array([[False]]), np.zeros(1))

    def test_rejects_out_of_range_utilization(self):
        with pytest.raises(SimulationError):
            CoreAssignment(np.array([[1.5]]), np.array([[False]]),
                           np.array([[False]]), np.zeros(1))


class TestNoRecoveryPolicy:
    def test_spreads_demand_evenly(self):
        assignment = NoRecoveryPolicy().assign(0, demand(4.0), AGES)
        assert np.allclose(assignment.utilization, 0.5)
        assert not assignment.bti_recovering.any()
        assert assignment.dropped_demand[0] == 0.0

    def test_saturates_at_full_utilization(self):
        assignment = NoRecoveryPolicy().assign(0, demand(12.0), AGES)
        assert np.allclose(assignment.utilization, 1.0)
        assert assignment.dropped_demand[0] == pytest.approx(4.0)


class TestRoundRobinPolicy:
    def test_rotates_the_healing_window(self):
        policy = RoundRobinRecoveryPolicy(recovery_slots=2,
                                          em_alternate_every=0)
        first = policy.assign(0, demand(4.0), AGES)
        second = policy.assign(1, demand(4.0), AGES)
        assert first.bti_recovering.sum() == 2
        assert second.bti_recovering.sum() == 2
        assert not np.array_equal(first.bti_recovering,
                                  second.bti_recovering)

    def test_every_core_eventually_heals(self):
        policy = RoundRobinRecoveryPolicy(recovery_slots=1,
                                          em_alternate_every=0)
        healed = np.zeros((1, N), dtype=bool)
        for epoch in range(N):
            healed |= policy.assign(epoch, demand(4.0),
                                    AGES).bti_recovering
        assert healed.all()

    def test_demand_migrates_to_active_cores(self):
        policy = RoundRobinRecoveryPolicy(recovery_slots=2,
                                          em_alternate_every=0)
        assignment = policy.assign(0, demand(6.0), AGES)
        active = ~assignment.bti_recovering
        assert np.allclose(assignment.utilization[active], 1.0)
        assert np.all(assignment.utilization[~active] == 0.0)

    def test_em_alternation_cadence(self):
        policy = RoundRobinRecoveryPolicy(recovery_slots=0,
                                          em_alternate_every=2)
        with_em = policy.assign(0, demand(4.0), AGES)
        without_em = policy.assign(1, demand(4.0), AGES)
        assert with_em.em_recovering.any()
        assert not without_em.em_recovering.any()

    def test_rejects_all_cores_healing(self):
        policy = RoundRobinRecoveryPolicy(recovery_slots=N)
        with pytest.raises(SimulationError):
            policy.assign(0, demand(1.0), AGES)


class TestDarkSiliconPolicy:
    def make_policy(self, **kwargs) -> DarkSiliconRotationPolicy:
        chip = Chip(2, 4)
        return DarkSiliconRotationPolicy(chip=chip, n_dark=2,
                                         em_alternate_every=0,
                                         **kwargs)

    def test_darkens_the_most_aged_cores(self):
        policy = self.make_policy(heat_aware=False, dwell_epochs=1)
        assignment = policy.assign(0, demand(4.0), AGES)
        dark = np.nonzero(assignment.bti_recovering[0])[0]
        assert set(dark) == {N - 1, N - 2}

    def test_dwell_keeps_the_dark_set_stable(self):
        policy = self.make_policy(heat_aware=False, dwell_epochs=3)
        first = policy.assign(0, demand(4.0), AGES)
        second = policy.assign(1, demand(4.0), AGES)
        assert np.array_equal(first.bti_recovering,
                              second.bti_recovering)

    def test_rotation_after_dwell(self):
        policy = self.make_policy(heat_aware=False, dwell_epochs=1)
        ages = AGES.copy()
        first = policy.assign(0, demand(4.0), ages)
        # The healed cores become fresh; others age.
        ages[first.bti_recovering] = 0.0
        ages[~first.bti_recovering] += 0.05
        second = policy.assign(1, demand(4.0), ages)
        assert not np.array_equal(first.bti_recovering,
                                  second.bti_recovering)

    def test_heat_aware_prefers_hot_neighbourhoods(self):
        policy = self.make_policy(heat_aware=True, dwell_epochs=1,
                                  age_weight=0.0)
        # Cores around index 1 are busy; far cores idle.
        previous = np.zeros((1, N))
        previous[0, [0, 2, 5]] = 1.0
        assignment = policy.assign(0, demand(2.0), np.zeros((1, N)),
                                   previous)
        dark = set(np.nonzero(assignment.bti_recovering[0])[0])
        assert 1 in dark

    def test_demand_spread_over_active_cores(self):
        policy = self.make_policy(heat_aware=False, dwell_epochs=1)
        assignment = policy.assign(0, demand(3.0), AGES)
        active = ~assignment.bti_recovering
        assert np.allclose(assignment.utilization[active], 0.5)

    def test_rejects_all_dark(self):
        chip = Chip(2, 2)
        with pytest.raises(SimulationError):
            DarkSiliconRotationPolicy(chip=chip, n_dark=4)

    def test_rejects_wrong_age_vector(self):
        policy = self.make_policy()
        with pytest.raises(SimulationError):
            policy.assign(0, demand(1.0), np.zeros((1, 3)))
        with pytest.raises(SimulationError):
            policy.assign(0, demand(1.0), np.zeros(N))


# -- batched decisions vs lockstep per-chip policies --------------------------

N_EPOCHS = 36
CHIP = (3, 4)


def lockstep(policy, seeds, rng, tied=False):
    """Drive ``policy`` over ``len(seeds)`` rows and every seed policy
    over its own row for ``N_EPOCHS`` epochs of random demand, ages and
    previous utilization; every row must match its seed bit for bit.

    ``tied`` draws ages and utilizations from three values each, so
    dark-silicon scores tie within a row.
    """
    k, n = len(seeds), CHIP[0] * CHIP[1]
    previous = None
    for epoch in range(N_EPOCHS):
        demands = rng.uniform(0.0, 1.3 * n, k)
        demands[rng.random(k) < 0.1] = 0.0
        if tied:
            worst = rng.choice([0.0, 0.01, 0.02], (k, n))
        else:
            worst = rng.uniform(0.0, 0.03, (k, n))
        decision = policy.assign(epoch, demands, worst, previous)
        for row, seed in enumerate(seeds):
            expected = seed.assign(
                epoch, float(demands[row]), worst[row],
                None if previous is None else previous[row])
            for name in ("utilization", "bti_recovering",
                         "em_recovering"):
                ours = getattr(decision, name)[row]
                theirs = getattr(expected, name)
                assert ours.dtype == theirs.dtype, (name, epoch, row)
                assert ours.tobytes() == theirs.tobytes(), \
                    (name, epoch, row)
            assert (np.float64(decision.dropped_demand[row]).tobytes()
                    == np.float64(expected.dropped_demand).tobytes())
        if tied:
            previous = rng.choice([0.0, 0.5, 1.0], (k, n))
        else:
            previous = rng.uniform(0.0, 1.0, (k, n))
            previous[rng.random((k, n)) < 0.2] = 0.0


@pytest.mark.parametrize("k", [1, 7])
class TestBatchedDecisions:
    def test_no_recovery(self, k):
        lockstep(NoRecoveryPolicy(),
                 [SeedNoRecoveryPolicy() for _ in range(k)],
                 np.random.default_rng(k))

    @pytest.mark.parametrize("slots, em_every", [(0, 2), (1, 0), (3, 3)])
    def test_round_robin(self, k, slots, em_every):
        lockstep(RoundRobinRecoveryPolicy(recovery_slots=slots,
                                          em_alternate_every=em_every),
                 [SeedRoundRobinRecoveryPolicy(
                     recovery_slots=slots, em_alternate_every=em_every)
                  for _ in range(k)],
                 np.random.default_rng(10 * k + slots))

    @pytest.mark.parametrize("n_dark, heat_aware, dwell, tied", [
        (0, True, 4, False),
        (1, False, 1, False),
        (3, True, 1, False),
        (3, True, 3, False),
        (2, True, 1, True),
        (4, False, 2, True),
    ])
    def test_dark_silicon(self, k, n_dark, heat_aware, dwell, tied):
        params = dict(n_dark=n_dark, heat_aware=heat_aware,
                      dwell_epochs=dwell, em_alternate_every=3,
                      age_weight=0.7)
        lockstep(DarkSiliconRotationPolicy(Chip(*CHIP), **params),
                 [SeedDarkSiliconRotationPolicy(Chip(*CHIP), **params)
                  for _ in range(k)],
                 np.random.default_rng(100 * k + 10 * n_dark + dwell),
                 tied=tied)
