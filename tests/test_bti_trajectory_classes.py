"""Trajectory classes of :class:`repro.bti.fleet.StackedTrapPopulations`.

A multi-chip stack advances one state row per class of rows that share
their whole input history.  Every case here pins the class engine
bitwise -- sign bits included -- against one-chip stacks, which never
hold a class map, and reads how many rows the sweep actually advanced
from the ``bti.fleet.classes`` counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bti.fleet import StackedTrapPopulations
from repro.errors import SimulationError
from repro.solvers import cache_counters
from repro.system.checkpoint import FleetSession
from repro.system.scheduler import RoundRobinRecoveryPolicy
from repro.system.workload import ConstantWorkload

N_UNITS = 3
DT_S = 3600.0


def advanced_rows(run):
    """``(rows, rows advanced)`` counted while ``run()`` executes."""
    before = dict(cache_counters().get("bti.fleet.classes", {}))
    run()
    after = cache_counters()["bti.fleet.classes"]
    return (after["rows"] - before.get("rows", 0),
            after["rows_advanced"] - before.get("rows_advanced", 0))


def assert_bitwise(left, right):
    left, right = np.asarray(left), np.asarray(right)
    assert left.shape == right.shape
    assert left.tobytes() == right.tobytes()


class StackAndSingles:
    """A multi-chip stack and one one-chip stack per chip, stepped alike."""

    def __init__(self, n_chips, n_units=N_UNITS, kernel_cache_size=0):
        self.stack = StackedTrapPopulations(
            n_chips, n_units, kernel_cache_size=kernel_cache_size)
        self.singles = [StackedTrapPopulations(1, n_units)
                        for _ in range(n_chips)]

    def step(self, stressing, capture, recovery, kernel_key=None):
        stressing = np.asarray(stressing, dtype=bool)
        capture = np.asarray(capture, dtype=float)
        recovery = np.asarray(recovery, dtype=float)
        self.stack.step(DT_S, stressing, capture, recovery,
                        kernel_key=kernel_key)
        for i, single in enumerate(self.singles):
            single.step(DT_S, stressing[i:i + 1], capture[i:i + 1],
                        recovery[i:i + 1])

    def assert_match(self):
        stack, n_units = self.stack, self.stack.n_units
        assert stack.permanent_v.max() > 0.0, \
            "schedule must exercise the lock-in branch"
        for i, single in enumerate(self.singles):
            rows = slice(i * n_units, (i + 1) * n_units)
            for name in ("occupancy", "age_s", "weights", "permanent_v"):
                assert_bitwise(getattr(stack, name)[rows],
                               getattr(single, name))
            assert_bitwise(stack.delta_vth_v()[i], single.delta_vth_v()[0])
            assert_bitwise(stack.permanent_vth_v()[i],
                           single.permanent_vth_v()[0])
        # The snapshot is the stored state; its labels expand it to
        # exactly the per-row reads.
        state = stack.state_arrays()
        labels = state["labels"]
        assert labels.dtype == np.int64
        assert labels.shape == (stack.n_chips * n_units,)
        for name in ("occupancy", "age_s", "weights", "permanent_v"):
            assert_bitwise(state[name][labels], getattr(stack, name))


def rotating_inputs(n_chips, epoch):
    """One stressed-unit rotation shared by every chip of the stack."""
    stressing = np.zeros((n_chips, N_UNITS), dtype=bool)
    stressing[:, epoch % N_UNITS] = True
    stressing[:, (epoch + 1) % N_UNITS] = True
    capture = np.tile([6.0, 7.5, 9.0], (n_chips, 1))
    recovery = np.tile([2.0, 3.0, 40.0], (n_chips, 1))
    return stressing, capture, recovery


class TestTrajectoryClasses:
    def test_homogeneous_stack_advances_one_row_per_class(self):
        n_chips = 40
        pair = StackAndSingles(n_chips)

        def run():
            for epoch in range(12):
                pair.step(*rotating_inputs(n_chips, epoch))

        rows, advanced = advanced_rows(run)
        # Twelve steps of a 40-chip, 3-unit stack; its three units
        # each follow their own trajectory, on every chip alike.
        assert rows == 12 * n_chips * N_UNITS
        assert advanced <= 12 * N_UNITS
        pair.assert_match()

    def test_diverging_stress_splits_classes_and_still_matches(self):
        n_chips = 6
        pair = StackAndSingles(n_chips)
        for epoch in range(4):
            pair.step(*rotating_inputs(n_chips, epoch))
        # Chips 0-2 stop stressing unit 2 from here on; chip 5 also
        # runs hotter, which changes its sub-step count.
        for epoch in range(4, 10):
            stressing, capture, recovery = rotating_inputs(n_chips, epoch)
            stressing[:3, 2] = False
            capture[5] *= 30.0
            pair.step(stressing, capture, recovery)
        _, advanced = advanced_rows(
            lambda: pair.step(*rotating_inputs(n_chips, 10)))
        assert N_UNITS < advanced < n_chips * N_UNITS
        pair.assert_match()

    def test_crossing_the_cut_over_drops_the_map(self):
        n_chips = 8
        pair = StackAndSingles(n_chips)
        for epoch in range(3):
            pair.step(*rotating_inputs(n_chips, epoch))
        # Per-chip capture scales: every row its own class, past half
        # the rows, so the stack goes per row for good ...
        stressing, capture, recovery = rotating_inputs(n_chips, 3)
        scaled = capture * np.linspace(1.0, 1.5, n_chips)[:, None]
        _, advanced = advanced_rows(
            lambda: pair.step(stressing, scaled, recovery))
        assert advanced == n_chips * N_UNITS
        # ... even when every chip sees the same inputs again.
        _, advanced = advanced_rows(
            lambda: pair.step(*rotating_inputs(n_chips, 4)))
        assert advanced == n_chips * N_UNITS
        for epoch in range(5, 9):
            pair.step(*rotating_inputs(n_chips, epoch))
        pair.assert_match()

    def test_signed_zero_rows_stay_in_separate_classes(self):
        stack = StackedTrapPopulations(2, 1)
        stressing = np.ones((2, 1), dtype=bool)
        capture = np.array([[-0.0], [0.0]])
        _, advanced = advanced_rows(
            lambda: stack.step(DT_S, stressing, capture, np.ones((2, 1))))
        assert advanced == 2
        for i, value in enumerate((-0.0, 0.0)):
            single = StackedTrapPopulations(1, 1)
            single.step(DT_S, stressing[:1], np.array([[value]]),
                        np.ones((1, 1)))
            for name in ("occupancy", "age_s", "weights", "permanent_v"):
                assert_bitwise(getattr(stack, name)[i:i + 1],
                               getattr(single, name))

    def test_repeated_kernel_key_after_a_split_rebuilds(self):
        n_chips = 5
        cached = StackAndSingles(n_chips, kernel_cache_size=8)
        uncached = StackedTrapPopulations(n_chips, N_UNITS)
        schedule = [("even", rotating_inputs(n_chips, 0)),
                    ("odd", rotating_inputs(n_chips, 1))]
        split = rotating_inputs(n_chips, 2)
        split[0][0] = ~split[0][0]
        schedule += [("split", split)] + schedule * 3
        for key, inputs in schedule:
            cached.step(*inputs, kernel_key=key)
            uncached.step(DT_S, *inputs)
        for name in ("occupancy", "age_s", "weights", "permanent_v"):
            assert_bitwise(getattr(cached.stack, name),
                           getattr(uncached, name))
        cached.assert_match()

    def test_saved_homogeneous_session_continues_bitwise(self, tmp_path):
        def make():
            return FleetSession((2, 2), 12, ConstantWorkload(4, 0.7),
                                RoundRobinRecoveryPolicy(recovery_slots=1),
                                record_every=2)

        session = make()
        rows, advanced = advanced_rows(lambda: session.advance(6))
        assert advanced < rows
        path = tmp_path / "session.npz"
        session.save(path)
        session.advance(5)
        resumed = FleetSession.load(path)
        rows, advanced = advanced_rows(lambda: resumed.advance(5))
        assert advanced < rows  # a restored stack keeps its classes
        expected, got = session.result(), resumed.result()
        for name in ("times_s", "worst_degradation", "mean_degradation",
                     "final_delta_vth_v", "final_permanent_vth_v",
                     "final_em_drift_ohm", "em_failures"):
            assert_bitwise(getattr(got, name), getattr(expected, name))
        single = FleetSession((2, 2), 1, ConstantWorkload(4, 0.7),
                              RoundRobinRecoveryPolicy(recovery_slots=1),
                              record_every=2)
        single.advance(11)
        for row in got.final_delta_vth_v:
            assert_bitwise(row, single.result().final_delta_vth_v[0])


class TestStateAccess:
    def test_per_row_reads_are_read_only(self):
        for n_chips in (1, 3):
            stack = StackedTrapPopulations(n_chips, N_UNITS)
            stack.step(DT_S, *rotating_inputs(n_chips, 0))
            with pytest.raises(ValueError):
                stack.occupancy[0, 0] = 1.0
            assert stack.occupancy.shape == (n_chips * N_UNITS, 64)

    def test_load_state_refuses_a_bad_layout_before_writing(self):
        stack = StackedTrapPopulations(3, N_UNITS)
        stack.step(DT_S, *rotating_inputs(3, 0))
        before = stack.state_arrays()
        truncated = dict(before, occupancy=before["occupancy"][:-1])
        with pytest.raises(SimulationError, match="occupancy"):
            stack.load_state(truncated)
        missing = {k: v for k, v in before.items() if k != "age_s"}
        with pytest.raises(SimulationError, match="age_s"):
            stack.load_state(missing)
        after = stack.state_arrays()
        for name, array in before.items():
            assert_bitwise(after[name], array)


def refused_mappings():
    """Label maps a 3-chip, 3-unit stack must refuse, by what is wrong.

    Each takes the stack's own (valid) compact state and breaks one
    thing.  The stack's rotating inputs give it three classes of nine
    rows, so a four-row state is the most a class map may hold.
    """
    def out_of_range(state):
        labels = state["labels"].copy()
        labels[4] = 3
        return dict(state, labels=labels)

    def negative(state):
        labels = state["labels"].copy()
        labels[0] = -1
        return dict(state, labels=labels)

    def missing_class(state):
        labels = state["labels"].copy()
        labels[labels == 2] = 1
        return dict(state, labels=labels)

    def int32_labels(state):
        return dict(state, labels=state["labels"].astype(np.int32))

    def float_labels(state):
        return dict(state, labels=state["labels"].astype(np.float64))

    def short_labels(state):
        return dict(state, labels=state["labels"][:-1])

    def too_many_classes(state):
        # Five state rows for nine stack rows: past the cut-over.
        rows = np.arange(5) % 3
        grown = {name: state[name][rows]
                 for name in ("weights", "occupancy", "age_s",
                              "permanent_v")}
        labels = np.array([0, 1, 2, 3, 4, 0, 1, 2, 0], dtype=np.int64)
        return dict(state, labels=labels, **grown)

    return {"out of range": (out_of_range, "labels must lie"),
            "negative": (negative, "labels must lie"),
            "missing class": (missing_class, "every class"),
            "int32 labels": (int32_labels, "labels"),
            "float labels": (float_labels, "labels"),
            "short labels": (short_labels, "labels"),
            "too many classes": (too_many_classes, "1 to 4 classes")}


class TestCompactState:
    def test_a_homogeneous_stack_saves_one_row_per_class(self):
        stack = StackedTrapPopulations(40, N_UNITS)
        for epoch in range(4):
            stack.step(DT_S, *rotating_inputs(40, epoch))
        state = stack.state_arrays()
        assert state["weights"].shape == (N_UNITS, 64)
        assert state["permanent_v"].shape == (N_UNITS,)
        # Every chip's units map to the same three classes.
        first = state["labels"][:N_UNITS]
        assert sorted(first) == list(range(N_UNITS))
        assert_bitwise(state["labels"], np.tile(first, 40))

    @pytest.mark.parametrize("n_chips", [1, 8])
    def test_a_per_row_stack_saves_the_identity_map(self, n_chips):
        stack = StackedTrapPopulations(n_chips, N_UNITS)
        stressing, capture, recovery = rotating_inputs(n_chips, 0)
        # Per-chip scales put every row in its own class.
        capture = capture * np.linspace(1.0, 1.5, n_chips)[:, None]
        stack.step(DT_S, stressing, capture, recovery)
        state = stack.state_arrays()
        rows = n_chips * N_UNITS
        assert state["weights"].shape == (rows, 64)
        assert_bitwise(state["labels"], np.arange(rows, dtype=np.int64))

    def test_a_loaded_stack_keeps_its_classes_and_continues_bitwise(self):
        n_chips = 30
        pair = StackAndSingles(n_chips)
        for epoch in range(5):
            pair.step(*rotating_inputs(n_chips, epoch))
        loaded = StackedTrapPopulations(n_chips, N_UNITS)
        loaded.load_state(pair.stack.state_arrays())
        for epoch in range(5, 12):
            inputs = rotating_inputs(n_chips, epoch)
            _, advanced = advanced_rows(
                lambda: loaded.step(DT_S, *inputs))
            assert advanced == N_UNITS
            pair.step(*inputs)
        for name, array in pair.stack.state_arrays().items():
            assert_bitwise(loaded.state_arrays()[name], array)
        pair.assert_match()

    def test_a_load_never_reuses_a_kernel_of_the_old_partition(self):
        # The rotating inputs depend on the epoch modulo the unit
        # count, so ``epoch % N_UNITS`` identifies their content.
        n_chips = 12
        pair = StackAndSingles(n_chips, kernel_cache_size=8)
        for epoch in range(N_UNITS):
            pair.step(*rotating_inputs(n_chips, epoch),
                      kernel_key=epoch % N_UNITS)
        # The same trajectories under another class numbering: the
        # cached kernels of the same keys hold the old row order.
        state = pair.stack.state_arrays()
        order = np.arange(state["weights"].shape[0])[::-1]
        renumbered = {name: state[name][order]
                      for name in ("weights", "occupancy", "age_s",
                                   "permanent_v")}
        renumbered.update(time_s=state["time_s"],
                          labels=np.argsort(order)[state["labels"]])
        pair.stack.load_state(renumbered)
        for epoch in range(N_UNITS, 4 * N_UNITS):
            pair.step(*rotating_inputs(n_chips, epoch),
                      kernel_key=epoch % N_UNITS)
        pair.assert_match()

    def test_a_split_after_the_load_still_matches(self):
        n_chips = 6
        pair = StackAndSingles(n_chips)
        for epoch in range(3):
            pair.step(*rotating_inputs(n_chips, epoch))
        state = pair.stack.state_arrays()
        pair.stack = StackedTrapPopulations(n_chips, N_UNITS)
        pair.stack.load_state(state)
        for epoch in range(3, 9):
            stressing, capture, recovery = rotating_inputs(n_chips, epoch)
            stressing[:2, 2] = False
            pair.step(stressing, capture, recovery)
        pair.assert_match()

    @pytest.mark.parametrize("case", sorted(refused_mappings()))
    def test_load_state_refuses_a_bad_label_map_before_writing(self, case):
        breaker, message = refused_mappings()[case]
        stack = StackedTrapPopulations(3, N_UNITS)
        stack.step(DT_S, *rotating_inputs(3, 0))
        before = stack.state_arrays()
        with pytest.raises(SimulationError, match=message):
            stack.load_state(breaker(before))
        after = stack.state_arrays()
        for name, array in before.items():
            assert_bitwise(after[name], array)
        # The refused load left the class map too: one row per class.
        _, advanced = advanced_rows(
            lambda: stack.step(DT_S, *rotating_inputs(3, 1)))
        assert advanced == N_UNITS

    def test_a_one_chip_stack_refuses_a_class_map(self):
        stack = StackedTrapPopulations(1, N_UNITS)
        stack.step(DT_S, *rotating_inputs(1, 0))
        before = stack.state_arrays()
        offered = {name: before[name][:1]
                   for name in ("weights", "occupancy", "age_s",
                                "permanent_v")}
        offered.update(time_s=before["time_s"],
                       labels=np.zeros(N_UNITS, dtype=np.int64))
        with pytest.raises(SimulationError, match="one-chip"):
            stack.load_state(offered)
        for name, array in before.items():
            assert_bitwise(stack.state_arrays()[name], array)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("n_chips", [1, 3])
    @pytest.mark.parametrize("dt_s", [float("nan"), float("inf")])
    def test_step_refuses_a_non_finite_length(self, n_chips, dt_s):
        stack = StackedTrapPopulations(n_chips, N_UNITS)
        with pytest.raises(SimulationError, match="dt_s"):
            stack.step(dt_s, *rotating_inputs(n_chips, 0))
        assert stack.time_s == 0.0

    @pytest.mark.parametrize("n_chips", [1, 3])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_step_refuses_a_non_finite_sub_step_count(self, n_chips, bad):
        stack = StackedTrapPopulations(n_chips, N_UNITS)
        stressing, capture, recovery = rotating_inputs(n_chips, 0)
        capture[0, 0] = bad  # unit 0 is stressing
        with pytest.raises(SimulationError, match="sub-step count"):
            stack.step(DT_S, stressing, capture, recovery)
        assert stack.time_s == 0.0
