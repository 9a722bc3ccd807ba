"""Snapshot format, incremental sessions and checkpointed studies.

The checkpoint layer promises (ISSUE 10 / PR 10):

* **a versioned, checksummed snapshot format** -- torn, tampered,
  foreign or wrong-schema files fail loudly as ``CheckpointError``,
  never load as skewed state;
* **bitwise resume** -- a :class:`FleetSession` restored from a
  snapshot (in-memory or from disk, homogeneous or heterogeneous
  groups) continues bit-identically to a session that was never
  interrupted, and a refused restore leaves the session untouched;
* **study fingerprinting** -- a checkpoint directory is pinned to one
  study's SHA-256 digest, so resuming a *different* study against it
  is refused instead of mixing state.

Kill-and-resume of whole studies (SIGKILL mid-lifetime, pooled
workers) lives in tests/test_checkpoint_resume.py.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

import repro.system.checkpoint as checkpoint_module
import repro.system.fleet as fleet_module
from repro.errors import CheckpointError, SimulationError
from repro.system.checkpoint import (
    FleetSession,
    FleetSnapshot,
    read_snapshot,
    resume_fleet_lifetime_study,
    write_snapshot,
)
from repro.system.fleet import (
    FleetGroup,
    FleetVariationSpec,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.workload import ConstantWorkload, RandomWorkload

N_CORES = 4  # 2x2 grid

#: Worker count of the pooled cases; the CI fault-injection job pins
#: it to 2 so small runners still exercise the pool path.
WORKERS = int(os.environ.get("REPRO_SWEEP_TEST_WORKERS", "2"))

RESULT_ARRAYS = (
    "times_s", "worst_degradation", "mean_degradation",
    "dropped_demand", "final_delta_vth_v", "final_permanent_vth_v",
    "final_em_drift_ohm", "em_failures", "migration_events",
    "total_demand", "total_dropped_demand")

VARIATION = FleetVariationSpec(capture_sigma=0.1,
                               recovery_sigma=0.05,
                               em_current_sigma=0.1)


def workload():
    # Stateful AR(1) stream: its RNG position is part of the
    # resumable state, so a restore that dropped it would diverge.
    return RandomWorkload(n_cores=N_CORES, seed=3)


def policy():
    # Stateful rotation cursor, same reasoning.
    return RoundRobinRecoveryPolicy(recovery_slots=1)


def hetero_groups():
    return (
        FleetGroup(n_chips=4, workload=workload(), policy=policy(),
                   phases=(0, 0, 1, 1), name="rotating"),
        FleetGroup(n_chips=2,
                   workload=ConstantWorkload(n_cores=N_CORES,
                                             utilization=0.7),
                   policy=NoRecoveryPolicy(), name="control"),
    )


def make_session(**overrides):
    kwargs = dict(record_every=2, variation=VARIATION, seed=7)
    kwargs.update(overrides)
    if "groups" in kwargs:
        return FleetSession((2, 2), **kwargs)
    kwargs.setdefault("policy", policy())
    return FleetSession((2, 2), 6, workload(), **kwargs)


def assert_results_bitwise_equal(a, b):
    for field in RESULT_ARRAYS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field
    assert a.n_epochs == b.n_epochs


# -- the snapshot file format ----------------------------------------------


class TestSnapshotFormat:
    ARRAYS = {
        "a/f64": np.linspace(0.0, 1.0, 7),
        "a/f32": np.linspace(0.0, 1.0, 5, dtype=np.float32),
        "b/bool": np.array([True, False, True]),
        "b/i64": np.arange(6, dtype=np.int64).reshape(2, 3),
        "c/bytes": np.frombuffer(b"pickled payload", dtype=np.uint8),
    }
    META = {"kind": "test", "epoch": 3, "nested": {"x": [1, 2]}}

    def test_round_trip_is_bitwise(self, tmp_path):
        path = tmp_path / "snap.npz"
        write_snapshot(path, self.ARRAYS, self.META)
        arrays, meta = read_snapshot(path)
        assert meta == self.META
        assert set(arrays) == set(self.ARRAYS)
        for name, original in self.ARRAYS.items():
            assert arrays[name].dtype == original.dtype, name
            assert np.array_equal(arrays[name], original), name

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        write_snapshot(tmp_path / "snap.npz", self.ARRAYS, self.META)
        assert os.listdir(tmp_path) == ["snap.npz"]

    def test_reserved_and_non_array_names_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            write_snapshot(tmp_path / "bad.npz",
                           {"__meta__": np.zeros(1)}, {})
        with pytest.raises(CheckpointError, match="not an ndarray"):
            write_snapshot(tmp_path / "bad.npz", {"x": [1, 2]}, {})

    def test_missing_and_garbage_files_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_snapshot(tmp_path / "nope.npz")
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match="cannot read"):
            read_snapshot(garbage)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(CheckpointError,
                           match="not a fleet checkpoint"):
            read_snapshot(path)

    def test_schema_version_gate_is_strict(self, tmp_path,
                                           monkeypatch):
        path = tmp_path / "future.npz"
        monkeypatch.setattr(
            checkpoint_module, "CHECKPOINT_SCHEMA_VERSION",
            checkpoint_module.CHECKPOINT_SCHEMA_VERSION + 1)
        write_snapshot(path, self.ARRAYS, self.META)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="schema"):
            read_snapshot(path)

    def test_tampered_array_fails_the_checksum(self, tmp_path):
        path = tmp_path / "snap.npz"
        write_snapshot(path, self.ARRAYS, self.META)
        with np.load(path, allow_pickle=False) as data:
            payload = {name: data[name] for name in data.files}
        tampered = payload["a/f64"].copy()
        tampered[0] += 1e-9
        payload["a/f64"] = tampered
        np.savez(path, **payload)  # keeps the stale checksum
        with pytest.raises(CheckpointError, match="checksum"):
            read_snapshot(path)

    def test_fleet_snapshot_object_round_trips(self, tmp_path):
        path = tmp_path / "snap.npz"
        FleetSnapshot(arrays=dict(self.ARRAYS),
                      meta=dict(self.META)).save(path)
        loaded = FleetSnapshot.load(path)
        assert loaded.meta == self.META
        assert np.array_equal(loaded.arrays["b/i64"],
                              self.ARRAYS["b/i64"])


# -- incremental sessions ---------------------------------------------------


class TestFleetSession:
    def test_session_matches_one_shot_run_groups(self):
        session = make_session().advance(6)
        reference = run_fleet_lifetime_study(
            (2, 2), 6, workload(), policy(), n_epochs=6,
            record_every=2, variation=VARIATION, seed=7,
            max_workers=1)
        assert_results_bitwise_equal(session.result(), reference)

    def test_split_advance_equals_one_advance(self):
        split = make_session().advance(2).advance(1).advance(3)
        whole = make_session().advance(6)
        assert_results_bitwise_equal(split.result(), whole.result())

    def test_queries_between_advances_do_not_perturb(self):
        probed = make_session()
        for _ in range(3):
            probed.advance(2)
            probed.delta_vth_quantile(0.5)
            probed.guardband_quantile(0.99)
            probed.delta_vth_v()
            probed.guardbands
        clean = make_session().advance(6)
        assert_results_bitwise_equal(probed.result(), clean.result())

    def test_snapshot_restore_continues_bitwise(self):
        session = make_session().advance(3)
        snapshot = session.snapshot()
        session.advance(3)
        reference = session.result()
        resumed = make_session()
        resumed.restore(snapshot)
        assert resumed.epoch == 3
        resumed.advance(3)
        assert_results_bitwise_equal(resumed.result(), reference)

    def test_restore_rewinds_a_diverged_session(self):
        session = make_session().advance(3)
        snapshot = session.snapshot()
        session.advance(3)
        reference = session.result()
        session.advance(6)  # diverge past the snapshot
        session.restore(snapshot)
        session.advance(3)
        assert_results_bitwise_equal(session.result(), reference)

    def test_save_load_rebuilds_in_a_fresh_session(self, tmp_path):
        path = tmp_path / "session.npz"
        session = make_session().advance(3)
        session.save(path)
        session.advance(3)
        reference = session.result()
        # load() needs no construction arguments: the spec is
        # embedded in the snapshot.
        loaded = FleetSession.load(path)
        assert loaded.epoch == 3
        assert loaded.n_chips == 6 and loaded.n_cores == N_CORES
        loaded.advance(3)
        assert_results_bitwise_equal(loaded.result(), reference)

    def test_heterogeneous_groups_round_trip(self, tmp_path):
        path = tmp_path / "hetero.npz"
        session = make_session(groups=hetero_groups()).advance(3)
        session.save(path)
        session.advance(3)
        reference = session.result()
        loaded = FleetSession.load(path).advance(3)
        assert_results_bitwise_equal(loaded.result(), reference)

    def test_restore_refuses_a_different_study(self):
        snapshot = make_session().advance(2).snapshot()
        other = FleetSession((2, 2), 9, workload(), policy(),
                             record_every=2, variation=VARIATION,
                             seed=7)
        with pytest.raises(CheckpointError, match="n_chips"):
            other.restore(snapshot)
        cadence = make_session(record_every=3)
        with pytest.raises(CheckpointError, match="record_every"):
            cadence.restore(snapshot)
        # Same geometry, another policy: only the study fingerprint
        # tells the snapshot apart, and adopting it would run the
        # snapshot's policy under this session's study.
        control = make_session(policy=NoRecoveryPolicy())
        with pytest.raises(CheckpointError, match="different study"):
            control.restore(snapshot)

    def test_refused_foreign_restore_leaves_the_session_intact(self):
        # A same-geometry snapshot of another policy passes every
        # layout check; the fingerprint refuses it before any write.
        foreign = make_session(policy=NoRecoveryPolicy()).advance(3)
        session = make_session().advance(3)
        with pytest.raises(CheckpointError, match="different study"):
            session.restore(foreign.snapshot())
        session.advance(2)
        untouched = make_session().advance(3).advance(2)
        assert_results_bitwise_equal(session.result(),
                                     untouched.result())

    def test_refused_truncated_restore_leaves_the_session_intact(self):
        # A snapshot of the same study, two epochs further on, with
        # its last state array removed: refused before any write.
        snapshot = make_session().advance(5).snapshot()
        del snapshot.arrays["run/total_dropped"]
        session = make_session().advance(3)
        with pytest.raises(CheckpointError, match="missing array"):
            session.restore(snapshot)
        session.advance(2)
        untouched = make_session().advance(3).advance(2)
        assert_results_bitwise_equal(session.result(),
                                     untouched.result())

    def test_guardbands_cover_live_degradation(self):
        session = make_session(record_every=64)  # nothing recorded
        session.advance(3)
        bands = session.guardbands
        assert bands.shape == (6,)
        assert np.all(bands > 0.0)
        assert session.guardband_quantile(1.0) == bands.max()

    def test_validation(self):
        with pytest.raises(SimulationError):
            make_session().advance(0)
        with pytest.raises(SimulationError):
            make_session().delta_vth_quantile(1.5)
        with pytest.raises(SimulationError):
            make_session().guardband_quantile(-0.1)
        with pytest.raises(SimulationError):
            FleetSession((2, 2))  # neither groups nor trio
        with pytest.raises(SimulationError):
            FleetSession((2, 2), 6, workload(), policy(),
                         groups=hetero_groups())
        with pytest.raises(SimulationError):
            make_session().result()  # nothing advanced yet

    def test_load_refuses_a_plain_run_snapshot(self, tmp_path):
        session = make_session().advance(2)
        snapshot = session.snapshot()
        del snapshot.arrays["session/spec"]
        path = tmp_path / "stripped.npz"
        snapshot.save(path)
        with pytest.raises(CheckpointError, match="session spec"):
            FleetSession.load(path)


# -- checkpointed studies ---------------------------------------------------


def run_study(**overrides):
    kwargs = dict(
        n_chips=8, workload=workload(), policy=policy(),
        n_epochs=6, record_every=2, variation=VARIATION, seed=7,
        max_chunk_chips=3, max_workers=0)
    kwargs.update(overrides)
    return run_fleet_lifetime_study((2, 2), **kwargs)


class TestCheckpointedStudy:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        plain = run_study()
        checkpointed = run_study(checkpoint_dir=tmp_path / "ckpt",
                                 checkpoint_every=2)
        assert_results_bitwise_equal(plain, checkpointed)

    def test_rerun_restores_every_chunk_from_cache(self, tmp_path,
                                                   monkeypatch):
        # The serial stream and the pool restore a complete directory
        # through the same loop and report it the same way.
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
        for workers in (1, WORKERS):
            directory = tmp_path / f"ckpt-{workers}"
            first = run_study(checkpoint_dir=directory,
                              max_workers=workers)
            reports = []
            again = run_study(checkpoint_dir=directory,
                              max_workers=workers,
                              on_report=reports.append)
            assert_results_bitwise_equal(first, again)
            (report,) = reports
            assert report.mode == "fleet"
            assert all(chunk.executed_in == "cached"
                       for chunk in report.chunks)
            assert report.serial_reason == \
                "every chunk restored from checkpoint"
            assert report.n_chunks == 3

    def test_partial_pooled_rerun_lists_chunks_in_order(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
        directory = tmp_path / "ckpt"
        first = run_study(checkpoint_dir=directory)
        for index in (0, 2):
            os.remove(directory / f"chunk-{index:05d}.result.npz")
        reports = []
        again = run_study(checkpoint_dir=directory,
                          max_workers=WORKERS,
                          on_report=reports.append)
        assert_results_bitwise_equal(first, again)
        (report,) = reports
        assert report.mode == "fleet+pool"
        assert [chunk.index for chunk in report.chunks] == [0, 1, 2]
        assert [chunk.executed_in for chunk in report.chunks] == \
            ["pool", "cached", "pool"]
        assert report.cache_counters["fleet.engine"]["chunks"] == 3

    @pytest.mark.parametrize("invalid", [
        dict(n_epochs=0), dict(record_every=0), dict(epoch_s=-1.0)])
    def test_invalid_study_writes_no_file(self, tmp_path, invalid):
        # An invalid study is refused before its directory is pinned,
        # so the corrected call can still use the same directory.
        directory = tmp_path / "ckpt"

        def small(**overrides):
            return run_fleet_lifetime_study(
                (2, 2), 3, ConstantWorkload(4, 0.5),
                NoRecoveryPolicy(), max_workers=1,
                checkpoint_dir=directory, **overrides)

        with pytest.raises(SimulationError):
            small(**{"n_epochs": 2, **invalid})
        assert not directory.exists()
        assert small(n_epochs=2).n_epochs == 2

    def test_resume_entry_point_needs_only_the_directory(
            self, tmp_path):
        directory = tmp_path / "ckpt"
        first = run_study(checkpoint_dir=directory)
        resumed = resume_fleet_lifetime_study(directory,
                                              max_workers=0)
        assert_results_bitwise_equal(first, resumed)

    def test_directory_is_pinned_to_one_study(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        with pytest.raises(CheckpointError, match="different study"):
            run_study(checkpoint_dir=directory, seed=8)

    def test_checkpoint_every_requires_a_directory(self):
        with pytest.raises(SimulationError,
                           match="requires checkpoint_dir"):
            run_study(checkpoint_every=2)

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(SimulationError, match="at least 1"):
            run_study(checkpoint_dir=tmp_path / "ckpt",
                      checkpoint_every=0)

    def test_resume_of_an_empty_directory_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            resume_fleet_lifetime_study(tmp_path)

    def test_unpicklable_study_refused_up_front(self, tmp_path):
        class Unpicklable(RoundRobinRecoveryPolicy):
            def __reduce__(self):
                raise TypeError("refuses to pickle")

        with pytest.raises(CheckpointError, match="picklable"):
            run_study(policy=Unpicklable(recovery_slots=1),
                      checkpoint_dir=tmp_path / "ckpt")

    def test_chunk_result_files_are_real_snapshots(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        names = sorted(os.listdir(directory))
        assert names == ["chunk-00000.result.npz",
                         "chunk-00001.result.npz",
                         "chunk-00002.result.npz",
                         "manifest.json", "study.pkl"]
        arrays, meta = read_snapshot(
            directory / "chunk-00001.result.npz")
        assert meta["kind"] == "fleet-chunk-result"
        assert meta["chunk_index"] == 1
        assert arrays["result/final_delta_vth_v"].shape == (3,
                                                            N_CORES)

    def test_study_spec_round_trips_through_pickle(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        with open(directory / "study.pkl", "rb") as handle:
            spec = pickle.load(handle)
        assert spec["study"].n_epochs == 6
        assert spec["checkpoint_every"] is None
        chip = spec["study"].chip
        assert chip.rows == 2 and chip.cols == 2


# -- the lifetime-sweep route ----------------------------------------------


class TestSweepCheckpointRoute:
    GRID = dict(
        policies={"none": NoRecoveryPolicy()},
        workloads={"flat": ConstantWorkload(n_cores=4,
                                            utilization=0.5)},
        chips=[(2, 2)], n_epochs=4, seed=None)

    def test_fleet_route_forwards_checkpointing(self, tmp_path):
        from repro.system.sweeps import run_lifetime_sweep
        directory = tmp_path / "ckpt"
        first = run_lifetime_sweep(checkpoint_dir=directory,
                                   **self.GRID)
        assert (directory / "manifest.json").exists()
        reports = []
        again = run_lifetime_sweep(checkpoint_dir=directory,
                                   on_report=reports.append,
                                   **self.GRID)
        assert all(chunk.executed_in == "cached"
                   for chunk in reports[0].chunks)
        assert [cell.guardband for cell in again.cells] == \
            [cell.guardband for cell in first.cells]

    def test_incompatible_grid_refuses_checkpointing(self, tmp_path):
        from repro.system.sweeps import run_lifetime_sweep
        grid = dict(self.GRID)
        grid["chips"] = [(2, 2), (3, 3)]  # two designs -> two studies
        with pytest.raises(SimulationError, match="cannot run on it"):
            run_lifetime_sweep(checkpoint_dir=tmp_path, **grid)
