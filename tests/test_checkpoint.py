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

import hashlib
import io
import json
import os
import pickle
import tracemalloc
import zipfile

import numpy as np
import pytest

import repro.system.checkpoint as checkpoint_module
import repro.system.fleet as fleet_module
from repro.errors import CheckpointError, SimulationError
from repro.solvers import cache_counters
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


def read_members(path):
    """The members of a snapshot archive and its parsed ``__meta__``."""
    with np.load(path, allow_pickle=False) as data:
        members = {name: data[name] for name in data.files}
    return members, json.loads(members["__meta__"].tobytes())


def _npy(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def write_members(path, members):
    with open(path, "wb") as handle:
        np.savez(handle, **members)


def tamper_array(path, name, edit):
    """Change the bytes of array ``name`` inside ``__data__`` in place
    with ``edit(view)``, keeping the snapshot's stale checksum."""
    members, meta_full = read_members(path)
    data = members["__data__"].copy()
    _, dtype, shape, offset = next(row for row in meta_full["arrays"]
                                   if row[0] == name)
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    edit(data[offset:offset + nbytes].view(dtype))
    members["__data__"] = data
    write_members(path, members)


class TestSnapshotFormat:
    ARRAYS = {
        "a/f64": np.linspace(0.0, 1.0, 7),
        "a/f32": np.linspace(0.0, 1.0, 5, dtype=np.float32),
        "b/bool": np.array([True, False, True]),
        "b/i64": np.arange(6, dtype=np.int64).reshape(2, 3),
        "c/bytes": np.frombuffer(b"pickled payload", dtype=np.uint8),
        "d/empty": np.zeros((0, 3)),
        "d/scalar": np.array(2.5),
        "d/big_endian": np.arange(3, dtype=">i4"),
        "d/complex": np.array([1 + 2j, -0.5j]),
        "d/transposed": np.arange(12.0).reshape(3, 4).T,
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
            assert arrays[name].shape == original.shape, name
            assert np.array_equal(arrays[name], original), name

    def test_a_file_holds_one_data_block(self, tmp_path):
        path = tmp_path / "snap.npz"
        write_snapshot(path, self.ARRAYS, self.META)
        with zipfile.ZipFile(path) as archive:
            assert sorted(archive.namelist()) == [
                "__checksum__.npy", "__data__.npy", "__meta__.npy"]
        _, meta_full = read_members(path)
        assert [row[0] for row in meta_full["arrays"]] == sorted(
            self.ARRAYS)
        assert all(row[3] % 16 == 0 for row in meta_full["arrays"])
        # Every array is a view of the one block: no per-array copy.
        arrays, _ = read_snapshot(path)
        bases = set()
        for array in arrays.values():
            while array.base is not None:
                array = array.base
            bases.add(id(array))
        assert len(bases) == 1

    def test_the_writer_makes_no_staging_copy(self, tmp_path):
        # The data block streams from the arrays themselves, so writing
        # a 32 MiB state allocates nothing near its size.
        state = {"big": np.ones(4 * 1024 ** 2), "small": np.arange(3)}
        tracemalloc.start()
        try:
            write_snapshot(tmp_path / "big.npz", state, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 ** 2
        arrays, _ = read_snapshot(tmp_path / "big.npz")
        assert np.array_equal(arrays["big"], state["big"])

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        write_snapshot(tmp_path / "snap.npz", self.ARRAYS, self.META)
        assert os.listdir(tmp_path) == ["snap.npz"]

    def test_reserved_and_non_array_names_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            write_snapshot(tmp_path / "bad.npz",
                           {"__meta__": np.zeros(1)}, {})
        with pytest.raises(CheckpointError, match="not an ndarray"):
            write_snapshot(tmp_path / "bad.npz", {"x": [1, 2]}, {})
        for array in (np.array(["text"]), np.array([{}], dtype=object),
                      np.zeros(2, dtype=[("a", "<f8")])):
            with pytest.raises(CheckpointError, match="non-numeric"):
                write_snapshot(tmp_path / "bad.npz", {"x": array}, {})
        assert os.listdir(tmp_path) == []

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
        # A bare ``.npy`` array under a snapshot's name is foreign too.
        with open(path, "wb") as handle:
            np.save(handle, np.zeros(3))
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

        def nudge(values):
            values[0] += 1e-9

        tamper_array(path, "a/f64", nudge)
        with pytest.raises(CheckpointError, match="checksum"):
            read_snapshot(path)

    def test_a_v8_file_is_refused_with_the_schema_message(
            self, tmp_path, monkeypatch):
        # The schema v8 layout: one member per array next to
        # ``__meta__`` and ``__checksum__``.
        path = tmp_path / "v8.npz"
        meta = json.dumps({"magic": checkpoint_module._MAGIC, "schema": 8,
                           "meta": self.META}).encode("utf-8")
        write_members(path, {
            **self.ARRAYS,
            "__meta__": np.frombuffer(meta, dtype=np.uint8),
            "__checksum__": np.frombuffer(b"0" * 64, dtype=np.uint8)})
        with pytest.raises(CheckpointError, match="schema v8"):
            read_snapshot(path)
        # v9 has this build's file layout; its cohort state pickled
        # one (workload, policy) pair per cohort.
        path = tmp_path / "v9.npz"
        monkeypatch.setattr(checkpoint_module,
                            "CHECKPOINT_SCHEMA_VERSION", 9)
        write_snapshot(path, self.ARRAYS, self.META)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="schema v9"):
            read_snapshot(path)

    def test_fleet_snapshot_object_round_trips(self, tmp_path):
        path = tmp_path / "snap.npz"
        FleetSnapshot(arrays=dict(self.ARRAYS),
                      meta=dict(self.META)).save(path)
        loaded = FleetSnapshot.load(path)
        assert loaded.meta == self.META
        assert np.array_equal(loaded.arrays["b/i64"],
                              self.ARRAYS["b/i64"])


def _row(table, name):
    return next(row for row in table if row[0] == name)


def _set_dtype(dtype):
    def edit(members, table):
        _row(table, "a")[1] = dtype
    return edit


def _set_shape(shape):
    def edit(members, table):
        _row(table, "b")[2] = shape
    return edit


def _offset_past_the_block(members, table):
    _row(table, "b")[3] = members["__data__"].size + 16


def _extent_past_the_block(members, table):
    _row(table, "b")[2] = [members["__data__"].size]


def _duplicate_name(members, table):
    _row(table, "b")[0] = "a"


def _reserved_name(members, table):
    _row(table, "a")[0] = "__data__"


def _extra_member(members, table):
    members["extra"] = np.zeros(3)


def _missing_data(members, table):
    del members["__data__"]


class TestHostileSnapshotTables:
    """A table that lies about the block is refused, even when the
    file's checksum holds: the checksum proves who wrote the bytes,
    not that they are safe to read."""

    @pytest.mark.parametrize("edit, match", [
        pytest.param(_set_dtype("|O8"), "non-numeric", id="object-dtype"),
        pytest.param(_set_dtype("V8"), "non-numeric", id="void-dtype"),
        pytest.param(_set_dtype([["a", "<f8"]]), "non-numeric",
                     id="structured-dtype"),
        pytest.param(_set_shape([-1]), "shape", id="negative-dim"),
        pytest.param(_set_shape([3.0]), "shape", id="float-dim"),
        pytest.param(_set_shape([3] + [1] * 64), "dimension",
                     id="too-many-dims"),
        pytest.param(_offset_past_the_block, "offset",
                     id="offset-past-block"),
        pytest.param(_extent_past_the_block, "outside the",
                     id="extent-past-block"),
        pytest.param(_duplicate_name, "twice", id="duplicate-name"),
        pytest.param(_reserved_name, "'__data__'", id="reserved-name"),
        pytest.param(_extra_member, "members", id="extra-member"),
        pytest.param(_missing_data, "members", id="missing-data"),
    ])
    def test_a_hostile_table_is_refused(self, tmp_path, monkeypatch,
                                        edit, match):
        path = tmp_path / "hostile.npz"
        write_snapshot(path, {"a": np.arange(3.0),
                              "b": np.arange(3, dtype=np.int64)},
                       {"kind": "test"})
        members, meta_full = read_members(path)
        edit(members, meta_full["arrays"])
        meta = json.dumps(meta_full).encode("utf-8")
        data = members.get("__data__", np.zeros(0, dtype=np.uint8))
        digest = hashlib.sha256(meta + data.tobytes()).hexdigest()
        members["__meta__"] = np.frombuffer(meta, dtype=np.uint8)
        members["__checksum__"] = np.frombuffer(digest.encode("ascii"),
                                                dtype=np.uint8)
        write_members(path, members)
        unpickled = []

        def refuse(*args, **kwargs):
            unpickled.append(args)
            raise AssertionError("read_snapshot unpickled data")

        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        with pytest.raises(CheckpointError, match=match):
            read_snapshot(path)
        assert unpickled == []

    @pytest.mark.parametrize("member", ["__data__", "__meta__"])
    def test_a_member_that_is_not_a_byte_array_is_refused(self, tmp_path,
                                                          member):
        path = tmp_path / "raw.npz"
        write_snapshot(path, {"a": np.arange(3.0)}, {"kind": "test"})
        members, _ = read_members(path)
        # A member without the npy header reads back as raw bytes.
        with zipfile.ZipFile(path, "w") as archive:
            for name, array in members.items():
                archive.writestr(f"{name}.npy", array.tobytes()
                                 if name == member else _npy(array))
        with pytest.raises(CheckpointError, match="byte string"):
            read_snapshot(path)

    def test_deeply_nested_meta_is_refused(self, tmp_path):
        path = tmp_path / "nested.npz"
        nested = b"[" * 100_000 + b"]" * 100_000
        write_members(path, {"__meta__": np.frombuffer(nested,
                                                       dtype=np.uint8)})
        with pytest.raises(CheckpointError, match="cannot read"):
            read_snapshot(path)


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
        # The study fingerprint pins the geometry and the cadence, and
        # it also tells apart a same-geometry study of another policy,
        # whose snapshot would run its policy under this session's
        # study.
        cadence = make_session(record_every=3)
        control = make_session(policy=NoRecoveryPolicy())
        for session in (other, cadence, control):
            with pytest.raises(CheckpointError, match="different study"):
                session.restore(snapshot)
            assert session.epoch == 0

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

    def test_refused_trap_state_restore_leaves_the_session_intact(self):
        # The trap stack checks its own arrays; a wrong layout is
        # refused after every other check and still before any write.
        snapshot = make_session().advance(5).snapshot()
        snapshot.arrays["bti/age_s"] = snapshot.arrays["bti/age_s"][:-1]
        session = make_session().advance(3)
        with pytest.raises(CheckpointError, match="age_s"):
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

    def test_directory_keeps_its_partition(self, tmp_path, monkeypatch):
        # The first invocation pins 3-chip chunks.  Re-invocations
        # whose limits or worker count plan another partition adopt
        # the stored one: a complete directory restores every chunk,
        # a partial one recomputes only its missing chunk.
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
        monkeypatch.setattr(fleet_module, "available_cpus",
                            lambda: WORKERS)
        directory = tmp_path / "ckpt"
        first = run_study(checkpoint_dir=directory)
        for overrides in (dict(max_chunk_chips=None),
                          dict(max_chunk_chips=None, state_budget_bytes=1),
                          dict(max_chunk_chips=None, max_workers=WORKERS)):
            reports = []
            again = run_study(checkpoint_dir=directory,
                              on_report=reports.append, **overrides)
            assert_results_bitwise_equal(first, again)
            (report,) = reports
            assert report.n_chunks == 3
            assert all(chunk.executed_in == "cached"
                       for chunk in report.chunks)
        os.remove(directory / "chunk-00001.result.npz")
        reports = []
        again = run_study(checkpoint_dir=directory, max_chunk_chips=None,
                          max_workers=WORKERS, on_report=reports.append)
        assert_results_bitwise_equal(first, again)
        (report,) = reports
        assert [chunk.executed_in for chunk in report.chunks] == \
            ["cached", "serial", "cached"]
        assert report.serial_reason == "single chunk"
        assert read_snapshot(directory / "study.npz")[1]["chunk_chips"] \
            == 3

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
                         "chunk-00002.result.npz", "study.npz"]
        arrays, meta = read_snapshot(
            directory / "chunk-00001.result.npz")
        assert meta["kind"] == "fleet-chunk-result"
        assert meta["chunk_index"] == 1
        assert arrays["result/final_delta_vth_v"].shape == (3,
                                                            N_CORES)

    def test_a_restored_result_keeps_no_view_of_its_file(
            self, tmp_path, monkeypatch):
        # A snapshot's arrays are views of its one data block, so a
        # restored result copies what it keeps: a view would hold the
        # whole block for as long as the result lives.
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory, max_chunk_chips=None)
        read = []

        def spy(path):
            arrays, meta = read_snapshot(path)
            read.extend(arrays.values())
            return arrays, meta

        monkeypatch.setattr(checkpoint_module, "read_snapshot", spy)
        result = run_study(checkpoint_dir=directory, max_chunk_chips=None)
        kept = [getattr(result, field) for field in RESULT_ARRAYS] + [
            getattr(result.variation, field)
            for field in ("capture_scale", "recovery_scale",
                          "em_current_scale")]
        assert read
        assert not any(np.shares_memory(mine, theirs)
                       for mine in kept for theirs in read)

    def test_study_spec_round_trips_through_pickle(self, tmp_path):
        # study.npz is a snapshot file like every other: the pickled
        # study is its one array, the execution layout its meta.
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        arrays, meta = read_snapshot(directory / "study.npz")
        assert set(arrays) == {"study"}
        assert set(meta) == {"kind", "digest", "chunk_chips",
                             "checkpoint_every"}
        assert meta["kind"] == "fleet-study"
        assert meta["chunk_chips"] == 3
        assert meta["checkpoint_every"] is None
        study = pickle.loads(arrays["study"].tobytes())
        assert study.n_epochs == 6
        assert study.chip.rows == 2 and study.chip.cols == 2


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
        assert (directory / "study.npz").exists()
        reports = []
        again = run_lifetime_sweep(checkpoint_dir=directory,
                                   on_report=reports.append,
                                   **self.GRID)
        assert all(chunk.executed_in == "cached"
                   for chunk in reports[0].chunks)
        assert [cell.guardband for cell in again.cells] == \
            [cell.guardband for cell in first.cells]

    def test_sweep_resumes_at_another_worker_count(self, tmp_path,
                                                   monkeypatch):
        # Above the (lowered) gate two workers cut the design's four
        # fleet chips into two chunks; the directory keeps them, so
        # the sweep re-invoked at one worker, or at the default,
        # restores both instead of refusing the directory.
        from repro.system.chip import ChipConfig
        from repro.system.sweeps import run_lifetime_sweep
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
        monkeypatch.setattr(fleet_module, "available_cpus", lambda: 2)
        grid = dict(self.GRID, workloads={
            "flat": ConstantWorkload(n_cores=4, utilization=0.5),
            "busy": ConstantWorkload(n_cores=4, utilization=0.9)},
            chips=[ChipConfig(2, 2, name="a"), ChipConfig(2, 2, name="b")])
        directory = tmp_path / "ckpt"
        reports = []
        first = run_lifetime_sweep(checkpoint_dir=directory, max_workers=2,
                                   on_report=reports.append, **grid)
        (report,) = reports
        assert report.mode == "fleet+pool"
        assert report.n_chunks == 2
        for workers in (1, None):
            reports = []
            again = run_lifetime_sweep(checkpoint_dir=directory,
                                       max_workers=workers,
                                       on_report=reports.append, **grid)
            assert again.cells == first.cells
            (report,) = reports
            assert report.n_chunks == 2
            assert [chunk.executed_in for chunk in report.chunks] == \
                ["cached", "cached"]

    def test_incompatible_grid_refuses_checkpointing(self, tmp_path):
        from repro.system.sweeps import run_lifetime_sweep
        grid = dict(self.GRID)
        grid["chips"] = [(2, 2), (3, 3)]  # two designs -> two studies
        with pytest.raises(SimulationError, match="cannot run on it"):
            run_lifetime_sweep(checkpoint_dir=tmp_path, **grid)


# -- malformed snapshots and study files ------------------------------------


def write_raw_snapshot(path, meta_full):
    """An ``.npz`` whose ``__meta__`` holds ``meta_full`` as JSON."""
    meta = np.frombuffer(json.dumps(meta_full).encode("utf-8"),
                         dtype=np.uint8)
    np.savez(path, x=np.zeros(3), __meta__=meta)


def assert_refused_restore_leaves_the_session_intact(edit, match):
    """A snapshot of the same study, two epochs on, broken by ``edit``,
    is refused with ``CheckpointError`` before any write."""
    snapshot = make_session().advance(5).snapshot()
    edit(snapshot)
    session = make_session().advance(3)
    with pytest.raises(CheckpointError, match=match):
        session.restore(snapshot)
    session.advance(2)
    untouched = make_session().advance(3).advance(2)
    assert_results_bitwise_equal(session.result(), untouched.result())


class TestMalformedSnapshots:
    @pytest.mark.parametrize("meta_full", [[1, 2], "fleet", 7, None])
    def test_a_meta_that_is_not_an_object_is_refused(self, tmp_path,
                                                     meta_full):
        path = tmp_path / "odd.npz"
        write_raw_snapshot(path, meta_full)
        with pytest.raises(CheckpointError,
                           match="not a fleet checkpoint"):
            read_snapshot(path)

    @pytest.mark.parametrize("block", [None, [], "meta"])
    def test_a_meta_without_its_block_is_refused(self, tmp_path, block):
        path = tmp_path / "odd.npz"
        meta_full = {"magic": checkpoint_module._MAGIC,
                     "schema": checkpoint_module.CHECKPOINT_SCHEMA_VERSION}
        if block is not None:
            meta_full["meta"] = block
        write_raw_snapshot(path, meta_full)
        with pytest.raises(CheckpointError, match="no meta block"):
            read_snapshot(path)

    @pytest.mark.parametrize("epoch", ["abc", 2.5, -1, True, None])
    def test_a_malformed_epoch_is_refused(self, epoch):
        def edit(snapshot):
            snapshot.meta["epoch"] = epoch
        assert_refused_restore_leaves_the_session_intact(edit, "epoch")

    def test_records_of_the_wrong_length_are_refused(self):
        def edit(snapshot):
            snapshot.arrays["run/worst"] = snapshot.arrays["run/worst"][1:]
        assert_refused_restore_leaves_the_session_intact(edit, "run/worst")

    @pytest.mark.parametrize("name, cut", [
        ("cohorts/previous_recovering", lambda a: a[1:]),
        ("cohorts/previous_recovering", lambda a: a.astype(float)),
        ("cohorts/previous_utilization", lambda a: a[:, 1:]),
        ("readout/temps", lambda a: a[0]),
    ])
    def test_per_core_arrays_of_the_wrong_layout_are_refused(self, name,
                                                             cut):
        def edit(snapshot):
            snapshot.arrays[name] = cut(snapshot.arrays[name])
        assert_refused_restore_leaves_the_session_intact(
            edit, f"{name}' has layout")

    def test_foreign_cohort_state_is_refused(self):
        def edit(snapshot):
            snapshot.arrays["cohorts/state"] = np.frombuffer(
                pickle.dumps({"not": "pairs"}), dtype=np.uint8)
        assert_refused_restore_leaves_the_session_intact(
            edit, "cohort layout")

    def test_truncated_cohort_state_is_refused(self):
        def edit(snapshot):
            snapshot.arrays["cohorts/state"] = \
                snapshot.arrays["cohorts/state"][:10]
        assert_refused_restore_leaves_the_session_intact(edit, "corrupt")

    @pytest.mark.parametrize("name, cut", [
        ("result/final_delta_vth_v", lambda a: a[:1]),
        ("result/worst_degradation", lambda a: a[:, :1]),
        ("result/times_s", lambda a: np.array(a[0])),
        ("variation/capture_scale", lambda a: a[1:]),
    ])
    def test_a_re_checksummed_result_without_its_chips_is_refused(
            self, tmp_path, name, cut):
        # A result file rewritten with a valid checksum must still
        # hold one row per chip of its chunk, or the merged study
        # would silently lose chips.
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        path = directory / "chunk-00001.result.npz"
        arrays, meta = read_snapshot(path)
        arrays[name] = cut(arrays[name])
        write_snapshot(path, arrays, meta)
        with pytest.raises(CheckpointError, match="the chunk holds 3"):
            run_study(checkpoint_dir=directory)

    @pytest.mark.parametrize("manifest", ["[1]", '"study"', "null",
                                          b"\xff\xfe"])
    def test_a_manifest_that_is_not_an_object_is_refused(self, tmp_path,
                                                         manifest):
        # The directory's manifest is its study.npz; bytes that are not
        # a snapshot there are refused before any write.
        directory = tmp_path / "ckpt"
        directory.mkdir()
        path = directory / "study.npz"
        if isinstance(manifest, bytes):
            path.write_bytes(manifest)
        else:
            path.write_text(manifest)
        with pytest.raises(CheckpointError, match="study.npz"):
            resume_fleet_lifetime_study(directory)
        with pytest.raises(CheckpointError, match="study.npz"):
            run_study(checkpoint_dir=directory)
        assert os.listdir(directory) == ["study.npz"]


# -- per-class snapshots ---------------------------------------------------


class _Interrupt(BaseException):
    """Cuts a checkpointed run short after a progress snapshot (a
    ``BaseException``, so the chunk loop does not retry it)."""


def homogeneous_study(**overrides):
    # No variation and one cohort: every chip is one chip class.
    kwargs = dict(n_chips=12, workload=ConstantWorkload(N_CORES, 0.7),
                  policy=policy(), n_epochs=8, record_every=2,
                  max_workers=0)
    kwargs.update(overrides)
    return run_fleet_lifetime_study((2, 2), **kwargs)


def homogeneous_session():
    return FleetSession((2, 2), 12, ConstantWorkload(N_CORES, 0.7),
                        policy(), record_every=2)


#: Every per-class array of a run snapshot, by its class-row count
#: per class (trap and EM rows are per core).
CLASS_ROWS = {"bti/weights": N_CORES, "bti/occupancy": N_CORES,
              "bti/age_s": N_CORES, "bti/permanent_v": N_CORES,
              "em/progress_s": N_CORES, "em/nucleated": N_CORES,
              "em/void_reversible_m": N_CORES,
              "em/void_locked_m": N_CORES,
              "run/migration_events": 1, "run/total_demand": 1,
              "run/total_dropped": 1}


def assert_older_snapshot_refused(tmp_path, monkeypatch, schema):
    """A session snapshot stamped with an older schema is refused."""
    path = tmp_path / f"v{schema}.npz"
    snapshot = make_session().advance(2).snapshot()
    monkeypatch.setattr(checkpoint_module,
                        "CHECKPOINT_SCHEMA_VERSION", schema)
    snapshot.save(path)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match=f"schema v{schema}"):
        FleetSession.load(path)


def assert_older_directory_refused(tmp_path, monkeypatch, schema):
    """A directory whose study file is stamped with an older schema
    is refused by the resume entry point and by a re-invoked study,
    before any write."""
    directory = tmp_path / "ckpt"
    run_study(checkpoint_dir=directory)
    os.remove(directory / "chunk-00001.result.npz")
    path = directory / "study.npz"
    arrays, meta = read_snapshot(path)
    monkeypatch.setattr(checkpoint_module,
                        "CHECKPOINT_SCHEMA_VERSION", schema)
    write_snapshot(path, arrays, meta)
    monkeypatch.undo()
    before = sorted(os.listdir(directory))
    with pytest.raises(CheckpointError, match=f"schema v{schema}"):
        resume_fleet_lifetime_study(directory)
    with pytest.raises(CheckpointError, match=f"schema v{schema}"):
        run_study(checkpoint_dir=directory)
    assert sorted(os.listdir(directory)) == before


class TestPerClassSnapshots:
    def test_a_homogeneous_session_snapshot_stores_one_class(self):
        snapshot = homogeneous_session().advance(3).snapshot()
        arrays = snapshot.arrays
        assert not [name for name in arrays if "labels" in name]
        for name, rows in CLASS_ROWS.items():
            assert arrays[name].shape[0] == rows, name
        assert arrays["run/worst"].shape == (1, 1)
        # The draw stays per chip: it is the study's input.
        assert arrays["variation/capture_scale"].shape == (12,)

    def test_a_varied_session_snapshot_stores_every_chip(self):
        snapshot = make_session().advance(3).snapshot()
        for name, rows in CLASS_ROWS.items():
            assert snapshot.arrays[name].shape[0] == 6 * rows, name
        assert snapshot.arrays["run/worst"].shape == (1, 6)

    def test_an_interrupted_homogeneous_study_resumes_on_classes(
            self, tmp_path, monkeypatch):
        directory = tmp_path / "ckpt"
        plain = homogeneous_study()
        real = checkpoint_module.save_chunk_progress

        def interrupting(ckpt, index, run):
            real(ckpt, index, run)
            raise _Interrupt()

        monkeypatch.setattr(checkpoint_module, "save_chunk_progress",
                            interrupting)
        with pytest.raises(_Interrupt):
            homogeneous_study(checkpoint_dir=directory,
                              checkpoint_every=4)
        monkeypatch.undo()
        arrays, meta = read_snapshot(directory
                                     / "chunk-00000.progress.npz")
        assert meta["epoch"] == 4
        assert set(meta) == {"kind", "epoch", "digest", "chunk_index"}
        assert arrays["bti/weights"].shape[0] == N_CORES
        # The only chunk resumes from epoch 4 on its one class.
        reports = []
        resumed = homogeneous_study(checkpoint_dir=directory,
                                    checkpoint_every=4,
                                    on_report=reports.append)
        assert reports[0].cache_counters["fleet.engine"]["classes"] == 1
        assert_results_bitwise_equal(plain, resumed)

    @pytest.mark.parametrize("break_rows", ["bti", "em", "run"])
    def test_rows_of_other_classes_are_refused_before_writing(
            self, break_rows):
        # The same study two epochs on, stored as if each chip were a
        # class of its own (the rows a per-chip layout would write).
        snapshot = homogeneous_session().advance(5).snapshot()
        n_chips = 12
        for name, rows in CLASS_ROWS.items():
            if name.startswith(break_rows + "/"):
                snapshot.arrays[name] = np.repeat(
                    snapshot.arrays[name], n_chips, axis=0)
        session = homogeneous_session().advance(3)
        with pytest.raises(CheckpointError):
            session.restore(snapshot)
        session.advance(2)
        untouched = homogeneous_session().advance(5)
        assert_results_bitwise_equal(session.result(), untouched.result())

    def test_a_snapshot_of_another_draw_is_refused(self):
        # The session fingerprint leaves the drawn variation out, so the
        # draw itself must match: the run's classes follow from it.
        snapshot = make_session().advance(3).snapshot()
        other = make_session(variation=FleetVariationSpec(
            capture_sigma=0.2))
        with pytest.raises(CheckpointError, match="variation draw"):
            other.restore(snapshot)
        assert other.epoch == 0

    def test_a_v5_snapshot_is_refused(self, tmp_path, monkeypatch):
        assert_older_snapshot_refused(tmp_path, monkeypatch, 5)

    def test_a_v5_directory_is_refused(self, tmp_path, monkeypatch):
        assert_older_directory_refused(tmp_path, monkeypatch, 5)


class TestSnapshotLayout:
    """Schema v7 and on: the simulator's own state arrays, one table row
    per array whatever the cohort count, and a study file that is a
    snapshot like every other."""

    def test_member_names_do_not_grow_with_the_cohorts(self, tmp_path):
        phased = FleetSession(
            (2, 2), groups=(FleetGroup(
                n_chips=61, workload=workload(), policy=policy(),
                phases=tuple(range(61))),),
            record_every=2, variation=VARIATION, seed=7).advance(3)
        assert phased.snapshot().arrays[
            "cohorts/previous_recovering"].shape == (61, N_CORES)
        names = []
        for index, session in enumerate((make_session().advance(3),
                                         phased)):
            path = tmp_path / f"session-{index}.npz"
            session.save(path)
            arrays, meta = read_snapshot(path)
            names.append(set(arrays))
            assert set(meta) == {"kind", "epoch", "digest"}
        assert names[0] == names[1]

    def test_an_epoch_zero_snapshot_restores_no_readout(self, tmp_path):
        path = tmp_path / "fresh.npz"
        make_session().save(path)
        session = make_session().advance(3)
        session.restore(path)
        simulator = session._simulator
        assert session.epoch == 0
        assert simulator.cohort_temps is None
        assert not simulator.previous_utilization.any()
        assert not simulator.previous_recovering.any()
        session.advance(3)
        assert_results_bitwise_equal(session.result(),
                                     make_session().advance(3).result())

    def test_a_study_file_with_a_flipped_byte_is_refused(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        os.remove(directory / "chunk-00001.result.npz")
        path = directory / "study.npz"

        def flip(study):
            study[study.size // 2] ^= 1

        tamper_array(path, "study", flip)

        def contents():
            return {name: (directory / name).read_bytes()
                    for name in os.listdir(directory)}

        before = contents()
        with pytest.raises(CheckpointError, match="checksum"):
            resume_fleet_lifetime_study(directory)
        with pytest.raises(CheckpointError, match="checksum"):
            run_study(checkpoint_dir=directory)
        assert contents() == before

    @pytest.mark.parametrize("key, value", [
        ("chunk_chips", "3"), ("chunk_chips", 2.5), ("chunk_chips", 0),
        ("checkpoint_every", "2"), ("checkpoint_every", 0)])
    def test_a_malformed_study_meta_is_refused(self, tmp_path, key,
                                               value):
        # Re-written through write_snapshot, so the checksum holds:
        # the meta values themselves are checked where the directory
        # is re-opened, before any write.
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        os.remove(directory / "chunk-00001.result.npz")
        path = directory / "study.npz"
        arrays, meta = read_snapshot(path)
        write_snapshot(path, arrays, {**meta, key: value})
        before = sorted(os.listdir(directory))
        with pytest.raises(CheckpointError, match=key):
            resume_fleet_lifetime_study(directory)
        with pytest.raises(CheckpointError, match=key):
            run_study(checkpoint_dir=directory)
        assert sorted(os.listdir(directory)) == before

    def test_a_study_file_of_another_kind_is_refused(self, tmp_path):
        # A valid snapshot that is not a study spec (here a chunk
        # result) in place of study.npz.
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        os.replace(directory / "chunk-00002.result.npz",
                   directory / "study.npz")
        with pytest.raises(CheckpointError, match="not a fleet study"):
            resume_fleet_lifetime_study(directory)
        with pytest.raises(CheckpointError, match="not a fleet study"):
            run_study(checkpoint_dir=directory)
        assert sorted(os.listdir(directory)) == [
            "chunk-00000.result.npz", "chunk-00001.result.npz",
            "study.npz"]

    def test_a_v6_snapshot_is_refused(self, tmp_path, monkeypatch):
        assert_older_snapshot_refused(tmp_path, monkeypatch, 6)

    def test_a_v6_directory_is_refused(self, tmp_path, monkeypatch):
        assert_older_directory_refused(tmp_path, monkeypatch, 6)

    # v8 pickles the study with ChipConfig under repro.system.chip.
    def test_a_v7_snapshot_is_refused(self, tmp_path, monkeypatch):
        assert_older_snapshot_refused(tmp_path, monkeypatch, 7)

    def test_a_v7_directory_is_refused(self, tmp_path, monkeypatch):
        assert_older_directory_refused(tmp_path, monkeypatch, 7)

    # v10 pickles the cohort state as (per-cohort workloads, per-group
    # policies) instead of one (workload, policy) pair per cohort.
    def test_a_v9_snapshot_is_refused(self, tmp_path, monkeypatch):
        assert_older_snapshot_refused(tmp_path, monkeypatch, 9)

    def test_a_v9_directory_is_refused(self, tmp_path, monkeypatch):
        assert_older_directory_refused(tmp_path, monkeypatch, 9)


class TestSnapshotCounters:
    def test_writes_and_reads_are_counted_with_their_bytes(self,
                                                          tmp_path):
        path = tmp_path / "snap.npz"
        before = dict(cache_counters().get("checkpoint.snapshots", {}))
        write_snapshot(path, {"x": np.arange(100.0)}, {"kind": "test"})
        read_snapshot(path)
        read_snapshot(path)
        after = cache_counters()["checkpoint.snapshots"]
        size = os.path.getsize(path)
        expected = {"writes": 1, "bytes_written": size,
                    "reads": 2, "bytes_read": 2 * size}
        for key, value in expected.items():
            assert after[key] - before.get(key, 0) == value, key

    def test_pooled_chunks_report_their_snapshot_writes(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(fleet_module, "MIN_CORE_EPOCHS_FOR_POOL", 0)
        reports = []
        run_study(checkpoint_dir=tmp_path / "ckpt", checkpoint_every=2,
                  max_workers=WORKERS, on_report=reports.append)
        (report,) = reports
        assert report.mode == "fleet+pool"
        written = report.cache_counters["checkpoint.snapshots"]
        # Three chunks of six epochs: two progress snapshots and one
        # result file each.
        assert written["writes"] == 9
        assert written["bytes_written"] > 0
