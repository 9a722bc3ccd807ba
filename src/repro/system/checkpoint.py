"""Checkpoint/resume and incremental sessions for the fleet engine.

:func:`~repro.system.fleet.run_fleet_lifetime_study` is an
all-or-nothing batch call: a machine reboot at epoch 719 of 720 loses
everything.  This module makes fleet state durable and incremental --
the foundation of the ROADMAP's streaming fleet-reliability service:

* **Snapshot format.**  One snapshot is a plain ``.npz`` archive (no
  pickled object arrays -- loadable with ``allow_pickle=False``)
  carrying the full advancing state of a
  :class:`~repro.system.fleet.FleetSimulator` as the simulator stores
  it, one row per chip class -- the trap state, the EM accumulators,
  the demand/migration accumulators and the recorded timeline, so a
  fleet whose chips age alike writes a few rows, not one per chip --
  plus the per-chip variation draws, the per-cohort policy/workload
  copies with their RNG positions and rotation cursors (pickled into
  a byte array, since they are arbitrary user objects) and the epoch
  cursor.  The chip -> class map is not in the file: it is a pure
  function of the study (cohort layout and variation draw), which
  the restoring simulator recomputes, and a snapshot whose rows do
  not match its classes is refused.  Every file embeds a JSON
  meta block with a **schema version** (strictly gated on load: a
  snapshot written under any other version is refused, never
  reinterpreted) and a SHA-256 **checksum** over the meta and every
  array's raw bytes, so torn or corrupt files fail loudly as
  :class:`~repro.errors.CheckpointError` instead of silently skewing
  a population.  Files are written to a temp name and ``os.replace``d
  into place, so a SIGKILL mid-write can never leave a corrupt file
  under the final name.  Every write and read is counted (files and
  bytes) under ``checkpoint.snapshots`` in
  :func:`~repro.solvers.cache_counters`.

* **Checkpointed studies.**  A fleet study is one normalized,
  validated object (:class:`~repro.system.fleet._FleetStudy`).
  ``run_fleet_lifetime_study(..., checkpoint_dir=...,
  checkpoint_every=...)`` pins it in ``study.pkl`` and its SHA-256
  fingerprint with the chunk partition (:func:`study_digest`) in
  ``manifest.json``, so checkpoints never resume into a *different*
  study.  Finished chunks persist their
  :class:`~repro.system.fleet.FleetResult`, in-flight chunks snapshot
  their run every ``checkpoint_every`` epochs.  Re-invoking the study
  -- or :func:`resume_fleet_lifetime_study`, which replays the stored
  study from the directory alone -- runs the fleet's one chunk loop:
  the parent restores every complete chunk, then re-runs only the
  incomplete ones, bitwise-equal to an uninterrupted run.  A refused
  file raises :class:`~repro.errors.CheckpointError` on every path.

* **Incremental sessions.**  :class:`FleetSession` drives a fleet
  epoch-by-epoch without a pre-declared horizon: ``advance(n)``,
  quantile queries between calls, ``snapshot()`` / ``save()`` /
  ``restore()`` / ``load()`` for durable hand-off.  A session
  snapshot is self-contained (it embeds the session's study, with
  the drawn variation kept in the snapshot arrays), so
  ``FleetSession.load(path)`` rebuilds the session in a fresh
  process, and it carries the study's fingerprint, so ``restore()``
  refuses a snapshot of any other study.  A refused snapshot leaves
  the session untouched: every check runs before anything is written.

Bitwise invariance rests on one property, pinned by the checkpoint
tests: splitting ``FleetSimulator.advance`` at any epoch boundary is
exact, because every cross-epoch input is either stored in the
simulator (cohort cursors, accumulators, records) or recomputed as the
same pure function of the stored aging state.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import zipfile
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import units
from repro.errors import CheckpointError, SimulationError
from repro.solvers import record_counters
from repro.system.chip import Chip
from repro.system.fleet import (
    FleetGroup,
    FleetResult,
    FleetSimulator,
    FleetVariation,
    FleetVariationSpec,
    SchedulingPolicy,
    Workload,
    _ChunkCheckpoint,
    _FleetStudy,
    _fleet_study,
    _run_study,
    chip_classes,
)
from repro.system.sweeps import ChipConfig

#: Snapshot schema this build writes and (exclusively) reads.  The
#: gate is strict: a snapshot stamped with any other version raises
#: :class:`~repro.errors.CheckpointError` on load rather than being
#: reinterpreted under the wrong layout.
CHECKPOINT_SCHEMA_VERSION = 6

_MAGIC = "repro.fleet.checkpoint"
_STUDY_MAGIC = "repro.fleet.checkpoint-study"
_PICKLE_PROTOCOL = 4

_RUN_KINDS = ("fleet-run", "fleet-session", "fleet-chunk-progress")


# -- snapshot primitives ----------------------------------------------------


def _canonical_meta_bytes(meta_full: Dict[str, Any]) -> bytes:
    """Deterministic JSON encoding of the full meta block."""
    return json.dumps(meta_full, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _checksum(arrays: Dict[str, np.ndarray],
              meta_bytes: bytes) -> str:
    """SHA-256 over the meta bytes and every array's identity+bytes."""
    digest = hashlib.sha256()
    digest.update(meta_bytes)
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(array.dtype.str.encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        # Hash the buffer in place -- identical bytes to tobytes()
        # for a contiguous array, without materialising a copy.
        # (Zero-size buffers refuse the cast and hash no bytes anyway.)
        if array.size:
            digest.update(memoryview(array).cast("B"))
    return digest.hexdigest()


def write_snapshot(path, arrays: Dict[str, np.ndarray],
                   meta: Dict[str, Any]) -> None:
    """Atomically write one versioned, checksummed ``.npz`` snapshot.

    ``arrays`` maps names to numpy arrays (stored raw, so every dtype
    round-trips bit-exactly); ``meta`` is a JSON-encodable dict.  The
    magic, schema version and SHA-256 checksum are embedded as
    reserved ``__meta__`` / ``__checksum__`` entries; the file lands
    via temp-name + ``os.replace``, so readers never observe a
    partial write.
    """
    path = os.fspath(path)
    for name, array in arrays.items():
        if name.startswith("__"):
            raise CheckpointError(
                f"array name {name!r} is reserved")
        if not isinstance(array, np.ndarray):
            raise CheckpointError(
                f"snapshot entry {name!r} is not an ndarray")
    meta_full = {"magic": _MAGIC,
                 "schema": CHECKPOINT_SCHEMA_VERSION,
                 "meta": meta}
    meta_bytes = _canonical_meta_bytes(meta_full)
    checksum = _checksum(arrays, meta_bytes)
    payload = dict(arrays)
    payload["__meta__"] = np.frombuffer(meta_bytes, dtype=np.uint8)
    payload["__checksum__"] = np.frombuffer(
        checksum.encode("ascii"), dtype=np.uint8)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **payload)
            size = handle.tell()
        os.replace(tmp, path)
        record_counters("checkpoint.snapshots", writes=1,
                        bytes_written=size)
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass


def read_snapshot(path) -> Tuple[Dict[str, np.ndarray],
                                 Dict[str, Any]]:
    """Read a snapshot back, verifying magic, schema and checksum.

    Returns ``(arrays, meta)``.  Raises
    :class:`~repro.errors.CheckpointError` for anything short of a
    pristine snapshot of this build's schema version: unreadable or
    truncated files, foreign files, corrupt payloads (checksum
    mismatch), snapshots written under another schema version and
    meta blocks of the wrong shape.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
        with np.load(path, allow_pickle=False) as data:
            names = list(data.files)
            if "__meta__" not in names:
                raise CheckpointError(
                    f"{path} is not a fleet checkpoint snapshot")
            meta_bytes = data["__meta__"].tobytes()
            meta_full = json.loads(meta_bytes)
            if (not isinstance(meta_full, dict)
                    or meta_full.get("magic") != _MAGIC):
                raise CheckpointError(
                    f"{path} is not a fleet checkpoint snapshot")
            schema = meta_full.get("schema")
            if schema != CHECKPOINT_SCHEMA_VERSION:
                raise CheckpointError(
                    f"{path} was written under snapshot schema "
                    f"v{schema}; this build reads only "
                    f"v{CHECKPOINT_SCHEMA_VERSION}")
            if not isinstance(meta_full.get("meta"), dict):
                raise CheckpointError(
                    f"{path} has no meta block")
            stored = ""
            if "__checksum__" in names:
                stored = data["__checksum__"].tobytes().decode(
                    "ascii", errors="replace")
            arrays = {name: data[name] for name in names
                      if not name.startswith("__")}
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError,
            zipfile.BadZipFile, json.JSONDecodeError,
            UnicodeDecodeError) as error:
        raise CheckpointError(
            f"cannot read snapshot {path}: {error}") from error
    record_counters("checkpoint.snapshots", reads=1, bytes_read=size)
    if _checksum(arrays, _canonical_meta_bytes(meta_full)) != stored:
        raise CheckpointError(
            f"checksum mismatch in {path}: snapshot is corrupt")
    return arrays, meta_full["meta"]


@dataclass
class FleetSnapshot:
    """An in-memory fleet snapshot: named arrays plus a meta block.

    The in-memory twin of one snapshot file --
    :meth:`FleetSession.snapshot` produces one, :meth:`save` /
    :meth:`load` move it through the versioned, checksummed ``.npz``
    format of :func:`write_snapshot` / :func:`read_snapshot`.
    """

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any]

    def save(self, path) -> None:
        """Write the snapshot to ``path`` (atomic, checksummed)."""
        write_snapshot(path, self.arrays, self.meta)

    @classmethod
    def load(cls, path) -> "FleetSnapshot":
        """Read a snapshot file back (verifying schema + checksum)."""
        arrays, meta = read_snapshot(path)
        return cls(arrays=arrays, meta=meta)


# -- run state <-> snapshot -------------------------------------------------


_VARIATION_FIELDS = ("capture_scale", "recovery_scale",
                     "em_current_scale")

#: The fixed-layout arrays of a simulator's state, by owner: each is
#: saved as ``owner/name`` and restored in place.  The trap state is
#: saved as ``bti/name`` through the stack's own
#: ``state_arrays`` / ``load_state`` pair.  The per-chip variation
#: draw is saved as ``variation/name`` and must match the run's on
#: restore, since the run's chip classes follow from it.
_STATE_ARRAYS = (
    ("em", ("progress_s", "nucleated", "void_reversible_m",
            "void_locked_m")),
    ("run", ("migration_events", "total_demand", "total_dropped")),
)


def _state_owners(simulator: FleetSimulator) -> Dict[str, Any]:
    return {"em": simulator.em, "run": simulator}


def _snapshot_run(simulator: FleetSimulator) -> FleetSnapshot:
    """Capture the full advancing state of a :class:`FleetSimulator`."""
    n_classes = simulator.n_classes
    owners = _state_owners(simulator)
    arrays: Dict[str, np.ndarray] = {
        f"bti/{name}": array
        for name, array in simulator.bti.state_arrays().items()}
    arrays.update({
        f"{owner}/{name}": getattr(owners[owner], name).copy()
        for owner, names in _STATE_ARRAYS for name in names})
    arrays.update({
        f"variation/{name}": getattr(simulator.variation, name).copy()
        for name in _VARIATION_FIELDS})
    arrays.update({
        "em/time_s": np.array(simulator.em.time_s, dtype=np.float64),
        "run/times": np.array(simulator.times, dtype=np.float64),
        "run/worst": np.array(simulator.worst).reshape(-1, n_classes),
        "run/mean": np.array(simulator.mean).reshape(-1, n_classes),
        "run/dropped": np.array(simulator.dropped).reshape(-1, n_classes),
        "cohorts/state": np.frombuffer(
            pickle.dumps([(c.workload, c.policy)
                          for c in simulator.cohorts],
                         protocol=_PICKLE_PROTOCOL),
            dtype=np.uint8),
    })
    has_previous_utilization: List[bool] = []
    for index, cohort in enumerate(simulator.cohorts):
        arrays[f"cohort{index}/previous_recovering"] = \
            np.asarray(cohort.previous_recovering).copy()
        has_util = cohort.previous_utilization is not None
        has_previous_utilization.append(has_util)
        if has_util:
            arrays[f"cohort{index}/previous_utilization"] = \
                np.asarray(cohort.previous_utilization).copy()
    if simulator.cohort_temps is not None:
        for index, temps in enumerate(simulator.cohort_temps):
            arrays[f"readout/temps{index}"] = \
                np.asarray(temps, dtype=np.float64).copy()
    meta = {
        "kind": "fleet-run",
        "epoch": int(simulator.epoch),
        "n_epochs": (None if simulator.n_epochs is None
                     else int(simulator.n_epochs)),
        "record_every": int(simulator.record_every),
        "n_chips": int(simulator.n_chips),
        "n_cores": int(simulator.n_cores),
        "n_cohorts": len(simulator.cohorts),
        "cohort_bounds": [[int(c.start), int(c.stop)]
                          for c in simulator.cohorts],
        "n_classes": int(n_classes),
        "has_previous_utilization": has_previous_utilization,
        "has_readout": simulator.cohort_temps is not None,
        "epoch_s": float(simulator.epoch_s),
    }
    return FleetSnapshot(arrays=arrays, meta=meta)


def _restore_run(simulator: FleetSimulator, snapshot: FleetSnapshot,
                 digest: Optional[str] = None) -> None:
    """Overwrite a simulator's advancing state from a snapshot.

    The snapshot must come from the simulator's own study (geometry,
    cohort layout, cadence and, when ``digest`` is given, the study
    fingerprint).  Every check -- meta, fingerprint, the presence of
    every array and the layout of every array written in place --
    runs before anything is written, so a refused snapshot raises
    :class:`~repro.errors.CheckpointError` and leaves the simulator
    exactly as it was.
    """
    arrays, meta = snapshot.arrays, snapshot.meta
    kind = meta.get("kind") if isinstance(meta, dict) else None
    if kind not in _RUN_KINDS:
        raise CheckpointError(
            f"snapshot kind {kind!r} is not a fleet run")
    cohorts = simulator.cohorts
    expectations = (
        ("n_chips", simulator.n_chips),
        ("n_cores", simulator.n_cores),
        ("record_every", simulator.record_every),
        ("n_epochs", simulator.n_epochs),
        ("n_cohorts", len(cohorts)),
        ("cohort_bounds", [[c.start, c.stop] for c in cohorts]),
        ("n_classes", simulator.n_classes),
        ("epoch_s", float(simulator.epoch_s)),
    )
    for key, expected in expectations:
        if meta.get(key) != expected:
            raise CheckpointError(
                f"snapshot {key}={meta.get(key)!r} does not match "
                f"the run's {key}={expected!r}")
    if digest is not None and meta.get("digest") != digest:
        raise CheckpointError(
            "snapshot belongs to a different study (fingerprint "
            "mismatch); restore it into a session of that study")
    epoch, horizon = meta.get("epoch"), simulator.n_epochs
    if (type(epoch) is not int or epoch < 0
            or (horizon is not None and epoch > horizon)):
        raise CheckpointError(
            f"snapshot epoch={epoch!r} is not an epoch of the run")
    has_util = meta.get("has_previous_utilization")
    if (not isinstance(has_util, list) or len(has_util) != len(cohorts)
            or any(type(flag) is not bool for flag in has_util)):
        raise CheckpointError(
            "snapshot has_previous_utilization must hold one flag per "
            "cohort")
    if type(meta.get("has_readout")) is not bool:
        raise CheckpointError("snapshot has_readout must be a flag")
    owners = _state_owners(simulator)
    try:
        copies = [(getattr(owners[owner], name),
                   arrays[f"{owner}/{name}"], f"{owner}/{name}")
                  for owner, names in _STATE_ARRAYS for name in names]
        scales = [(arrays[f"variation/{name}"],
                   getattr(simulator.variation, name))
                  for name in _VARIATION_FIELDS]
        em_time_s = float(arrays["em/time_s"])
        times = [float(stamp) for stamp in arrays["run/times"]]
        records = []
        for name in ("worst", "mean", "dropped"):
            rows = arrays[f"run/{name}"]
            if rows.shape != (len(times), simulator.n_classes):
                raise CheckpointError(
                    f"snapshot array 'run/{name}' has shape "
                    f"{rows.shape}, not one row per record")
            records.append([np.array(row) for row in rows])
        previous = [
            (arrays[f"cohort{index}/previous_recovering"].copy(),
             arrays[f"cohort{index}/previous_utilization"].copy()
             if has_util[index] else None)
            for index in range(len(cohorts))]
        cohort_temps = None
        if meta["has_readout"]:
            cohort_temps = [arrays[f"readout/temps{index}"].copy()
                            for index in range(len(cohorts))]
        state = arrays["cohorts/state"].tobytes()
    except KeyError as error:
        raise CheckpointError(
            f"snapshot is missing array {error}") from error
    except (TypeError, ValueError, AttributeError) as error:
        raise CheckpointError(
            f"snapshot arrays are malformed: {error}") from error
    try:
        pairs = pickle.loads(state)
    except Exception as error:
        raise CheckpointError(
            f"snapshot cohort state is corrupt: {error}") from error
    if (not isinstance(pairs, list) or len(pairs) != len(cohorts)
            or any(not isinstance(pair, tuple) or len(pair) != 2
                   for pair in pairs)):
        raise CheckpointError(
            "snapshot cohort state does not match the run's "
            "cohort layout")
    # Every array written in place keeps its layout, and the
    # per-cohort arrays the next epoch reads hold one entry per core.
    core = (simulator.n_cores,)
    layouts = [(name, source, destination.shape, destination.dtype)
               for destination, source, name in copies]
    for index, (recovering, utilization) in enumerate(previous):
        layouts.append((f"cohort{index}/previous_recovering",
                        recovering, core, np.dtype(bool)))
        if utilization is not None:
            layouts.append((f"cohort{index}/previous_utilization",
                            utilization, core, utilization.dtype))
    for index, temps in enumerate(cohort_temps or ()):
        layouts.append((f"readout/temps{index}", temps, core,
                        temps.dtype))
    for name, source, shape, dtype in layouts:
        if source.shape != shape or source.dtype != dtype:
            raise CheckpointError(
                f"snapshot array {name!r} has layout "
                f"{source.dtype}{source.shape}, run expects "
                f"{dtype}{shape}")
    # The run's chip classes follow from its variation draw, so the
    # snapshot's rows belong to this run only under the same draw.
    for source, own in scales:
        if (source.shape != own.shape or source.dtype != own.dtype
                or source.tobytes() != own.tobytes()):
            raise CheckpointError(
                "snapshot variation draw differs from the run's; "
                "restore it into a session of that draw")
    # The trap stack checks its arrays before it writes any, and it is
    # the first write, so a refusal still leaves the run as it was.
    try:
        simulator.bti.load_state(
            {name[len("bti/"):]: array for name, array in arrays.items()
             if name.startswith("bti/")})
    except SimulationError as error:
        raise CheckpointError(f"snapshot trap state: {error}") from error
    # Every check passed; nothing below can refuse the snapshot.
    for destination, source, _ in copies:
        destination[...] = source
    simulator.em.time_s = em_time_s
    simulator.times = times
    simulator.worst, simulator.mean, simulator.dropped = records
    for cohort, (workload, policy), (recovering, utilization) in zip(
            cohorts, pairs, previous):
        cohort.workload = workload
        cohort.policy = policy
        cohort.previous_recovering = recovering
        cohort.previous_utilization = utilization
    simulator.cohort_temps = cohort_temps
    simulator.epoch = epoch


# -- chunk result <-> snapshot ----------------------------------------------

_RESULT_FIELDS = (
    "times_s", "worst_degradation", "mean_degradation",
    "dropped_demand", "final_delta_vth_v", "final_permanent_vth_v",
    "final_em_drift_ohm", "em_failures", "migration_events",
    "total_demand", "total_dropped_demand",
)


_RECORD_FIELDS = ("worst_degradation", "mean_degradation",
                  "dropped_demand")


def _result_to_arrays(result: FleetResult,
                      study: _FleetStudy) -> Dict[str, np.ndarray]:
    """Flatten a chunk's :class:`FleetResult` into snapshot arrays.

    The chips of one class hold bitwise-equal results, so each chip
    array keeps one row per class (its first chip's); the per-chip
    variation draw is kept whole, since the classes follow from it.
    """
    _, class_chip = chip_classes(study.chip_cohort(), result.variation)
    arrays = {"result/times_s": result.times_s}
    for name in _RESULT_FIELDS[1:]:
        value = getattr(result, name)
        arrays[f"result/{name}"] = (value[:, class_chip]
                                    if name in _RECORD_FIELDS
                                    else value[class_chip])
    for name in _VARIATION_FIELDS:
        arrays[f"variation/{name}"] = getattr(result.variation, name)
    return arrays


def _arrays_to_result(arrays: Dict[str, np.ndarray], n_epochs: int,
                      study: _FleetStudy) -> FleetResult:
    """Rebuild the :class:`FleetResult` of the chunk ``study`` from its
    snapshot arrays, refusing any array without its class or chip
    axis."""
    try:
        fields = {name: arrays[f"result/{name}"]
                  for name in _RESULT_FIELDS}
        scales = {name: arrays[f"variation/{name}"]
                  for name in _VARIATION_FIELDS}
    except KeyError as error:
        raise CheckpointError(
            f"chunk result is missing array {error}") from error
    n_chips = study.n_chips
    for name, array in scales.items():
        if array.shape != (n_chips,):
            raise CheckpointError(
                f"chunk result array {name!r} has shape {array.shape}; "
                f"the chunk holds {n_chips} chips")
    try:
        variation = FleetVariation(**scales)
    except SimulationError as error:
        raise CheckpointError(f"chunk result: {error}") from error
    chip_class, class_chip = chip_classes(study.chip_cohort(), variation)
    n_classes = class_chip.size
    # ``times_s`` comes first, so a timeline that is not 1-D is
    # reported under its own name.
    n_records = fields["times_s"].shape
    for name, array in fields.items():
        lead = (n_records + (n_classes,) if name in _RECORD_FIELDS
                else n_records if name == "times_s" else (n_classes,))
        if len(n_records) != 1 or array.shape[:len(lead)] != lead:
            raise CheckpointError(
                f"chunk result array {name!r} has shape {array.shape}; "
                f"the chunk holds {n_classes} chip classes")
    for name in _RESULT_FIELDS[1:]:
        fields[name] = (fields[name][:, chip_class]
                        if name in _RECORD_FIELDS
                        else fields[name][chip_class])
    return FleetResult(variation=variation, n_epochs=n_epochs, **fields)


def _result_path(ckpt: _ChunkCheckpoint, index: int) -> str:
    return os.path.join(ckpt.directory,
                        f"chunk-{index:05d}.result.npz")


def _progress_path(ckpt: _ChunkCheckpoint, index: int) -> str:
    return os.path.join(ckpt.directory,
                        f"chunk-{index:05d}.progress.npz")


def save_chunk_result(ckpt: _ChunkCheckpoint, index: int,
                      result: FleetResult, study: _FleetStudy) -> None:
    """Persist the finished result of chunk ``study``; drops its
    progress file."""
    meta = {"kind": "fleet-chunk-result", "digest": ckpt.digest,
            "chunk_index": int(index),
            "n_epochs": int(result.n_epochs)}
    write_snapshot(_result_path(ckpt, index),
                   _result_to_arrays(result, study), meta)
    try:
        os.remove(_progress_path(ckpt, index))
    except OSError:
        pass


def load_chunk_result(ckpt: _ChunkCheckpoint, index: int,
                      study: _FleetStudy) -> Optional[FleetResult]:
    """The persisted result of chunk ``study``, or ``None`` if not
    finished."""
    path = _result_path(ckpt, index)
    if not os.path.exists(path):
        return None
    arrays, meta = read_snapshot(path)
    if (meta.get("kind") != "fleet-chunk-result"
            or meta.get("chunk_index") != index):
        raise CheckpointError(
            f"{path} is not the result of chunk {index}")
    if meta.get("digest") != ckpt.digest:
        raise CheckpointError(
            f"{path} belongs to a different study "
            "(fingerprint mismatch)")
    if type(meta.get("n_epochs")) is not int:
        raise CheckpointError(f"{path} has no epoch count")
    return _arrays_to_result(arrays, meta["n_epochs"], study)


def save_chunk_progress(ckpt: _ChunkCheckpoint, index: int,
                        simulator: FleetSimulator) -> None:
    """Snapshot one chunk's in-flight run (atomic overwrite)."""
    snapshot = _snapshot_run(simulator)
    snapshot.meta["kind"] = "fleet-chunk-progress"
    snapshot.meta["digest"] = ckpt.digest
    snapshot.meta["chunk_index"] = int(index)
    write_snapshot(_progress_path(ckpt, index), snapshot.arrays,
                   snapshot.meta)


def resume_chunk_run(ckpt: _ChunkCheckpoint, index: int,
                     simulator: FleetSimulator) -> bool:
    """Restore a chunk's simulator from its progress snapshot, if any.

    Returns ``True`` when the simulator was fast-forwarded (its epoch
    cursor now sits at the snapshot's epoch); ``False`` when no
    progress snapshot exists and the run starts from epoch 0.
    """
    path = _progress_path(ckpt, index)
    if not os.path.exists(path):
        return False
    arrays, meta = read_snapshot(path)
    if (meta.get("kind") != "fleet-chunk-progress"
            or meta.get("chunk_index") != index):
        raise CheckpointError(
            f"{path} is not the progress of chunk {index}")
    if meta.get("digest") != ckpt.digest:
        raise CheckpointError(
            f"{path} belongs to a different study "
            "(fingerprint mismatch)")
    _restore_run(simulator, FleetSnapshot(arrays=arrays, meta=meta))
    return True


# -- study directories ------------------------------------------------------


def study_digest(study: _FleetStudy, bounds) -> str:
    """SHA-256 fingerprint of a study and its chunk partition.

    Covers everything that shapes the bitwise result -- the whole
    normalized study (chip config, group layout with each template's
    initial state, horizon, cadence, variation, seed) and the chunk
    partition -- and deliberately excludes pure execution knobs
    (worker count, retries, checkpoint cadence), which may change
    freely between interrupt and resume.  Every checkpoint file
    carries the digest, and loads refuse files whose digest differs,
    so a directory can never leak state between different studies.
    """
    try:
        payload = pickle.dumps(
            (study, tuple((int(b.start), int(b.stop)) for b in bounds)),
            protocol=_PICKLE_PROTOCOL)
    except Exception as error:
        raise CheckpointError(
            "checkpointing requires a picklable study (chip config, "
            f"groups, variation): {error}") from error
    return hashlib.sha256(payload).hexdigest()


def _load_manifest(path: str) -> Dict[str, Any]:
    """Read and gate a study ``manifest.json``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:
        raise CheckpointError(
            f"cannot read study manifest {path}: {error}") from error
    if (not isinstance(manifest, dict)
            or manifest.get("magic") != _STUDY_MAGIC):
        raise CheckpointError(
            f"{path} is not a fleet checkpoint manifest")
    schema = manifest.get("schema")
    if schema != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path} was written under checkpoint schema "
            f"v{schema}; this build reads only "
            f"v{CHECKPOINT_SCHEMA_VERSION}")
    return manifest


def prepare_study_directory(directory, study: _FleetStudy, bounds, *,
                            every: Optional[int]) -> _ChunkCheckpoint:
    """Create (or re-open) a study's checkpoint directory.

    First invocation writes ``manifest.json`` (magic, schema version,
    study digest, geometry) plus ``study.pkl`` -- the pickled study,
    chunk height and checkpoint cadence that
    :func:`resume_fleet_lifetime_study` replays.  Re-opening verifies
    the manifest's schema and digest, so resuming a *different* study
    against an existing directory fails loudly instead of mixing
    state.
    """
    if every is not None and every < 1:
        raise SimulationError(
            "checkpoint_every must be at least 1")
    directory = os.fspath(directory)
    digest = study_digest(study, bounds)
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, "manifest.json")
    if os.path.exists(manifest_path):
        manifest = _load_manifest(manifest_path)
        if manifest.get("digest") != digest:
            raise CheckpointError(
                f"{directory} holds checkpoints of a different "
                "study (fingerprint mismatch); use a fresh "
                "directory or re-invoke the original study")
    else:
        manifest = {
            "magic": _STUDY_MAGIC,
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "digest": digest,
            "n_chips": int(bounds[-1].stop),
            "n_chunks": len(bounds),
            "n_epochs": study.n_epochs,
            "record_every": study.record_every,
            "checkpoint_every": every,
        }
        spec = {"study": study, "chunk_chips": bounds[0].n_items,
                "checkpoint_every": every}
        spec_path = os.path.join(directory, "study.pkl")
        tmp = f"{spec_path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            pickle.dump(spec, handle, protocol=_PICKLE_PROTOCOL)
        os.replace(tmp, spec_path)
        tmp = f"{manifest_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
        os.replace(tmp, manifest_path)
    return _ChunkCheckpoint(directory=directory, every=every,
                            digest=digest)


def resume_fleet_lifetime_study(checkpoint_dir, *,
                                max_workers: Optional[int] = None,
                                retries: int = 0,
                                on_report=None) -> FleetResult:
    """Resume a killed checkpointed study from its directory alone.

    Replays the exact study pinned in the directory's ``study.pkl``
    (written by the original
    :func:`~repro.system.fleet.run_fleet_lifetime_study` call):
    complete chunks load from their result files, incomplete ones
    continue from their newest progress snapshot, and the merged
    :class:`~repro.system.fleet.FleetResult` is bitwise-equal to the
    uninterrupted run.  Execution knobs (``max_workers``,
    ``retries``, ``on_report``) are free to differ from the original
    invocation -- they do not affect the result.
    """
    directory = os.fspath(checkpoint_dir)
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise CheckpointError(
            f"{directory} has no study manifest; nothing to resume")
    _load_manifest(manifest_path)
    spec_path = os.path.join(directory, "study.pkl")
    if not os.path.exists(spec_path):
        raise CheckpointError(
            f"{directory} has no study spec; re-invoke "
            "run_fleet_lifetime_study with the original arguments "
            "and checkpoint_dir to resume")
    try:
        with open(spec_path, "rb") as handle:
            spec = pickle.load(handle)
        study = spec["study"]
        if not isinstance(study, _FleetStudy):
            raise TypeError(f"{type(study).__name__} is not a study")
        chunk_chips, every = spec["chunk_chips"], spec["checkpoint_every"]
    except Exception as error:
        raise CheckpointError(
            f"cannot read study spec {spec_path}: {error}"
        ) from error
    return _run_study(study.chip.build(), study, chunk_chips,
                      max_workers=max_workers, retries=retries,
                      on_report=on_report, checkpoint_every=every,
                      checkpoint_dir=directory)


# -- incremental sessions ---------------------------------------------------


class FleetSession:
    """Incremental fleet simulation: advance, query, snapshot, resume.

    The streaming counterpart of
    :func:`~repro.system.fleet.run_fleet_lifetime_study`: instead of
    pre-declaring a lifetime horizon, the caller advances the
    population epoch-by-epoch, queries live telemetry between calls,
    and can persist the full state at any point::

        session = FleetSession((3, 3), 64, workload, policy,
                               record_every=4)
        session.advance(24)
        p99 = session.guardband_quantile(0.99)
        session.save("fleet.npz")            # durable hand-off
        ...
        session = FleetSession.load("fleet.npz")   # fresh process
        session.advance(24)                  # bitwise-continues

    A session snapshot is self-contained: it embeds the session's
    study -- the object
    :func:`~repro.system.fleet.run_fleet_lifetime_study` builds, with
    an open horizon -- alongside the advancing state, so :meth:`load`
    rebuilds the session without the original arguments.  Because the
    horizon is open-ended, records follow the ``record_every`` modulo
    rule only; results and guardbands therefore reflect the epochs
    recorded so far plus the live (current-epoch) degradation.
    """

    def __init__(self, chip: Union[Chip, ChipConfig,
                                   Tuple[int, int]],
                 n_chips: Optional[int] = None,
                 workload: Optional[Workload] = None,
                 policy: Optional[SchedulingPolicy] = None,
                 *,
                 groups: Optional[Sequence[FleetGroup]] = None,
                 epoch_s: float = units.hours(1.0),
                 record_every: int = 1,
                 variation: Union[FleetVariation, FleetVariationSpec,
                                  None] = None,
                 seed: int = 0):
        self._open(*_fleet_study(
            chip, n_chips, workload, policy, groups, n_epochs=None,
            epoch_s=epoch_s, record_every=record_every,
            variation=variation, seed=seed))

    def _open(self, built: Chip, study: _FleetStudy) -> None:
        self._study = study
        self._simulator = study.simulator(built)

    @property
    def epoch(self) -> int:
        """Epochs advanced so far."""
        return self._simulator.epoch

    @property
    def n_chips(self) -> int:
        """Population size."""
        return self._simulator.n_chips

    @property
    def n_cores(self) -> int:
        """Cores per chip."""
        return self._simulator.n_cores

    def advance(self, n_epochs: int = 1) -> "FleetSession":
        """Advance the whole population by ``n_epochs`` epochs."""
        self._simulator.advance(n_epochs)
        return self

    def delta_vth_v(self) -> np.ndarray:
        """Current per-core threshold shift, ``(n_chips, n_cores)``."""
        return self._simulator.delta_vth_v()

    def delta_vth_quantile(self, fraction: float) -> float:
        """Population quantile of the per-chip worst-core shift."""
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError("fraction must be in [0, 1]")
        simulator = self._simulator
        worst = simulator.bti.delta_vth_v().max(axis=1)
        return float(np.quantile(worst[simulator.chip_class], fraction))

    @property
    def guardbands(self) -> np.ndarray:
        """Per-chip guardband so far, ``(n_chips,)``.

        The max over every *recorded* worst-core degradation row and
        the live (current-epoch) degradation, so queries between
        record points never understate the needed margin.
        """
        simulator = self._simulator
        current = simulator.chip.core.oscillator.delay_degradation_array(
            simulator.bti.delta_vth_v()).max(axis=1)
        if simulator.worst:
            recorded = np.max(np.array(simulator.worst), axis=0)
            current = np.maximum(recorded, current)
        return current[simulator.chip_class]

    def guardband_quantile(self, fraction: float) -> float:
        """Population quantile of the per-chip guardband so far."""
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError("fraction must be in [0, 1]")
        return float(np.quantile(self.guardbands, fraction))

    def result(self) -> FleetResult:
        """The :class:`FleetResult` of everything advanced so far."""
        return self._simulator.result()

    def snapshot(self) -> FleetSnapshot:
        """Capture the full session state as a self-contained snapshot."""
        snapshot = _snapshot_run(self._simulator)
        snapshot.meta["kind"] = "fleet-session"
        snapshot.meta["digest"] = self._digest()
        # The drawn variation travels as arrays, not in the spec.
        snapshot.arrays["session/spec"] = np.frombuffer(
            pickle.dumps(replace(self._study, variation=None),
                         protocol=_PICKLE_PROTOCOL),
            dtype=np.uint8)
        return snapshot

    def _digest(self) -> str:
        """The study fingerprint a session snapshot carries; the drawn
        variation travels as state arrays, so it is left out."""
        return study_digest(replace(self._study, variation=None), ())

    def save(self, path) -> None:
        """Persist the session to one snapshot file."""
        self.snapshot().save(path)

    def restore(self, snapshot: Union[FleetSnapshot, str,
                                      os.PathLike]) -> "FleetSession":
        """Reset this session to a snapshot's state, in place.

        The snapshot must come from a session of the same study
        (geometry, cohort layout, cadence, and every group's workload
        and policy, pinned by the study fingerprint); continuing from
        it is bitwise-equal to never having snapshotted.  A refused
        snapshot raises :class:`~repro.errors.CheckpointError` and
        leaves the session as it was.
        """
        if not isinstance(snapshot, FleetSnapshot):
            snapshot = FleetSnapshot.load(snapshot)
        _restore_run(self._simulator, snapshot, digest=self._digest())
        return self

    @classmethod
    def load(cls, source: Union[FleetSnapshot, str, os.PathLike]
             ) -> "FleetSession":
        """Rebuild a session from a snapshot (file or in-memory).

        Uses the embedded study, so no original arguments are
        needed; the restored session continues bitwise-identically to
        the one that saved the snapshot.
        """
        if not isinstance(source, FleetSnapshot):
            source = FleetSnapshot.load(source)
        if "session/spec" not in source.arrays:
            raise CheckpointError(
                "snapshot does not embed a session spec (was it "
                "written by FleetSession.save?)")
        try:
            study = pickle.loads(
                source.arrays["session/spec"].tobytes())
            if not isinstance(study, _FleetStudy):
                raise TypeError(
                    f"{type(study).__name__} is not a study")
            study = replace(study, variation=FleetVariation(**{
                name: np.array(source.arrays[f"variation/{name}"])
                for name in _VARIATION_FIELDS}))
        except Exception as error:
            raise CheckpointError(
                f"session spec is corrupt: {error}") from error
        session = cls.__new__(cls)
        session._open(study.chip.build(), study)
        return session.restore(source)
