"""Checkpoint/resume and incremental sessions for the fleet engine.

:func:`~repro.system.fleet.run_fleet_lifetime_study` is an
all-or-nothing batch call: a machine reboot at epoch 719 of 720 loses
everything.  This module makes fleet state durable and incremental --
the foundation of the ROADMAP's streaming fleet-reliability service:

* **Snapshot format (schema v10).**  Every file this module writes is
  one ``.npz`` archive of exactly three byte members, loadable with
  ``allow_pickle=False``: ``__data__``, the raw bytes of every named
  array laid end to end in name order, each starting on a 16-byte
  boundary; ``__meta__``, canonical JSON holding the magic, the
  **schema version** (strictly gated on load: a file written under
  any other version is refused, never reinterpreted), the caller's
  meta block and the array table (one ``[name, dtype, shape,
  offset]`` row per array); and ``__checksum__``, a SHA-256 over the
  meta bytes and the data block, so every array's name, dtype, shape
  and bytes are covered and torn or corrupt files fail loudly as
  :class:`~repro.errors.CheckpointError` instead of silently skewing
  a population.  The reader checks the table (numeric dtypes only,
  shapes of non-negative ints, rows packed inside the block, no
  reserved or repeated names) before it builds any array, and hands
  every array back as a view of the one block.  Files are written to
  a temp name and ``os.replace``d into place, so a SIGKILL mid-write
  can never leave a corrupt file under the final name.  Every write
  and read is counted (files and bytes) under
  ``checkpoint.snapshots`` in :func:`~repro.solvers.cache_counters`.

* **Run snapshots.**  A session or chunk-progress snapshot holds the
  simulator's own
  :meth:`~repro.system.fleet.FleetSimulator.state_arrays` (trap, EM
  and run state one row per chip class, so a fleet whose chips age
  alike writes a few rows, not one per chip; the variation draw; one
  ``(n_cohorts, n_cores)`` array per cohort quantity) plus
  ``cohorts/state``, the pair of the per-cohort workload copies and
  the per-group policy copies, with their RNG positions, rotation
  cursors and dark sets, pickled into a byte array since they are
  arbitrary user objects.  The meta holds ``kind``,
  ``epoch``, the study fingerprint (``digest``) and a chunk's
  ``chunk_index``, so the member set is the same for every study.
  The rest -- geometry, cohort layout, cadence, record times, the
  chip -> class map -- follows from the study the fingerprint pins,
  and :meth:`~repro.system.fleet.FleetSimulator.load_state` refuses
  arrays that do not fit the run before it writes anything.

* **Checkpointed studies.**  A fleet study is one normalized,
  validated object (:class:`~repro.system.fleet._FleetStudy`).
  ``run_fleet_lifetime_study(..., checkpoint_dir=...,
  checkpoint_every=...)`` pins it in the directory's ``study.npz``,
  whose one array is the pickled study and whose meta holds its
  SHA-256 fingerprint with the chunk partition (:func:`study_digest`),
  the chunk height and the cadence, so checkpoints never resume into
  a *different* study, while a re-invocation at another worker count
  or memory budget adopts the stored partition.  Finished chunks
  persist their
  :class:`~repro.system.fleet.FleetResult`
  (``chunk-NNNNN.result.npz``, one row per chip class plus the draw),
  in-flight chunks snapshot their run every ``checkpoint_every``
  epochs (``chunk-NNNNN.progress.npz``).  Re-invoking the study
  -- or :func:`resume_fleet_lifetime_study`, which replays the stored
  study from the directory alone -- runs the fleet's one chunk loop:
  the parent restores every complete chunk, then re-runs only the
  incomplete ones, bitwise-equal to an uninterrupted run.  A refused
  file raises :class:`~repro.errors.CheckpointError` on every path.

* **Incremental sessions.**  :class:`FleetSession` drives a fleet
  epoch-by-epoch without a pre-declared horizon: ``advance(n)``,
  quantile queries between calls, ``snapshot()`` / ``save()`` /
  ``restore()`` / ``load()`` for durable hand-off.  A session
  snapshot is self-contained (``session/spec`` embeds the session's
  study, with the drawn variation kept in the state arrays), so
  ``FleetSession.load(path)`` rebuilds the session in a fresh
  process, and it carries the study's fingerprint, so ``restore()``
  refuses a snapshot of any other study.  A refused snapshot leaves
  the session untouched: every check runs before anything is written.

Bitwise invariance rests on one property, pinned by the checkpoint
tests: splitting ``FleetSimulator.advance`` at any epoch boundary is
exact, because every cross-epoch input is either stored in the
simulator (policy cursors, accumulators, records) or recomputed as the
same pure function of the stored aging state.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import re
import zipfile
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro import units
from repro.errors import CheckpointError, SimulationError
from repro.solvers import record_counters
from repro.system.chip import Chip, ChipConfig
from repro.system.fleet import (
    FleetGroup,
    FleetResult,
    FleetSimulator,
    FleetVariation,
    FleetVariationSpec,
    SchedulingPolicy,
    Workload,
    _VARIATION_FIELDS,
    _ChunkCheckpoint,
    _FleetStudy,
    _fleet_study,
    _run_study,
    chip_classes,
)

#: Snapshot schema this build writes and (exclusively) reads.  The
#: gate is strict: a snapshot stamped with any other version raises
#: :class:`~repro.errors.CheckpointError` on load rather than being
#: reinterpreted under the wrong layout.
CHECKPOINT_SCHEMA_VERSION = 10

_MAGIC = "repro.fleet.checkpoint"
_PICKLE_PROTOCOL = 4

#: The members of every snapshot archive.
_MEMBERS = frozenset({"__data__", "__meta__", "__checksum__"})
#: Each array starts at a multiple of this many bytes in the data
#: block, so every view the reader hands back is aligned.
_ALIGN = 16
#: The dtypes a snapshot may hold: bool, integer, float and complex
#: (``dtype.str``), never object, void or structured ones.
_NUMERIC_DTYPE = re.compile(r"[<>|][biufc][0-9]+\Z")
#: Largest piece of a non-contiguous array the writer copies at once.
_WRITE_BUFFER_BYTES = 16 * 1024 ** 2


# -- snapshot primitives ----------------------------------------------------


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _canonical_meta_bytes(meta_full: Dict[str, Any]) -> bytes:
    """Deterministic JSON encoding of the full meta block."""
    return json.dumps(meta_full, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _block_checksum(meta_bytes: bytes, data: np.ndarray) -> str:
    """SHA-256 over the meta bytes (the array table included) and the
    data block."""
    digest = hashlib.sha256(meta_bytes)
    digest.update(data)
    return digest.hexdigest()


def _open_byte_member(archive: zipfile.ZipFile, name: str, size: int):
    """Open the archive member ``name`` as an npy byte string of
    ``size`` bytes, header written; the caller writes the bytes."""
    member = archive.open(f"{name}.npy", "w", force_zip64=True)
    np.lib.format.write_array_header_1_0(
        member, {"descr": "|u1", "fortran_order": False,
                 "shape": (size,)})
    return member


def _raw_pieces(array: np.ndarray):
    """The C-order bytes of ``array``: the array itself when it is
    contiguous, else pieces of at most 16 MiB (a chunk result's
    ``[:, classes]`` gathers are not contiguous), so no piece copies a
    large array whole."""
    if array.flags.c_contiguous:
        yield array.reshape(-1).view(np.uint8)
        return
    buffer = max(_WRITE_BUFFER_BYTES // array.itemsize, 1)
    for piece in np.nditer(array, flags=["external_loop", "buffered",
                                         "zerosize_ok"],
                           buffersize=buffer, order="C"):
        yield piece.tobytes("C")


def write_snapshot(path, arrays: Dict[str, np.ndarray],
                   meta: Dict[str, Any]) -> None:
    """Atomically write one versioned, checksummed ``.npz`` snapshot.

    ``arrays`` maps names to numeric numpy arrays (stored raw, so
    every dtype round-trips bit-exactly); ``meta`` is a JSON-encodable
    dict.  The arrays land in one ``__data__`` block described by the
    table in ``__meta__``, next to the magic, schema version and
    ``__checksum__``.  The block is streamed from the arrays
    themselves, hashed as it goes, so no staging copy of the state is
    made.  The file lands via temp-name + ``os.replace``, so readers
    never observe a partial write.
    """
    path = os.fspath(path)
    table = []
    end = 0
    for name in sorted(arrays):
        array = arrays[name]
        if name.startswith("__"):
            raise CheckpointError(
                f"array name {name!r} is reserved")
        if not isinstance(array, np.ndarray):
            raise CheckpointError(
                f"snapshot entry {name!r} is not an ndarray")
        if not _NUMERIC_DTYPE.match(array.dtype.str):
            raise CheckpointError(
                f"snapshot entry {name!r} has non-numeric dtype "
                f"{array.dtype.str}")
        offset = _aligned(end)
        table.append([name, array.dtype.str, list(array.shape), offset])
        end = offset + array.nbytes
    meta_bytes = _canonical_meta_bytes({
        "magic": _MAGIC, "schema": CHECKPOINT_SCHEMA_VERSION,
        "meta": meta, "arrays": table})
    digest = hashlib.sha256(meta_bytes)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED,
                                 allowZip64=True) as archive:
                with _open_byte_member(archive, "__data__",
                                       end) as member:
                    written = 0
                    for name, _, _, offset in table:
                        for piece in (bytes(offset - written),
                                      *_raw_pieces(arrays[name])):
                            digest.update(piece)
                            member.write(piece)
                        written = offset + arrays[name].nbytes
                with _open_byte_member(archive, "__meta__",
                                       len(meta_bytes)) as member:
                    member.write(meta_bytes)
                checksum = digest.hexdigest().encode("ascii")
                with _open_byte_member(archive, "__checksum__",
                                       len(checksum)) as member:
                    member.write(checksum)
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


def _byte_member(path: str, data, name: str) -> np.ndarray:
    """One member of a snapshot archive, which must be a byte string."""
    member = data[name]  # the raw bytes when it is not an npy array
    if (not isinstance(member, np.ndarray) or member.dtype != np.uint8
            or member.ndim != 1):
        raise CheckpointError(
            f"{path} member {name} is not a byte string")
    return member


def _array_rows(path: str, table, size: int
                ) -> Tuple[Tuple[str, np.dtype, Tuple[int, ...], int,
                                 int], ...]:
    """Validate a snapshot's array table against its ``size``-byte data
    block; returns ``(name, dtype, shape, offset, nbytes)`` rows.

    The rows must lay the arrays out the way :func:`write_snapshot`
    does: each at the first aligned offset after the previous one, the
    last ending at the end of the block.
    """
    if not isinstance(table, list):
        raise CheckpointError(f"{path} has no array table")
    rows = []
    seen = set()
    end = 0
    for row in table:
        if not isinstance(row, list) or len(row) != 4:
            raise CheckpointError(
                f"{path} has a malformed array table row {row!r}")
        name, dtype, shape, offset = row
        if not isinstance(name, str) or name.startswith("__"):
            raise CheckpointError(
                f"{path} names an array {name!r}; names are strings "
                "that do not start with '__'")
        if name in seen:
            raise CheckpointError(f"{path} names array {name!r} twice")
        seen.add(name)
        if not isinstance(dtype, str) or not _NUMERIC_DTYPE.match(dtype):
            raise CheckpointError(
                f"{path} gives array {name!r} the non-numeric dtype "
                f"{dtype!r}")
        try:
            dtype = np.dtype(dtype)
        except TypeError as error:
            raise CheckpointError(
                f"{path} gives array {name!r} dtype {row[1]!r}: "
                f"{error}") from error
        if not isinstance(shape, list) or any(
                type(dim) is not int or dim < 0 for dim in shape):
            raise CheckpointError(
                f"{path} gives array {name!r} the shape {shape!r}; "
                "expected a list of non-negative ints")
        if type(offset) is not int or offset != _aligned(end):
            raise CheckpointError(
                f"{path} puts array {name!r} at offset {offset!r}; "
                f"expected {_aligned(end)}")
        nbytes = math.prod(shape) * dtype.itemsize
        end = offset + nbytes
        if end > size:
            raise CheckpointError(
                f"{path} puts array {name!r} at bytes [{offset}, {end}), "
                f"outside the {size}-byte data block")
        rows.append((name, dtype, tuple(shape), offset, nbytes))
    if end != size:
        raise CheckpointError(
            f"{path} has a {size}-byte data block; its arrays end at "
            f"byte {end}")
    return tuple(rows)


def read_snapshot(path) -> Tuple[Dict[str, np.ndarray],
                                 Dict[str, Any]]:
    """Read a snapshot back, verifying magic, schema, table and checksum.

    Returns ``(arrays, meta)``; every array is a view of the file's
    one data block, so a caller that keeps one array past the others
    copies it (a view keeps the whole block alive).  Raises
    :class:`~repro.errors.CheckpointError` for anything short of a
    pristine snapshot of this build's schema version: unreadable or
    truncated files, foreign files, corrupt payloads (checksum
    mismatch), snapshots written under another schema version, meta
    blocks of the wrong shape and array tables that name a
    non-numeric dtype, a bad shape or bytes outside the data block.
    Nothing is unpickled.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise CheckpointError(
                f"{path} is not a fleet checkpoint snapshot")
        with archive as data:
            names = set(data.files)
            if "__meta__" not in names:
                raise CheckpointError(
                    f"{path} is not a fleet checkpoint snapshot")
            meta_bytes = _byte_member(path, data, "__meta__").tobytes()
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
            if names != _MEMBERS:
                raise CheckpointError(
                    f"{path} holds the members {sorted(names)}; a "
                    f"snapshot holds exactly {sorted(_MEMBERS)}")
            block = _byte_member(path, data, "__data__")
            stored = _byte_member(path, data, "__checksum__").tobytes()
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, RecursionError,
            zipfile.BadZipFile, json.JSONDecodeError,
            UnicodeDecodeError) as error:
        raise CheckpointError(
            f"cannot read snapshot {path}: {error}") from error
    record_counters("checkpoint.snapshots", reads=1, bytes_read=size)
    rows = _array_rows(path, meta_full.get("arrays"), block.size)
    if _block_checksum(meta_bytes, block).encode("ascii") != stored:
        raise CheckpointError(
            f"checksum mismatch in {path}: snapshot is corrupt")
    try:
        arrays = {name: block[offset:offset + nbytes].view(dtype)
                  .reshape(shape)
                  for name, dtype, shape, offset, nbytes in rows}
    except ValueError as error:  # more dimensions than numpy allows
        raise CheckpointError(
            f"cannot read snapshot {path}: {error}") from error
    return arrays, meta_full["meta"]


@dataclass
class FleetSnapshot:
    """An in-memory fleet snapshot: named arrays plus a meta block.

    The in-memory twin of one snapshot file --
    :meth:`FleetSession.snapshot` produces one, :meth:`save` /
    :meth:`load` move it through the versioned, checksummed one-block
    ``.npz`` format of :func:`write_snapshot` / :func:`read_snapshot`.
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


def _snapshot_run(simulator: FleetSimulator,
                  meta: Dict[str, Any]) -> FleetSnapshot:
    """Capture the full advancing state of a :class:`FleetSimulator`:
    its :meth:`~FleetSimulator.state_arrays`, its per-cohort workload
    and per-group policy copies and, in ``meta``, the epoch."""
    arrays = simulator.state_arrays()
    arrays["cohorts/state"] = np.frombuffer(
        pickle.dumps((simulator.workloads, simulator.policies),
                     protocol=_PICKLE_PROTOCOL),
        dtype=np.uint8)
    return FleetSnapshot(arrays=arrays,
                         meta={**meta, "epoch": simulator.epoch})


def _restore_run(simulator: FleetSimulator, snapshot: FleetSnapshot,
                 digest: str) -> None:
    """Overwrite a simulator's advancing state from a snapshot.

    The snapshot must carry the study fingerprint ``digest`` of the
    simulator's own study, which pins its geometry, cohort layout and
    cadence; :meth:`FleetSimulator.load_state` then checks every array
    against the simulator's layout.  Every check runs before anything
    is written, so a refused snapshot raises
    :class:`~repro.errors.CheckpointError` and leaves the simulator
    exactly as it was.
    """
    arrays, meta = snapshot.arrays, snapshot.meta
    if not isinstance(meta, dict) or meta.get("digest") != digest:
        raise CheckpointError(
            "snapshot belongs to a different study (fingerprint "
            "mismatch)")
    if "cohorts/state" not in arrays:
        raise CheckpointError("snapshot is missing array 'cohorts/state'")
    try:
        state = pickle.loads(arrays["cohorts/state"].tobytes())
    except Exception as error:
        raise CheckpointError(
            f"snapshot cohort state is corrupt: {error}") from error
    layout = (simulator.workloads, simulator.policies)
    if (not isinstance(state, tuple) or len(state) != 2
            or any(not isinstance(copies, list) or len(copies) != len(own)
                   for copies, own in zip(state, layout))):
        raise CheckpointError(
            "snapshot cohort state does not match the run's "
            "cohort layout")
    try:
        simulator.load_state(arrays, meta.get("epoch"))
    except SimulationError as error:
        raise CheckpointError(f"snapshot {error}") from error
    simulator.workloads, simulator.policies = state


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
        # Copies: the result outlives the read, and a view would keep
        # the snapshot's whole data block alive with it.
        scales = {name: arrays[f"variation/{name}"].copy()
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
    fields["times_s"] = fields["times_s"].copy()
    for name in _RESULT_FIELDS[1:]:  # the gathers copy
        fields[name] = (fields[name][:, chip_class]
                        if name in _RECORD_FIELDS
                        else fields[name][chip_class])
    return FleetResult(variation=variation, n_epochs=n_epochs, **fields)


def _chunk_path(ckpt: _ChunkCheckpoint, index: int, part: str) -> str:
    return os.path.join(ckpt.directory, f"chunk-{index:05d}.{part}.npz")


def save_chunk_result(ckpt: _ChunkCheckpoint, index: int,
                      result: FleetResult, study: _FleetStudy) -> None:
    """Persist the finished result of chunk ``study``; drops its
    progress file."""
    meta = {"kind": "fleet-chunk-result", "digest": ckpt.digest,
            "chunk_index": int(index),
            "n_epochs": int(result.n_epochs)}
    write_snapshot(_chunk_path(ckpt, index, "result"),
                   _result_to_arrays(result, study), meta)
    try:
        os.remove(_chunk_path(ckpt, index, "progress"))
    except OSError:
        pass


def load_chunk_result(ckpt: _ChunkCheckpoint, index: int,
                      study: _FleetStudy) -> Optional[FleetResult]:
    """The persisted result of chunk ``study``, or ``None`` if not
    finished."""
    path = _chunk_path(ckpt, index, "result")
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
    snapshot = _snapshot_run(simulator, {
        "kind": "fleet-chunk-progress", "digest": ckpt.digest,
        "chunk_index": int(index)})
    write_snapshot(_chunk_path(ckpt, index, "progress"), snapshot.arrays,
                   snapshot.meta)


def resume_chunk_run(ckpt: _ChunkCheckpoint, index: int,
                     simulator: FleetSimulator) -> bool:
    """Restore a chunk's simulator from its progress snapshot, if any.

    Returns ``True`` when the simulator was fast-forwarded (its epoch
    cursor now sits at the snapshot's epoch); ``False`` when no
    progress snapshot exists and the run starts from epoch 0.
    """
    path = _chunk_path(ckpt, index, "progress")
    if not os.path.exists(path):
        return False
    arrays, meta = read_snapshot(path)
    if (meta.get("kind") != "fleet-chunk-progress"
            or meta.get("chunk_index") != index):
        raise CheckpointError(
            f"{path} is not the progress of chunk {index}")
    _restore_run(simulator, FleetSnapshot(arrays=arrays, meta=meta),
                 ckpt.digest)
    return True


# -- study directories ------------------------------------------------------


def study_digest(study: _FleetStudy,
                 chunk_chips: Optional[int]) -> str:
    """SHA-256 fingerprint of a study and its chunk partition.

    Covers everything that shapes the bitwise result -- the whole
    normalized study (chip config, group layout with each template's
    initial state, horizon, cadence, variation, seed) and the chunk
    height -- and deliberately excludes pure execution knobs (worker
    count, retries, checkpoint cadence), which may change freely
    between interrupt and resume.  Every checkpoint file
    carries the digest, and loads refuse files whose digest differs,
    so a directory can never leak state between different studies.
    """
    try:
        payload = pickle.dumps((study, chunk_chips),
                               protocol=_PICKLE_PROTOCOL)
    except Exception as error:
        raise CheckpointError(
            "checkpointing requires a picklable study (chip config, "
            f"groups, variation): {error}") from error
    return hashlib.sha256(payload).hexdigest()


def _read_study(path: str) -> Tuple[np.ndarray, Dict[str, Any]]:
    """The pickled study bytes and the checked meta of a ``study.npz``."""
    arrays, meta = read_snapshot(path)
    if meta.get("kind") != "fleet-study" or "study" not in arrays:
        raise CheckpointError(f"{path} is not a fleet study file")
    chunk_chips = meta.get("chunk_chips")
    every = meta.get("checkpoint_every", "missing")
    if (type(chunk_chips) is not int or chunk_chips < 1
            or (every is not None
                and (type(every) is not int or every < 1))):
        raise CheckpointError(
            f"{path} has chunk_chips={chunk_chips!r} and checkpoint_every="
            f"{every!r}; expected a positive int and a positive int or null")
    return arrays["study"], meta


def prepare_study_directory(directory, study: _FleetStudy,
                            chunk_chips: int, *,
                            every: Optional[int]
                            ) -> Tuple[_ChunkCheckpoint, int]:
    """Create (or re-open) a study's checkpoint directory.

    First invocation writes ``study.npz``, a snapshot file whose one
    array is the pickled study and whose meta holds the digest of the
    study and its ``chunk_chips`` partition, the chunk height and the
    checkpoint cadence that :func:`resume_fleet_lifetime_study`
    replays.  Re-opening verifies the file (schema, checksum, meta)
    and adopts its chunk height before it checks the digest, so a
    *different* study fails loudly instead of mixing state.  Returns
    the chunk checkpoint configuration and the chunk height to run.
    """
    if every is not None and every < 1:
        raise SimulationError(
            "checkpoint_every must be at least 1")
    directory = os.fspath(directory)
    path = os.path.join(directory, "study.npz")
    stored = _read_study(path)[1] if os.path.exists(path) else None
    if stored is not None:
        chunk_chips = stored["chunk_chips"]
    digest = study_digest(study, chunk_chips)
    if stored is None:
        os.makedirs(directory, exist_ok=True)
        write_snapshot(path, {"study": np.frombuffer(
            pickle.dumps(study, protocol=_PICKLE_PROTOCOL),
            dtype=np.uint8)},
            {"kind": "fleet-study", "digest": digest,
             "chunk_chips": chunk_chips, "checkpoint_every": every})
    elif stored.get("digest") != digest:
        raise CheckpointError(
            f"{directory} holds checkpoints of a different "
            "study (fingerprint mismatch); use a fresh "
            "directory or re-invoke the original study")
    return _ChunkCheckpoint(directory=directory, every=every,
                            digest=digest), chunk_chips


def resume_fleet_lifetime_study(checkpoint_dir, *,
                                max_workers: Optional[int] = None,
                                retries: int = 0,
                                on_report=None) -> FleetResult:
    """Resume a killed checkpointed study from its directory alone.

    Replays the exact study pinned in the directory's ``study.npz``
    (written by the original
    :func:`~repro.system.fleet.run_fleet_lifetime_study` call) on its
    chunk partition: complete chunks load from their result files,
    incomplete ones continue from their newest progress snapshot, and
    the merged :class:`~repro.system.fleet.FleetResult` is
    bitwise-equal to the uninterrupted run.  Execution knobs (``max_workers``,
    ``retries``, ``on_report``) are free to differ from the original
    invocation -- they do not affect the result.
    """
    directory = os.fspath(checkpoint_dir)
    path = os.path.join(directory, "study.npz")
    if not os.path.exists(path):
        raise CheckpointError(
            f"{directory} has no study file; nothing to resume")
    payload, meta = _read_study(path)
    try:
        study = pickle.loads(payload.tobytes())
        if not isinstance(study, _FleetStudy):
            raise TypeError(f"{type(study).__name__} is not a study")
    except Exception as error:
        raise CheckpointError(
            f"cannot read study spec {path}: {error}") from error
    return _run_study(study.chip.build(), study, max_chunk_chips=None,
                      state_budget_bytes=None, max_workers=max_workers,
                      retries=retries, on_report=on_report,
                      checkpoint_every=meta["checkpoint_every"],
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
        snapshot = _snapshot_run(self._simulator, {
            "kind": "fleet-session", "digest": self._digest()})
        # The drawn variation travels as arrays, not in the spec.
        snapshot.arrays["session/spec"] = np.frombuffer(
            pickle.dumps(replace(self._study, variation=None),
                         protocol=_PICKLE_PROTOCOL),
            dtype=np.uint8)
        return snapshot

    def _digest(self) -> str:
        """The study fingerprint a session snapshot carries; the drawn
        variation travels as state arrays, so it is left out."""
        return study_digest(replace(self._study, variation=None), None)

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
        _restore_run(self._simulator, snapshot, self._digest())
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
