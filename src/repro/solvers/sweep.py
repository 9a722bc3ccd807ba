"""Chunk partitioning, attempt wrapper and telemetry of the fleet
chunk loop.

:func:`repro.system.fleet._run_study` is the one loop that runs
partitioned work: it splits a population with :func:`chunk_tasks`,
decides once whether the chunks pool, and runs every chunk it executes
-- in a pool worker or in-process -- through :func:`_run_task`.  That
wrapper gives every chunk the same guarantees at every worker count:

* **Determinism** -- a chunk that needs randomness draws from
  :func:`task_seed_sequence` by global row index, so the merged output
  is byte-identical no matter how many workers run it, in which order
  they finish, or how many retries occurred.
* **Bounded retries** -- a chunk is re-run up to ``retries`` times
  before it counts as failed; only ``Exception`` is retried, so an
  interrupt is never swallowed.
* **Attribution** -- a chunk that exhausts its attempts becomes a
  :class:`TaskFailure` carrying its chunk index, attempt count and
  traceback (which survives the process boundary even when the
  exception object does not).
* **Telemetry** -- each attempt reports its wall time and the deltas
  of every named :class:`~repro.solvers.factorized.FactorizationCache`
  (the fleet kernel memo, the thermal and condition caches), which the
  loop sums into one :class:`SweepReport` with a :class:`ChunkRecord`
  per chunk.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.solvers.factorized import cache_counters


def available_cpus() -> int:
    """CPUs this process may run on: the default pool size.

    ``os.cpu_count()`` counts the host's CPUs and ignores affinity
    masks and container CPU sets, so a pool sized from it can
    oversubscribe a restricted runner.  The affinity mask is the
    count that matters; platforms without
    ``os.sched_getaffinity`` fall back to ``os.cpu_count()``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def task_seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """The index-keyed seed sequence of chunked stochastic streams.

    Row ``index`` of a chunked Monte Carlo stream (a fleet chip's
    variation draw, a population-sampler chunk) draws from this
    sequence, so the stream is a pure function of ``(seed, index)``:
    chunking, worker count and retries cannot perturb it, and one
    row's stream can be reproduced in isolation.
    """
    return np.random.SeedSequence(seed, spawn_key=(index,))


@dataclass(frozen=True)
class ChunkTask:
    """One contiguous ``[start, stop)`` slice of a partitioned problem.

    The fleet engine partitions its row space once with
    :func:`chunk_tasks` and runs each slice as an independent chunk
    (bounded retries, in-process re-execution after worker death,
    :class:`SweepReport` telemetry).  Slices are half-open, ordered,
    and non-overlapping, so results merge by a deterministic
    row-ordered scatter no matter which worker finishes first.

    Attributes:
        index: position of the slice in the partition.
        start / stop: item range of the slice, ``0 <= start < stop``.
    """

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise SimulationError("chunk index must be non-negative")
        if not 0 <= self.start < self.stop:
            raise SimulationError(
                "chunk slice must satisfy 0 <= start < stop")

    @property
    def n_items(self) -> int:
        """Items covered by the slice."""
        return self.stop - self.start


def chunk_tasks(n_items: int, chunk_size: int) -> List[ChunkTask]:
    """Partition ``n_items`` into ordered :class:`ChunkTask` slices.

    The single source of chunk boundaries for partitioned engines:
    serial streams and pooled executions of the same
    ``(n_items, chunk_size)`` see identical slices, which is what
    makes a pooled run's row-ordered merge bit-identical to the
    serial stream.
    """
    if n_items < 1:
        raise SimulationError("n_items must be at least 1")
    if chunk_size < 1:
        raise SimulationError("chunk_size must be at least 1")
    return [ChunkTask(index=index, start=start,
                      stop=min(start + chunk_size, n_items))
            for index, start in enumerate(
                range(0, n_items, chunk_size))]


@dataclass(frozen=True)
class TaskFailure:
    """A structured record of one chunk that exhausted its attempts.

    Listed on :attr:`SweepReport.failures`, which is delivered before
    the study raises :class:`~repro.errors.TaskError` for the first
    of them.

    Attributes:
        task_index: global index of the failed chunk in the study's
            partition.
        error_type: class name of the final attempt's exception.
        message: ``str()`` of that exception.
        traceback: formatted traceback of the final attempt (captured
            in the worker, so it survives the process boundary even
            when the exception object itself does not).
        attempts: executions made (1 + retries granted).
        error: the original exception object, when it could be
            pickled back from the worker; ``None`` otherwise (the
            textual fields above always survive).
    """

    task_index: int
    error_type: str
    message: str
    traceback: str
    attempts: int
    error: Optional[BaseException] = None

    def __str__(self) -> str:
        return (f"chunk {self.task_index} failed after "
                f"{self.attempts} attempt(s): "
                f"{self.error_type}: {self.message}")


@dataclass(frozen=True)
class ChunkRecord:
    """Telemetry of one fleet chunk.

    Attributes:
        index: global chunk index in the study's partition.
        executed_in: ``"pool"`` (completed in a worker), ``"serial"``
            (the study never started a pool), ``"serial-fallback"``
            (run in-process after the pool did not finish it) or
            ``"cached"`` (restored from a checkpoint directory
            instead of executed, see :mod:`repro.system.checkpoint`;
            its ``wall_time_s`` is the restore time).
        wall_time_s: time spent evaluating the chunk, retries
            included, measured inside whichever process ran it
            (excludes queueing / transport).
        retries: re-executions granted to the chunk.
        n_failures: 1 if the chunk exhausted its attempts, else 0.
    """

    index: int
    executed_in: str
    wall_time_s: float
    retries: int
    n_failures: int


@dataclass(frozen=True)
class SweepReport:
    """What one fleet study's chunk loop did, delivered via
    ``on_report``.

    Attributes:
        n_tasks / n_chunks / max_workers: run geometry (every chunk
            is one task).
        mode: ``"fleet"`` (no pool was started), ``"fleet+pool"``
            (every executed chunk completed in a worker),
            ``"fleet+pool+serial-fallback"`` (some chunks ran
            in-process after the pool did not finish them) or
            ``"fleet+failed"`` (the run died outside a chunk attempt:
            an interrupt, a refused chunk-result file).  A chunk that
            exhausts its retries does not change the mode; it is
            listed on ``failures``.
        serial_reason: why no pool was started (``None`` when pooled).
        fallback_reasons: pool-side infrastructure errors, one entry
            per chunk re-run in-process (``BrokenProcessPool``, a
            task or result that failed to pickle, ...).
        wall_time_s: end-to-end loop time, including scheduling.
        chunks: per-chunk telemetry, in chunk order.
        retries: total chunk re-executions across the run.
        failures: chunks that exhausted their attempts, in chunk
            order.  The report is delivered *before* the
            :class:`~repro.errors.TaskError` is raised, so it is the
            place to look when a study dies.
        cache_counters: per-named-cache ``{"hits": h, "misses": m}``
            deltas attributable to the executed chunks (summed over
            in-process and worker attempts); see
            :func:`repro.solvers.factorized.cache_counters`.  Engine
            counters (``chips``, ``chunks``, ``kernel_builds``, ...)
            appear alongside the hit/miss counts when nonzero.
    """

    n_tasks: int
    n_chunks: int
    max_workers: int
    mode: str
    serial_reason: Optional[str]
    fallback_reasons: Tuple[str, ...]
    wall_time_s: float
    chunks: Tuple[ChunkRecord, ...]
    retries: int
    failures: Tuple[TaskFailure, ...]
    cache_counters: Mapping[str, Mapping[str, int]]

    @property
    def n_failures(self) -> int:
        """Number of tasks that exhausted their attempts."""
        return len(self.failures)

    @property
    def ok(self) -> bool:
        """True when every task produced a result."""
        return not self.failures

    def summary(self) -> str:
        """A one-line human-readable digest (for logs / CLI output)."""
        parts = [f"{self.n_tasks} tasks in {self.n_chunks} chunks "
                 f"({self.mode}, {self.wall_time_s:.3f} s)"]
        if self.serial_reason:
            parts.append(f"serial: {self.serial_reason}")
        if self.fallback_reasons:
            parts.append(f"{len(self.fallback_reasons)} chunk(s) "
                         "recovered serially")
        if self.retries:
            parts.append(f"{self.retries} retries")
        parts.append(f"{self.n_failures} failed")
        return "; ".join(parts)


@dataclass(frozen=True)
class _TaskOutput:
    """One chunk's result or failure plus its telemetry (worker-to-parent
    transport)."""

    value: Any
    failure: Optional[TaskFailure]
    retries: int
    wall_time_s: float
    cache_delta: Dict[str, Dict[str, int]]


def _transportable_error(exc: BaseException) -> Optional[BaseException]:
    """The exception itself if it survives a pickle round-trip."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _make_failure(exc: BaseException, index: int, attempts: int,
                  in_process: bool) -> TaskFailure:
    text = "".join(traceback_module.format_exception(
        type(exc), exc, exc.__traceback__))
    return TaskFailure(
        task_index=index,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback=text,
        attempts=attempts,
        error=exc if in_process else _transportable_error(exc))


#: Counter keys always present on a reported cache delta; any other
#: counter (``batched_solves`` / ``batched_rows``) appears only when
#: its delta is nonzero, so chunks that never touch a batched engine
#: keep the compact ``{"hits": h, "misses": m}`` shape.
_BASE_COUNTER_KEYS = ("hits", "misses")


def _cache_delta(before: Dict[str, Dict[str, int]],
                 after: Dict[str, Dict[str, int]]
                 ) -> Dict[str, Dict[str, int]]:
    delta: Dict[str, Dict[str, int]] = {}
    for name, counters in after.items():
        base = before.get(name, {})
        changed = {key: value - base.get(key, 0)
                   for key, value in counters.items()}
        if any(changed.values()):
            delta[name] = {key: value for key, value in changed.items()
                           if value or key in _BASE_COUNTER_KEYS}
    return delta


def _merge_cache_deltas(totals: Dict[str, Dict[str, int]],
                        delta: Mapping[str, Mapping[str, int]]) -> None:
    for name, counters in delta.items():
        entry = totals.setdefault(name, {"hits": 0, "misses": 0})
        for key, value in counters.items():
            entry[key] = entry.get(key, 0) + value


def _run_task(fn: Callable[[Any], Any], task: Any, index: int,
              retries: int, in_process: bool) -> _TaskOutput:
    """Attempt one chunk (in a pool worker or the parent process).

    No ``Exception`` escapes: the chunk is retried up to
    ``retries`` times and then captured as a :class:`TaskFailure`
    under ``index``.  An ``Exception`` the parent sees on a worker's
    future is therefore pool infrastructure, and the parent re-runs
    that chunk in-process.  A ``BaseException`` such as
    ``KeyboardInterrupt`` is never caught.
    """
    before = cache_counters()
    start_time = time.perf_counter()
    failure: Optional[TaskFailure] = None
    value: Any = None
    attempt = 0
    while True:
        try:
            value = fn(task)
        except Exception as exc:
            if attempt < retries:
                attempt += 1
                continue
            failure = _make_failure(exc, index, attempt + 1, in_process)
        break
    return _TaskOutput(value=value, failure=failure, retries=attempt,
                       wall_time_s=time.perf_counter() - start_time,
                       cache_delta=_cache_delta(before,
                                                cache_counters()))
