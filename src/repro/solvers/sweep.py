"""Deterministic, fault-tolerant process-pool sweep runner.

Population Monte Carlo (:mod:`repro.em.statistics`), lifetime grids
(:mod:`repro.system.sweeps`), the assist studies
(:mod:`repro.assist.sweeps`) and tornado analyses
(:mod:`repro.analysis.sensitivity`) all share one shape: evaluate a
pure function over a list of independent tasks.  This module runs that
shape over a ``concurrent.futures`` process pool with three
guarantees:

* **Determinism** -- results are returned in task order, and any
  randomness is seeded per *task index* (via
  ``numpy.random.SeedSequence(seed, spawn_key=(index,))``), so the
  output is byte-identical for a fixed seed no matter how many
  workers run the sweep, how the tasks are chunked onto them, or how
  many retries / pool failures occurred along the way.
* **Graceful degradation** -- when the work is too small to amortize
  process startup, when only one worker is requested, or when the
  function/tasks cannot be pickled (lambdas, closures), the sweep
  runs serially in-process with identical results.  A pool that
  breaks *mid-run* (a worker killed by the OOM killer, an unpicklable
  task or result surfacing only in a later chunk) is recovered from
  by re-running just the incomplete chunks serially -- completed
  chunks are never recomputed and never reordered.
* **Attribution** -- a task that raises is reported *as that task*:
  the default ``on_error="raise"`` policy raises
  :class:`repro.errors.TaskError` carrying the task index, chunk
  index and attempt count, with the worker's original exception
  chained; ``"skip"`` drops failed tasks; ``"collect"`` returns
  in-order :class:`TaskFailure` records in their place.  Bounded
  per-task ``retries`` re-derive the identical seed sequence, so a
  retried stochastic task reproduces the exact stream of an
  unretried run.

Every run can also report what happened: pass ``on_report`` to
receive a :class:`SweepReport` with per-chunk wall times, retry
counts, the serial-fallback reason, recovered pool failures, and
hit/miss deltas of every named
:class:`~repro.solvers.factorized.FactorizationCache` (the compiled
circuit LU cache, the simulator condition cache, the thermal and PDE
operator caches) attributable to the sweep.  ``progress`` delivers
``(done_tasks, total_tasks)`` after each completed chunk.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import SimulationError, TaskError
from repro.solvers.factorized import cache_counters, record_counters

#: Below this many tasks a pool is never started (startup dominates).
#: BENCH_solvers.json showed small pooled sweeps running ~2x *slower*
#: than serial; callers with heavier per-task work can lower the
#: threshold (and light-task callers raise it) via the
#: ``min_tasks_for_pool`` argument of :func:`run_sweep`.
DEFAULT_MIN_TASKS_FOR_POOL = 4

# Backwards-compatible alias of the pre-threshold-parameter constant.
_MIN_TASKS_FOR_POOL = DEFAULT_MIN_TASKS_FOR_POOL

#: Valid ``on_error`` policies of :func:`run_sweep`.
ON_ERROR_POLICIES = ("raise", "skip", "collect")


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
    """The task-index-keyed seed sequence used by :func:`run_sweep`.

    Exposed so callers can reproduce one task's stream in isolation
    (e.g. to debug a single Monte Carlo chunk).  Retried tasks call
    this again with the same arguments, which is why a retry cannot
    perturb the stream: the sequence is a pure function of
    ``(seed, index)``.
    """
    return np.random.SeedSequence(seed, spawn_key=(index,))


@dataclass(frozen=True)
class ChunkTask:
    """One contiguous ``[start, stop)`` slice of a partitioned problem.

    The adapter between row-partitioned engines (the fleet engine's
    byte-budgeted chip chunks, the EM samplers' wire blocks) and
    :func:`run_sweep`: the engine partitions its row space once with
    :func:`chunk_tasks` and ships each slice as an independent sweep
    task, inheriting the runner's crash-safe machinery (bounded
    retries, chunk-level serial re-execution after worker death,
    :class:`SweepReport` telemetry) without re-deriving boundaries in
    two places.  Slices are half-open, ordered, and non-overlapping,
    so results merge by a deterministic row-ordered scatter no matter
    which worker finishes first.

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
    """A structured record of one task that exhausted its attempts.

    Returned in-order (in the failed task's result slot) under
    ``on_error="collect"`` and listed on :attr:`SweepReport.failures`
    under every non-raising policy.

    Attributes:
        task_index: position of the failed task in the sweep's list.
        chunk_index: submitted chunk the task ran in.
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
    chunk_index: int
    error_type: str
    message: str
    traceback: str
    attempts: int
    error: Optional[BaseException] = None

    def __str__(self) -> str:
        return (f"task {self.task_index} (chunk {self.chunk_index}) "
                f"failed after {self.attempts} attempt(s): "
                f"{self.error_type}: {self.message}")


@dataclass(frozen=True)
class ChunkRecord:
    """Telemetry of one submitted chunk.

    Attributes:
        index: chunk position (chunks partition the task list in
            order, so chunk ``i`` covers tasks ``[start, stop)``).
        start / stop: task-index range of the chunk.
        executed_in: ``"pool"`` (completed in a worker), ``"serial"``
            (the sweep never started a pool), ``"serial-fallback"``
            (re-run in-process after a pool-side failure) or
            ``"cached"`` (restored from a checkpoint directory
            instead of executed -- emitted by checkpointed fleet
            studies, see :mod:`repro.system.checkpoint`; its
            ``wall_time_s`` is the restore time).
        wall_time_s: time spent evaluating the chunk, measured inside
            whichever process ran it (excludes queueing / transport).
        retries: total re-executions granted to the chunk's tasks.
        n_failures: tasks that exhausted their attempts.
    """

    index: int
    start: int
    stop: int
    executed_in: str
    wall_time_s: float
    retries: int
    n_failures: int


@dataclass(frozen=True)
class SweepReport:
    """What one :func:`run_sweep` call did, delivered via ``on_report``.

    Attributes:
        n_tasks / n_chunks / max_workers: run geometry.
        mode: ``"serial"`` (no pool was started),
            ``"pool"`` (every chunk completed in a worker) or
            ``"pool+serial-fallback"`` (some chunks were recovered
            in-process after a pool-side failure).
        serial_reason: why no pool was started (``None`` when pooled).
        fallback_reasons: pool-side infrastructure errors that were
            recovered from by serial re-execution, one entry per
            failed chunk (``BrokenProcessPool``, ``PicklingError`` on
            a task or result, ...).
        wall_time_s: end-to-end runner time, including scheduling.
        chunks: per-chunk telemetry, in chunk (= task) order.
        retries: total task re-executions across the sweep.
        failures: tasks that exhausted their attempts, in task order
            (empty under ``on_error="raise"`` semantics only if the
            sweep succeeded -- the report is delivered *before* the
            :class:`~repro.errors.TaskError` is raised, so it is the
            place to look when a sweep dies).
        cache_counters: per-named-cache ``{"hits": h, "misses": m}``
            deltas attributable to this sweep's task evaluations
            (summed over serial and worker processes); see
            :func:`repro.solvers.factorized.cache_counters`.  When a
            task drives a batched engine, ``batched_solves`` /
            ``batched_rows`` deltas appear alongside the hit/miss
            counts (they are omitted when zero).
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
class _TaskOutcome:
    """One task's result or failure (worker-to-parent transport)."""

    index: int
    value: Any
    failure: Optional[TaskFailure]
    retries: int


@dataclass(frozen=True)
class _ChunkOutput:
    """Everything a chunk execution reports back to the parent."""

    outcomes: List[_TaskOutcome]
    wall_time_s: float
    cache_delta: Dict[str, Dict[str, int]]


def _chunk_bounds(n_tasks: int, chunk_size: int) -> List[range]:
    return [range(start, min(start + chunk_size, n_tasks))
            for start in range(0, n_tasks, chunk_size)]


def _transportable_error(exc: BaseException) -> Optional[BaseException]:
    """The exception itself if it survives a pickle round-trip."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _make_failure(exc: BaseException, index: int, chunk_index: int,
                  attempts: int, in_process: bool) -> TaskFailure:
    text = "".join(traceback_module.format_exception(
        type(exc), exc, exc.__traceback__))
    return TaskFailure(
        task_index=index,
        chunk_index=chunk_index,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback=text,
        attempts=attempts,
        error=exc if in_process else _transportable_error(exc))


#: Counter keys always present on a reported cache delta; any other
#: counter (``batched_solves`` / ``batched_rows``) appears only when
#: its delta is nonzero, so sweeps that never touch a batched engine
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


def _run_chunk(fn: Callable[..., Any], chunk_tasks: Sequence[Any],
               indices: Sequence[int], seed: Optional[int],
               retries: int = 0, chunk_index: int = 0,
               in_process: bool = True) -> _ChunkOutput:
    """Evaluate one chunk (in a pool worker or the parent process).

    Task-level exceptions never escape: each task is retried up to
    ``retries`` times (re-deriving its seed sequence, so the stream is
    identical on every attempt) and then captured as a
    :class:`TaskFailure`.  Anything raised *out* of this function in a
    worker is therefore pool infrastructure, which is what lets the
    parent treat future exceptions as recoverable.
    """
    before = cache_counters()
    start_time = time.perf_counter()
    outcomes: List[_TaskOutcome] = []
    for task, index in zip(chunk_tasks, indices):
        attempt = 0
        while True:
            try:
                if seed is None:
                    value = fn(task)
                else:
                    value = fn(task, task_seed_sequence(seed, index))
            except Exception as exc:
                if attempt < retries:
                    attempt += 1
                    continue
                outcomes.append(_TaskOutcome(
                    index=index, value=None, retries=attempt,
                    failure=_make_failure(exc, index, chunk_index,
                                          attempt + 1, in_process)))
                break
            outcomes.append(_TaskOutcome(index=index, value=value,
                                         failure=None, retries=attempt))
            break
    wall = time.perf_counter() - start_time
    return _ChunkOutput(outcomes=outcomes, wall_time_s=wall,
                        cache_delta=_cache_delta(before,
                                                 cache_counters()))


def _picklable(*objects: Any) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def run_sweep(fn: Callable[..., Any], tasks: Sequence[Any], *,
              max_workers: Optional[int] = None,
              chunk_size: Optional[int] = None,
              seed: Optional[int] = None,
              min_tasks_for_pool: Optional[int] = None,
              on_error: str = "raise",
              retries: int = 0,
              progress: Optional[Callable[[int, int], None]] = None,
              on_report: Optional[Callable[[SweepReport], None]] = None
              ) -> List[Any]:
    """Evaluate ``fn`` over every task, optionally in parallel.

    Args:
        fn: the task function.  Called as ``fn(task)``, or as
            ``fn(task, seed_sequence)`` when ``seed`` is given, with a
            per-task ``numpy.random.SeedSequence`` derived from
            ``(seed, task index)`` -- pass it to
            ``numpy.random.default_rng``.
        tasks: the task descriptions, evaluated independently.
        max_workers: process count; ``None`` picks the CPUs this
            process may run on (:func:`available_cpus`), ``0``/``1``
            forces the serial in-process path.
        chunk_size: tasks per submitted chunk (defaults to an even
            split over ~4 chunks per worker).  Chunking only affects
            scheduling granularity, never results.
        seed: root seed for per-task deterministic randomness.
        min_tasks_for_pool: below this many tasks the sweep runs
            serially in-process (``None`` uses
            ``DEFAULT_MIN_TASKS_FOR_POOL``); process startup and
            pickling otherwise dominate small batches.  Serial and
            pooled runs produce identical results, so the threshold is
            purely a performance knob.
        on_error: what to do with tasks that exhaust their attempts.
            ``"raise"`` (default) raises
            :class:`~repro.errors.TaskError` attributing the first
            failing task, with the worker's exception chained;
            ``"skip"`` omits failed tasks from the results (surviving
            results stay in task order); ``"collect"`` keeps the
            results list full-length with a :class:`TaskFailure`
            record in each failed slot.
        retries: bounded per-task re-executions before a task counts
            as failed.  Retries re-derive the identical seed sequence,
            so a seeded task that succeeds on attempt *k* returns
            byte-identical results to one that succeeds on attempt 1.
        progress: optional callback invoked as
            ``progress(done_tasks, total_tasks)`` after every
            completed chunk (serial and pooled alike).
        on_report: optional callback receiving the final
            :class:`SweepReport`.  It is delivered *before* a
            ``"raise"`` policy raises, so telemetry survives failure.

    Returns:
        The results in task order -- independent of worker count,
        chunking, retries, and pool failures.  A mid-run
        ``BrokenProcessPool`` / ``PicklingError`` is recovered by
        re-running only the incomplete chunks serially.
    """
    tasks = list(tasks)
    started = time.perf_counter()
    if max_workers is None:
        max_workers = available_cpus()
    if max_workers < 0:
        raise SimulationError("max_workers must be non-negative")
    if min_tasks_for_pool is None:
        min_tasks_for_pool = DEFAULT_MIN_TASKS_FOR_POOL
    elif min_tasks_for_pool < 1:
        raise SimulationError("min_tasks_for_pool must be at least 1")
    if on_error not in ON_ERROR_POLICIES:
        raise SimulationError(
            f"on_error must be one of {ON_ERROR_POLICIES}, "
            f"got {on_error!r}")
    if retries < 0:
        raise SimulationError("retries must be non-negative")

    if not tasks:
        if on_report is not None:
            on_report(SweepReport(
                n_tasks=0, n_chunks=0, max_workers=max_workers,
                mode="serial", serial_reason="no tasks",
                fallback_reasons=(), wall_time_s=0.0, chunks=(),
                retries=0, failures=(), cache_counters={}))
        return []

    if chunk_size is None:
        chunk_size = max(1, -(-len(tasks) // (4 * max(max_workers, 1))))
    elif chunk_size < 1:
        raise SimulationError("chunk_size must be at least 1")
    chunks = _chunk_bounds(len(tasks), chunk_size)

    serial_reason: Optional[str] = None
    if max_workers <= 1:
        serial_reason = "max_workers <= 1"
    elif len(tasks) < min_tasks_for_pool:
        serial_reason = (f"{len(tasks)} tasks below "
                         f"min_tasks_for_pool={min_tasks_for_pool}")
    elif not _picklable(fn):
        serial_reason = "function is not picklable"
    elif not _picklable(tasks[0]):
        # A conservative probe: a heterogeneous list may still hide an
        # unpicklable later task, which the pool-side recovery below
        # degrades on chunk by chunk.
        serial_reason = "probe task is not picklable"

    pool: Optional[ProcessPoolExecutor] = None
    if serial_reason is None:
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        except (OSError, PermissionError) as exc:
            # Sandboxes / restricted environments without process
            # spawn.
            serial_reason = (f"process pool unavailable "
                             f"({type(exc).__name__}: {exc})")

    chunk_outputs: List[Optional[_ChunkOutput]] = [None] * len(chunks)
    chunk_modes = ["serial"] * len(chunks)
    fallback_reasons: List[str] = []
    done_tasks = 0

    def announce(indices: range) -> None:
        nonlocal done_tasks
        done_tasks += len(indices)
        if progress is not None:
            progress(done_tasks, len(tasks))

    if pool is not None:
        with pool:
            futures: List[Optional[Any]] = []
            for chunk_index, indices in enumerate(chunks):
                try:
                    futures.append(pool.submit(
                        _run_chunk, fn,
                        [tasks[i] for i in indices], list(indices),
                        seed, retries, chunk_index, False))
                except Exception as exc:
                    # e.g. submitting to an already-broken pool.
                    futures.append(None)
                    fallback_reasons.append(
                        f"chunk {chunk_index} submission failed "
                        f"({type(exc).__name__}: {exc})")
            for chunk_index, future in enumerate(futures):
                if future is None:
                    continue
                try:
                    chunk_outputs[chunk_index] = future.result()
                except Exception as exc:
                    # Task errors are captured in-band by _run_chunk,
                    # so anything raised here is pool infrastructure
                    # (BrokenProcessPool, an unpicklable task or
                    # result, ...); the chunk is re-run serially
                    # below.  A broken pool fails the remaining
                    # futures immediately, so this drain is fast.
                    fallback_reasons.append(
                        f"chunk {chunk_index} failed in the pool "
                        f"({type(exc).__name__}: {exc})")
                else:
                    chunk_modes[chunk_index] = "pool"
                    announce(chunks[chunk_index])

    for chunk_index, indices in enumerate(chunks):
        if chunk_outputs[chunk_index] is not None:
            continue
        chunk_outputs[chunk_index] = _run_chunk(
            fn, [tasks[i] for i in indices], list(indices), seed,
            retries, chunk_index, True)
        if serial_reason is None:
            chunk_modes[chunk_index] = "serial-fallback"
        announce(indices)

    outcomes = [outcome for output in chunk_outputs
                for outcome in output.outcomes]
    failures = tuple(outcome.failure for outcome in outcomes
                     if outcome.failure is not None)

    # Durable run counters (repro.solvers.cache_counters): how much
    # sweep work ran where.  Callers that wrap run_sweep (the fleet
    # chunk executor) surface these next to their cache telemetry.
    record_counters(
        "solvers.sweep", tasks=len(tasks),
        pooled_chunks=sum(1 for mode in chunk_modes
                          if mode == "pool"),
        serial_chunks=sum(1 for mode in chunk_modes
                          if mode == "serial"),
        fallback_chunks=sum(1 for mode in chunk_modes
                            if mode == "serial-fallback"))

    if on_report is not None:
        cache_totals: Dict[str, Dict[str, int]] = {}
        records = []
        for chunk_index, indices in enumerate(chunks):
            output = chunk_outputs[chunk_index]
            _merge_cache_deltas(cache_totals, output.cache_delta)
            records.append(ChunkRecord(
                index=chunk_index, start=indices.start,
                stop=indices.stop,
                executed_in=chunk_modes[chunk_index],
                wall_time_s=output.wall_time_s,
                retries=sum(o.retries for o in output.outcomes),
                n_failures=sum(1 for o in output.outcomes
                               if o.failure is not None)))
        if serial_reason is not None:
            mode = "serial"
        elif fallback_reasons:
            mode = "pool+serial-fallback"
        else:
            mode = "pool"
        on_report(SweepReport(
            n_tasks=len(tasks), n_chunks=len(chunks),
            max_workers=max_workers, mode=mode,
            serial_reason=serial_reason,
            fallback_reasons=tuple(fallback_reasons),
            wall_time_s=time.perf_counter() - started,
            chunks=tuple(records),
            retries=sum(o.retries for o in outcomes),
            failures=failures, cache_counters=cache_totals))

    if failures and on_error == "raise":
        first = failures[0]
        message = str(first)
        if first.error is None:
            message += "\n--- worker traceback ---\n" + first.traceback
        raise TaskError(message, task_index=first.task_index,
                        chunk_index=first.chunk_index,
                        attempts=first.attempts) from first.error

    if on_error == "skip":
        return [outcome.value for outcome in outcomes
                if outcome.failure is None]
    if on_error == "collect":
        return [outcome.failure if outcome.failure is not None
                else outcome.value for outcome in outcomes]
    return [outcome.value for outcome in outcomes]
