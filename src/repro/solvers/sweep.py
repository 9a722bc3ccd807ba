"""Fault-tolerant process-pool runner of the fleet chunk executor.

Whole-lifetime fleet chunks (:mod:`repro.system.fleet`) are the one
workload heavy enough to repay process startup, so they are the one
caller of :func:`run_sweep`.  The runner evaluates a pure function over
a list of independent tasks, one task per pool future, with three
guarantees:

* **Determinism** -- results are returned in task order.  A task that
  needs randomness carries its own seed and draws from
  :func:`task_seed_sequence` (the fleet's variation draws do), so the
  output is byte-identical no matter how many workers run the sweep,
  in which order they finish, or how many retries / pool failures
  occurred along the way.
* **Graceful degradation** -- when only one worker is requested, when
  the function or the first task cannot be pickled (lambdas,
  closures), or when no pool can be spawned, the sweep runs serially
  in-process with identical results.  A pool that breaks *mid-run* (a
  worker killed by the OOM killer, an unpicklable task or result
  surfacing only later in the list) is recovered from by re-running
  just the incomplete tasks serially -- completed tasks are never
  recomputed and never reordered.
* **Attribution** -- a task that still raises after its bounded
  ``retries`` raises :class:`repro.errors.TaskError` carrying the task
  index and attempt count, with the worker's original exception
  chained.

Every run can also report what happened: pass ``on_report`` to
receive a :class:`SweepReport` with per-task wall times, retry counts,
the serial-fallback reason, recovered pool failures, and hit/miss
deltas of every named
:class:`~repro.solvers.factorized.FactorizationCache` (the compiled
circuit LU cache, the simulator condition cache, the thermal and PDE
operator caches) attributable to the sweep, summed over the parent
and every worker.
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
    :func:`chunk_tasks` and ships each slice as an independent sweep
    task, inheriting the runner's crash-safe machinery (bounded
    retries, serial re-execution after worker death,
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
    """A structured record of one task that exhausted its attempts.

    Listed on :attr:`SweepReport.failures`, which is delivered before
    the sweep raises :class:`~repro.errors.TaskError` for the first
    of them.

    Attributes:
        task_index: position of the failed task in the sweep's list.
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
        return (f"task {self.task_index} failed after "
                f"{self.attempts} attempt(s): "
                f"{self.error_type}: {self.message}")


@dataclass(frozen=True)
class ChunkRecord:
    """Telemetry of one executed task (one fleet chunk).

    Attributes:
        index: task position; the record covers tasks
            ``[start, stop)``, which is ``[index, index + 1)`` for a
            :func:`run_sweep` task.
        start / stop: task-index range of the record.
        executed_in: ``"pool"`` (completed in a worker), ``"serial"``
            (the sweep never started a pool), ``"serial-fallback"``
            (re-run in-process after a pool-side failure) or
            ``"cached"`` (restored from a checkpoint directory
            instead of executed -- emitted by checkpointed fleet
            studies, see :mod:`repro.system.checkpoint`; its
            ``wall_time_s`` is the restore time).
        wall_time_s: time spent evaluating the task, measured inside
            whichever process ran it (excludes queueing / transport).
        retries: re-executions granted to the task.
        n_failures: 1 if the task exhausted its attempts, else 0.
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
        n_tasks / n_chunks / max_workers: run geometry (every task is
            its own chunk).
        mode: ``"serial"`` (no pool was started),
            ``"pool"`` (every task completed in a worker) or
            ``"pool+serial-fallback"`` (some tasks were recovered
            in-process after a pool-side failure).
        serial_reason: why no pool was started (``None`` when pooled).
        fallback_reasons: pool-side infrastructure errors that were
            recovered from by serial re-execution, one entry per
            failed task (``BrokenProcessPool``, ``PicklingError`` on
            a task or result, ...).
        wall_time_s: end-to-end runner time, including scheduling.
        chunks: per-task telemetry, in task order.
        retries: total task re-executions across the sweep.
        failures: tasks that exhausted their attempts, in task order.
            The report is delivered *before* the
            :class:`~repro.errors.TaskError` is raised, so it is the
            place to look when a sweep dies.
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
class _TaskOutput:
    """One task's result or failure plus its telemetry (worker-to-parent
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


def _run_task(fn: Callable[[Any], Any], task: Any, index: int,
              retries: int, in_process: bool) -> _TaskOutput:
    """Evaluate one task (in a pool worker or the parent process).

    Task-level exceptions never escape: the task is retried up to
    ``retries`` times and then captured as a :class:`TaskFailure`.
    Anything raised *out* of this function in a worker is therefore
    pool infrastructure, which is what lets the parent treat future
    exceptions as recoverable.
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


def _picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def run_sweep(fn: Callable[[Any], Any], tasks: Sequence[Any], *,
              max_workers: Optional[int] = None,
              retries: int = 0,
              on_report: Optional[Callable[[SweepReport], None]] = None
              ) -> List[Any]:
    """Evaluate ``fn`` over every task, one pool future per task.

    Args:
        fn: the task function, called as ``fn(task)``.
        tasks: the task descriptions, evaluated independently.
        max_workers: process count; ``None`` picks the CPUs this
            process may run on (:func:`available_cpus`), ``0``/``1``
            forces the serial in-process path.  There is no task-count
            gate: a caller decides up front whether its work repays
            process startup.
        retries: bounded per-task re-executions before a task counts
            as failed; the first failed task then raises
            :class:`~repro.errors.TaskError`, with the worker's
            exception chained.
        on_report: optional callback receiving the final
            :class:`SweepReport`.  It is delivered *before* a failed
            sweep raises, so telemetry survives failure.

    Returns:
        The results in task order -- independent of worker count,
        completion order, retries, and pool failures.  A mid-run
        ``BrokenProcessPool`` / ``PicklingError`` is recovered by
        re-running only the incomplete tasks serially.
    """
    tasks = list(tasks)
    started = time.perf_counter()
    if max_workers is None:
        max_workers = available_cpus()
    if max_workers < 0:
        raise SimulationError("max_workers must be non-negative")
    if retries < 0:
        raise SimulationError("retries must be non-negative")

    serial_reason: Optional[str] = None
    if not tasks:
        serial_reason = "no tasks"
    elif max_workers <= 1:
        serial_reason = "max_workers <= 1"
    elif not _picklable(fn):
        serial_reason = "function is not picklable"
    elif not _picklable(tasks[0]):
        # A conservative probe: a heterogeneous list may still hide an
        # unpicklable later task, which the pool-side recovery below
        # degrades on task by task.
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

    outputs: List[Optional[_TaskOutput]] = [None] * len(tasks)
    modes = ["serial"] * len(tasks)
    fallback_reasons: List[str] = []

    if pool is not None:
        with pool:
            futures: List[Optional[Any]] = []
            for index, task in enumerate(tasks):
                try:
                    futures.append(pool.submit(
                        _run_task, fn, task, index, retries, False))
                except Exception as exc:
                    # e.g. submitting to an already-broken pool.
                    futures.append(None)
                    fallback_reasons.append(
                        f"task {index} submission failed "
                        f"({type(exc).__name__}: {exc})")
            for index, future in enumerate(futures):
                if future is None:
                    continue
                try:
                    outputs[index] = future.result()
                except Exception as exc:
                    # Task errors are captured in-band by _run_task,
                    # so anything raised here is pool infrastructure
                    # (BrokenProcessPool, an unpicklable task or
                    # result, ...); the task is re-run serially
                    # below.  A broken pool fails the remaining
                    # futures immediately, so this drain is fast.
                    fallback_reasons.append(
                        f"task {index} failed in the pool "
                        f"({type(exc).__name__}: {exc})")
                else:
                    modes[index] = "pool"

    for index, task in enumerate(tasks):
        if outputs[index] is not None:
            continue
        outputs[index] = _run_task(fn, task, index, retries, True)
        if serial_reason is None:
            modes[index] = "serial-fallback"

    failures = tuple(output.failure for output in outputs
                     if output.failure is not None)

    # Durable run counters (repro.solvers.cache_counters): how much
    # sweep work ran where.
    record_counters(
        "solvers.sweep", tasks=len(tasks),
        pooled_chunks=modes.count("pool"),
        serial_chunks=modes.count("serial"),
        fallback_chunks=modes.count("serial-fallback"))

    if on_report is not None:
        cache_totals: Dict[str, Dict[str, int]] = {}
        for output in outputs:
            _merge_cache_deltas(cache_totals, output.cache_delta)
        if serial_reason is not None:
            mode = "serial"
        elif fallback_reasons:
            mode = "pool+serial-fallback"
        else:
            mode = "pool"
        on_report(SweepReport(
            n_tasks=len(tasks), n_chunks=len(tasks),
            max_workers=max_workers, mode=mode,
            serial_reason=serial_reason,
            fallback_reasons=tuple(fallback_reasons),
            wall_time_s=time.perf_counter() - started,
            chunks=tuple(ChunkRecord(
                index=index, start=index, stop=index + 1,
                executed_in=modes[index],
                wall_time_s=output.wall_time_s,
                retries=output.retries,
                n_failures=int(output.failure is not None))
                for index, output in enumerate(outputs)),
            retries=sum(output.retries for output in outputs),
            failures=failures, cache_counters=cache_totals))

    if failures:
        first = failures[0]
        message = str(first)
        if first.error is None:
            message += "\n--- worker traceback ---\n" + first.traceback
        raise TaskError(message, task_index=first.task_index,
                        attempts=first.attempts) from first.error
    return [output.value for output in outputs]
