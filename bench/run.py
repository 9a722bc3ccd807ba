"""One measured run of one workload: the command ``BENCHMARK.json`` names.

    python -m bench.run --workload NAME [--seed 7] [--seconds 10]
                        [--trace 0|1] [--out FILE]

Shape of a run (one process):

1. build the workload's inputs from ``--seed``;
2. one untimed warm-up pass, so caches fill and lazy set-up finishes;
3. timed passes with tracing off for ``--seconds`` (at least
   :data:`MIN_TIMED_PASSES`), then the peak RSS (this process plus its
   largest child, which on ``design_grid`` is a pool worker);
4. with ``--trace 1``, one more pass with the layer wrappers of
   :mod:`bench.layers` installed, removed again afterwards;
5. set-up measured in :data:`SETUP_PROBES` fresh processes
   (:mod:`bench.probe`), after the RSS read so the probes do not count
   as children.

Host times are reported at a reference speed
(:class:`~bench.clock.ReferenceClock`), and pass quantities as the
median over the timed passes.  Every pass is checked
(:class:`Checker`); a pass that raises or fails its check counts as
failed.  Metrics print one per line with their
units; the last stdout line is one JSON object ``{"correct",
"attempted", "failed", "metrics"}`` holding the end-to-end metrics that
``BENCHMARK.json`` names (``--trace 0``) or its per-layer metrics
(``--trace 1``).  ``--out`` writes the full record -- every metric,
pass statistics, check failures, the environment -- and, when traced,
the raw spans as Chrome trace-event JSON beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers import cache_counters

from bench import ROOT
from bench.clock import Interval, ReferenceClock
from bench.layers import TARGETS, TracedPass, layer_metrics
from bench.probe import SETUP_PHASES
from bench.trace import Tracer, chrome_trace_events, traced
from bench.workloads import FULL, WORKLOADS, PassResult, Size

#: The seed ``reference.json`` was generated with.
DEFAULT_SEED = 7

#: Timed-pass budget of a run (``run_seconds`` of ``BENCHMARK.json``).
DEFAULT_SECONDS = 12.0

#: Minimum timed passes per run, whatever ``--seconds`` says.
MIN_TIMED_PASSES = 5

#: Fresh processes that measure set-up; their median is ``setup_s``.
SETUP_PROBES = 3

#: Relative tolerance of the reference check.
REFERENCE_RTOL = 1e-9

REFERENCE_PATH = os.path.join(ROOT, "bench", "reference.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")


def unit_of(name: str) -> str:
    """The unit of any metric the benchmark reports, by its name."""
    if name.endswith(".share"):
        return "%"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")) or "_s." in name:
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("ratio", "overhead", "fraction")):
        return "ratio"
    return "count"


# -- output checks ----------------------------------------------------------


def _close(ours, theirs) -> bool:
    if isinstance(theirs, str) or isinstance(ours, str):
        return ours == theirs
    if isinstance(theirs, list):
        return (isinstance(ours, list) and len(ours) == len(theirs)
                and all(_close(a, b) for a, b in zip(ours, theirs)))
    return math.isclose(float(ours), float(theirs), rel_tol=REFERENCE_RTOL)


def _is_nan(value) -> bool:
    if isinstance(value, str):
        return False
    if isinstance(value, list):
        return any(_is_nan(v) for v in value)
    return math.isnan(value)


def load_reference(name: str, seed: int) -> Optional[Dict[str, Any]]:
    """The reference summary of ``name`` if it applies to ``seed``.

    ``reference.json`` holds the default seed's summaries; a workload
    without random inputs is checked against it whatever the seed.
    """
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        reference = json.load(handle)
    if WORKLOADS[name].uses_seed and seed != reference["seed"]:
        return None
    return reference["workloads"][name]


class Checker:
    """Checks every pass of one run.

    A pass must repeat the run's first successful pass bit for bit
    (same output digest), report no NaN statistics, and -- when a
    reference applies -- match it within :data:`REFERENCE_RTOL`.
    """

    def __init__(self, reference: Optional[Dict[str, Any]]):
        self.reference = reference
        self.digest: Optional[str] = None

    def problems(self, result: PassResult) -> List[str]:
        """Why ``result`` is wrong (empty when it is right)."""
        found = [f"NaN in summary {key!r}"
                 for key, value in result.summary.items()
                 if _is_nan(value)]
        if self.reference is not None:
            if set(result.summary) != set(self.reference):
                found.append("summary keys differ from reference.json")
            found.extend(
                f"{key!r} differs from reference.json"
                for key in sorted(set(result.summary) & set(self.reference))
                if not _close(result.summary[key], self.reference[key]))
        if self.digest is None and not found:
            self.digest = result.digest
        elif self.digest is not None and result.digest != self.digest:
            found.append("outputs differ from the run's first pass")
        return found


class Run:
    """Passes of one run with their outcomes."""

    def __init__(self, workload: str, seed: int, size: Size = FULL,
                 reference: Optional[Dict[str, Any]] = None):
        self.workload = WORKLOADS[workload]
        self.inputs = self.workload.build(seed, size)
        self.checker = Checker(reference)
        self.clock = ReferenceClock(self.workload.speed_exponent)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def one_pass(self) -> Tuple[Interval, Optional[PassResult]]:
        """Run, time and check one pass; ``(interval, result or None)``."""
        self.attempted += 1
        gc.collect()
        try:
            with self.clock.interval() as measured:
                result = self.workload.run(self.inputs, self.clock)
        except Exception as error:  # a failing pass is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.failures.append(f"{type(error).__name__}: {error}")
            return measured, None
        problems = self.checker.problems(result)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            self.failed += 1
            self.failures.extend(problems)
            return measured, None
        return measured, result


# -- measurements -----------------------------------------------------------


def stats(values: Sequence[float]) -> Dict[str, float]:
    """Mean, median, quartiles, extremes and count of a sample."""
    q1, median, q3 = np.percentile(values, (25, 50, 75))
    return {"mean": float(np.mean(values)), "median": float(median),
            "q1": float(q1), "q3": float(q3),
            "min": float(min(values)), "max": float(max(values)),
            "n": len(values)}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def probe_setup(workload: str, seed: int) -> Dict[str, float]:
    """Set-up phases (reference-speed seconds) and wall time of one
    fresh process."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "bench.probe", workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    probe["wall_s"] = time.perf_counter() - started
    return probe


def pool_workers(reports: Sequence[Any]) -> Optional[int]:
    """Workers a pass's sweeps actually ran on (``None``: no sweep)."""
    if not reports:
        return None
    pooled = [r.max_workers for r in reports if r.mode.startswith("pool")]
    return max(pooled) if pooled else 1


def git_head() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def environment(seed: int, load_before, workers: Optional[int]) -> dict:
    """Hardware and software the results were measured on."""
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as handle:
            cpu_max: Optional[str] = handle.read().strip()
    except OSError:
        cpu_max = None
    try:
        affinity: Optional[int] = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        ram = None
    return {"nproc": os.cpu_count(), "affinity_cpus": affinity,
            "cgroup_cpu_max": cpu_max, "ram_bytes": ram,
            "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": np.__version__, "git_head": git_head(),
            "seed": seed, "design_grid_workers": workers}


# -- one run ----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: Size = FULL, probes: int = SETUP_PROBES) -> dict:
    """Run one workload as described in the module docstring.

    Returns the full record: ``end_to_end`` / ``per_layer`` metric
    values (pass times at reference speed, see
    :class:`ReferenceClock`), every sampled quantity per pass
    (``samples``, wall times included) with its ``stats``, pass counts
    and check failures, and when traced the spans as Chrome trace
    events.
    """
    run = Run(workload, seed, size,
              load_reference(workload, seed) if size == FULL else None)
    run.one_pass()
    timed = ["pass_s", *(metric.name for metric in run.workload.metrics)]
    sampled: Dict[str, List[float]] = {
        name: [] for name in (*timed, "pass_wall_s", "pass_scale")}
    reports: Sequence[Any] = ()
    started = time.perf_counter()
    while True:
        measured, result = run.one_pass()
        sampled["pass_s"].append(measured.seconds)
        sampled["pass_wall_s"].append(measured.wall_s)
        sampled["pass_scale"].append(measured.scale)
        if result is not None:
            reports = result.reports
            times = dict(result.parts_s, pass_s=measured.seconds)
            for metric in run.workload.metrics:
                sampled[metric.name].append(
                    metric.value(result.work, times))
        elapsed = time.perf_counter() - started
        if (len(sampled["pass_s"]) >= MIN_TIMED_PASSES
                and elapsed + measured.wall_s > seconds):
            break
    rss = peak_rss_mb()
    record: Dict[str, Any] = {"workload": workload, "seed": seed,
                              "seconds": seconds,
                              "pool_workers": pool_workers(reports)}
    if trace:
        # Spans are read on the run's clock, so the time its samples
        # take is left out of every span as it is out of the pass.
        tracer = Tracer(clock=run.clock.now)
        before = cache_counters()
        with traced(tracer, TARGETS) as absent:
            origin = run.clock.now()
            measured, result = run.one_pass()
        traced_pass = TracedPass(
            tracer=tracer, wall_s=measured.wall_s, absent=absent,
            counters_before=before, counters_after=cache_counters(),
            reports=result.reports if result is not None else ())
        per_layer = layer_metrics(traced_pass)
        per_layer["trace.overhead"] = (
            measured.seconds / statistics.median(sampled["pass_s"]) - 1.0)
        record["per_layer"] = per_layer
        record["absent"] = sorted(absent)
        record["trace"] = chrome_trace_events(tracer, origin, workload)
    setups = []
    sampled["setup_wall_s"] = []
    for _ in range(probes):
        probe = probe_setup(workload, seed)
        setups.append({phase: probe[phase] for phase in SETUP_PHASES})
        sampled["setup_wall_s"].append(probe["wall_s"])
    sampled["setup_s"] = [sum(setup.values()) for setup in setups]
    record["samples"] = sampled
    summary = {name: stats(values)
               for name, values in sampled.items() if values}
    record["stats"] = summary
    # Every end-to-end value is the median of its run: of the passes
    # for pass quantities, of the probes for set-up.
    end_to_end = {name: summary[name]["median"]
                  for name in (*timed, "pass_wall_s", "setup_s",
                               "setup_wall_s") if name in summary}
    end_to_end["peak_rss_mb"] = rss
    record["end_to_end"] = end_to_end
    if trace:
        for phase in SETUP_PHASES:
            record["per_layer"][f"setup.{phase[:-2]}.s"] = float(
                np.median([setup[phase] for setup in setups]))
    attempted, failed = run.attempted, run.failed
    end_to_end["failed_fraction"] = failed / attempted
    record.update(attempted=attempted, failed=failed,
                  failures=run.failures, correct=failed == 0)
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The last stdout line: BENCHMARK.json's metrics for this mode."""
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["per_layer" if trace
                                      else "end_to_end"]]
    values = record["per_layer" if trace else "end_to_end"]
    # A layer or counter with no traffic on this workload reads 0.
    metrics = {name: {"value": float(values[name] or 0.0),
                      "unit": unit_of(name)} for name in names}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record: dict) -> None:
    """Every metric of a record, one ``name value unit`` line each."""
    print(f"== {record['workload']} (seed {record['seed']}): "
          f"{record['attempted']} passes, {record['failed']} failed")
    for block in ("end_to_end", "per_layer"):
        for name, value in record.get(block, {}).items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:32s} {shown:>14s} {unit_of(name)}")
    if record.get("absent"):
        print(f"  absent layers: {', '.join(record['absent'])}")


def write_record(record: dict, path: str, env: dict) -> None:
    """Write the record (and its spans, if traced) as JSON files."""
    events = record.pop("trace", None)
    record["env"] = env
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if events is not None:
        stem, _ = os.path.splitext(path)
        with open(stem + ".trace.json", "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m bench.run",
        description="One measured run of one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the full record here as JSON")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg() if args.out else None
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print_record(record)
    line = result_line(record, bool(args.trace))
    if args.out:
        env = environment(args.seed, load_before, record["pool_workers"])
        write_record(record, args.out, env)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
