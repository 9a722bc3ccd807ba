"""The simulator's layers: what the tracer wraps and what it reports.

:data:`TARGETS` names, per layer, the ``repro`` callables whose spans
make up that layer.  All are public except
``FleetSimulator._build_group_conditions``, the fleet's condition-bundle
build, which has no public entry point of its own.  :func:`layer_metrics`
turns one traced pass into the per-layer metrics: self times (as
seconds and as shares of the traced wall time), call and byte counts,
named cache-counter deltas (``repro.solvers.cache_counters``) and the
sweep records of any :class:`~repro.solvers.SweepReport` the pass
received.  Which end-to-end metric each layer should move, and on which
workload, is tabled in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from bench.trace import Target, Tracer, file_size, root_time, self_times

TARGETS = (
    Target("scheduler.assign",
           "repro.system.scheduler:NoRecoveryPolicy.assign"),
    Target("scheduler.assign",
           "repro.system.scheduler:RoundRobinRecoveryPolicy.assign"),
    Target("scheduler.assign",
           "repro.system.dark_silicon:DarkSiliconRotationPolicy.assign"),
    Target("fleet.conditions",
           "repro.system.fleet:FleetSimulator._build_group_conditions"),
    Target("thermal.steady",
           "repro.thermal.network:ThermalRCNetwork.steady_state_cached"),
    Target("thermal.steady",
           "repro.thermal.network:ThermalRCNetwork.steady_state"),
    Target("bti.step", "repro.bti.fleet:StackedTrapPopulations.step"),
    Target("bti.step", "repro.system.aging:FleetBtiState.step"),
    Target("em.step", "repro.system.aging:FleetEmState.step"),
    Target("sensors.readout",
           "repro.sensors.ring_oscillator:"
           "RingOscillator.delay_degradation_array"),
    Target("sensors.readout", "repro.system.aging:FleetEmState.failed"),
    Target("checkpoint.write", "repro.system.checkpoint:write_snapshot",
           nbytes=file_size),
    Target("checkpoint.read", "repro.system.checkpoint:read_snapshot",
           nbytes=file_size),
    Target("circuit.dc_batch", "repro.circuit.batched:dc_batch"),
    Target("circuit.transient_batch",
           "repro.circuit.batched:transient_batch"),
    Target("circuit.batch_step",
           "repro.circuit.batched:CircuitBatch.solve_step_rows"),
    Target("circuit.dc", "repro.circuit.dc:dc_operating_point"),
    Target("circuit.transient", "repro.circuit.transient:transient"),
    Target("em.korhonen_batch", "repro.em.korhonen:KorhonenBatch.advance"),
    Target("em.korhonen", "repro.em.korhonen:KorhonenSolver.advance"),
)

#: Span layers in report order (``other`` is the untraced remainder).
LAYERS = tuple(dict.fromkeys(target.layer for target in TARGETS))


@dataclass
class TracedPass:
    """Everything one traced pass left behind."""

    tracer: Tracer
    wall_s: float
    absent: Set[str]
    counters_before: Mapping[str, Mapping[str, int]]
    counters_after: Mapping[str, Mapping[str, int]]
    reports: Sequence[Any] = field(default_factory=tuple)


#: Sweep modes whose every chunk ran in a pool worker.
POOLED_MODES = ("pool", "fleet+pool")


def merged_counters(traced: TracedPass
                    ) -> Tuple[Dict[str, Dict[str, int]], bool]:
    """Cache-counter deltas of the pass, pool workers included, and
    whether they are complete.

    The parent's totals never see what pool workers counted; a pooled
    sweep ships those deltas back in its report, so they are added.  A
    sweep that fell back to in-process chunks reports worker and
    in-process deltas as one sum, and the in-process part is already in
    the parent's totals: its worker share cannot be told apart, so the
    counters are incomplete.
    """
    merged: Dict[str, Dict[str, int]] = {}
    for name, values in traced.counters_after.items():
        old = traced.counters_before.get(name, {})
        merged[name] = {key: value - old.get(key, 0)
                        for key, value in values.items()}
    complete = True
    for report in traced.reports:
        if report.mode.endswith("serial-fallback"):
            complete = False
        if report.mode not in POOLED_MODES:
            continue
        for name, values in report.cache_counters.items():
            entry = merged.setdefault(name, {})
            for key, value in values.items():
                entry[key] = entry.get(key, 0) + value
    return merged, complete


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _hit_ratio(counters, *names: str) -> Optional[float]:
    hits = sum(counters.get(name, {}).get("hits", 0) for name in names)
    misses = sum(counters.get(name, {}).get("misses", 0)
                 for name in names)
    return _ratio(hits, hits + misses)


def _sweep_metrics(reports: Sequence[Any]) -> Dict[str, Optional[float]]:
    chunk_s = [record.wall_time_s for report in reports
               for record in report.chunks]
    if not reports:
        return {"sweep.workers": None, "sweep.chunks": None,
                "sweep.chunk_s.median": None, "sweep.chunk_s.max": None,
                "sweep.retries": None, "sweep.fallbacks": None}
    return {
        "sweep.workers": max(report.max_workers for report in reports),
        "sweep.chunks": sum(report.n_chunks for report in reports),
        "sweep.chunk_s.median": (float(np.median(chunk_s)) if chunk_s
                                 else None),
        "sweep.chunk_s.max": max(chunk_s) if chunk_s else None,
        "sweep.retries": sum(report.retries for report in reports),
        "sweep.fallbacks": sum(len(report.fallback_reasons)
                               for report in reports),
    }


def layer_metrics(traced: TracedPass) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced pass (``None`` = no traffic,
    or a cache counter that a serial fallback left incomplete).

    ``<layer>.s`` is self time, ``<layer>.share`` its percentage of the
    traced wall time; ``other`` is the wall time no span covers, so
    the self times plus ``other.s`` add up to the wall time.
    ``counters.complete`` is 0 when the cache counters are incomplete
    (see :func:`merged_counters`).
    """
    tracer = traced.tracer
    own = self_times(tracer.names, tracer.starts, tracer.ends,
                     tracer.parents)
    wall = traced.wall_s
    out: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        seconds = own.get(layer, 0.0)
        out[f"{layer}.s"] = seconds
        out[f"{layer}.share"] = 100.0 * seconds / wall
    other = wall - root_time(tracer.starts, tracer.ends, tracer.parents)
    out["other.s"] = other
    out["other.share"] = 100.0 * other / wall
    out.update({
        "scheduler.assign.calls": tracer.calls["scheduler.assign"],
        "bti.step.calls": tracer.calls["bti.step"],
        "checkpoint.write.calls": tracer.calls["checkpoint.write"],
        "checkpoint.write.bytes": tracer.bytes["checkpoint.write"],
        "checkpoint.read.calls": tracer.calls["checkpoint.read"],
        "checkpoint.read.bytes": tracer.bytes["checkpoint.read"],
        "trace.wall_s": wall,
    })
    counters, complete = merged_counters(traced)
    kernels = counters.get("bti.fleet.kernels", {})
    from_counters = {
        "fleet.cohorts": counters.get("fleet.engine", {}).get("cohorts", 0),
        "fleet.conditions.hit_ratio": _hit_ratio(counters,
                                                 "fleet.conditions"),
        "thermal.steady.hit_ratio": _hit_ratio(counters, "thermal.steady"),
        "bti.kernels.builds": kernels.get("kernel_builds", 0),
        "bti.kernels.dedup_ratio": _ratio(
            kernels.get("dedup_rows_in", 0),
            kernels.get("dedup_rows_unique", 0)),
        "system.conditions.hit_ratio": _hit_ratio(counters,
                                                  "system.conditions"),
        "system.aging.hit_ratio": _hit_ratio(
            counters, "system.aging.kernels", "system.aging.steps"),
        "circuit.batch.rows": counters.get(
            "circuit.lu.batched", {}).get("batched_rows", 0),
        "circuit.batch.solves": counters.get(
            "circuit.lu.batched", {}).get("batched_solves", 0),
        "circuit.lu.hit_ratio": _hit_ratio(counters, "circuit.lu"),
        "em.korhonen_batch.rows": counters.get(
            "em.korhonen.lu.batched", {}).get("batched_rows", 0),
        "em.korhonen.lu.hit_ratio": _hit_ratio(counters, "em.korhonen.lu"),
    }
    # Incomplete counters are not reported as if they were whole.
    out.update({name: value if complete else None
                for name, value in from_counters.items()})
    out["counters.complete"] = 1 if complete else 0
    out.update(_sweep_metrics(traced.reports))
    return out

