"""The five benchmark workloads: inputs, one pass, and output checks.

Each workload builds its inputs from the benchmark seed
(:attr:`Workload.build`) and runs one *pass* through public ``repro``
entry points with their default engines (:attr:`Workload.run`).  A
pass returns a :class:`PassResult`:

* ``summary`` -- summary statistics compared with ``reference.json``
  within a relative 1e-9 (the engine-equivalence tests pin 1e-10, so
  a rewrite that stays within them still passes);
* ``digest`` -- a SHA-256 of every output, which must repeat bit for
  bit on every pass of a run;
* ``work`` / ``parts_s`` -- work done and sub-steps timed in
  reference-speed seconds by the clock the pass is given
  (:meth:`~bench.clock.ReferenceClock.part`), from which the
  workload's own end-to-end metrics (:attr:`Workload.metrics`) are
  derived;
* ``reports`` -- the :class:`~repro.solvers.SweepReport` objects the
  pass received, for the per-layer sweep metrics.

Equalities a workload must satisfy whatever the seed (a resumed
session equals the unsaved one, ...) raise :class:`CheckError` inside
the pass.  No entry point is given an ``engine=`` or pool-threshold
argument, so the benchmark keeps working when those switches go.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import shutil
import statistics
import tempfile
import zlib
from dataclasses import dataclass, field
from itertools import permutations
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.cli
from repro.assist.circuitry import AssistCircuit
from repro.assist.modes import AssistMode
from repro.assist.sizing import sweep_load_size
from repro.assist.sweeps import (
    mode_switch_matrix,
    ring_oscillator_fleet,
    sweep_load_size_pooled,
)
from repro.circuit.oscillator import RingOscillatorNetlist
from repro.em.korhonen import KorhonenConfig
from repro.em.line import PAPER_EM_STRESS, EmStressCondition
from repro.em.statistics import sample_nucleation_ttfs_pde
from repro.system.checkpoint import FleetSession
from repro.system.fleet import (
    FleetGroup,
    FleetVariationSpec,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    RandomWorkload,
)

from bench import ROOT
from bench.clock import ReferenceClock


class CheckError(Exception):
    """A pass produced outputs that break one of its own equalities."""


@dataclass(frozen=True)
class Size:
    """Problem size of one pass of every workload."""

    mixed_chips_per_group: int = 32
    mixed_epochs: int = 36
    durable_chips: int = 4096
    durable_session_chips: int = 1024
    durable_budget_bytes: int = 32 * 2 ** 20
    grid_chips_per_shape: int = 4
    grid_epochs: int = 168
    load_points: int = 32
    rings: int = 32
    wires: int = 1024
    figure_load_points: int = 8
    figure_rings: int = 8


#: The benchmark's size.  A pass takes about a second on a 2-CPU host,
#: so a ten-second run times five to ten passes: on a shared host,
#: many short passes, each scaled by the host speed measured around
#: it, give a steadier run than a few long ones.
FULL = Size()

#: A size for the self-tests only (every workload in seconds).  The
#: durable budget holds 16 chips of a 3x3 fleet, so the study still
#: streams through four checkpointed chunks.
TINY = Size(mixed_chips_per_group=3, mixed_epochs=6, durable_chips=64,
            durable_session_chips=8, durable_budget_bytes=16 * 29160,
            grid_chips_per_shape=1, grid_epochs=6, load_points=3,
            rings=2, wires=32, figure_load_points=2, figure_rings=2)


@dataclass
class PassResult:
    """What one pass produced (see the module docstring)."""

    summary: Dict[str, Any]
    digest: str
    work: Dict[str, float]
    parts_s: Dict[str, float] = field(default_factory=dict)
    reports: List[Any] = field(default_factory=list)


@dataclass(frozen=True)
class Metric:
    """A workload's own end-to-end metric, computed from one pass.

    ``value(work, times)`` derives it from the pass's work counts and
    its times (``pass_s`` plus the pass's ``parts_s``, all in
    reference-speed seconds).  :mod:`bench.compare` judges a metric
    that times something other than the whole pass with the bound
    ``BENCHMARK.json`` gives ``pass_s``.  One that only restates
    ``pass_s`` (a fixed amount of work over it, or the pass time
    itself) is ``judged=False``: it is shown, but a change to ``pass_s``
    is not judged twice.
    """

    name: str
    better: str
    value: Callable[[Dict[str, float], Dict[str, float]], float]
    judged: bool = True


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (README.md and ``BENCHMARK.json`` say why
    each exists)."""

    name: str
    build: Callable[[int, Size], Dict[str, Any]]
    #: ``run(inputs, clock)``: one pass; ``clock.part()`` times its
    #: ``parts_s``.
    run: Callable[[Dict[str, Any], ReferenceClock], PassResult]
    metrics: Tuple[Metric, ...]
    uses_seed: bool = True
    #: How strongly a pass's wall time follows the host speed the
    #: clock samples (:class:`~bench.clock.ReferenceClock`), chosen
    #: from repeated runs of one commit (README.md).
    speed_exponent: float = 1.0


# -- helpers ----------------------------------------------------------------


def derived_seed(seed: int, stream: str) -> int:
    """A 32-bit seed for one named input stream of the benchmark seed."""
    sequence = np.random.SeedSequence(
        [seed, zlib.crc32(stream.encode("utf-8"))])
    return int(sequence.generate_state(1)[0])


def _feed(digest, item) -> None:
    if isinstance(item, np.ndarray):
        array = np.ascontiguousarray(item)
        digest.update(f"{array.dtype.str}{array.shape}".encode("ascii"))
        digest.update(array.tobytes())
    elif dataclasses.is_dataclass(item) and not isinstance(item, type):
        digest.update(type(item).__name__.encode("utf-8"))
        for entry in dataclasses.fields(item):
            _feed(digest, getattr(item, entry.name))
    elif isinstance(item, (list, tuple)):
        for element in item:
            _feed(digest, element)
    else:
        # repr() of a float round-trips exactly, so this is bitwise.
        digest.update(repr(item).encode("utf-8"))
    digest.update(b"|")


def output_digest(*items) -> str:
    """SHA-256 over arrays, dataclasses, sequences and scalars."""
    digest = hashlib.sha256()
    for item in items:
        _feed(digest, item)
    return digest.hexdigest()


def _quantiles(values, fractions=(0.5, 0.99, 1.0)) -> List[float]:
    return [float(v) for v in np.quantile(np.asarray(values), fractions)]


def _rr3() -> RoundRobinRecoveryPolicy:
    return RoundRobinRecoveryPolicy(recovery_slots=3, em_alternate_every=2)


def _fleet_summary(result) -> Dict[str, Any]:
    return {
        "guardband": _quantiles(result.guardbands),
        "final_delta_vth_v": _quantiles(
            result.final_delta_vth_v.max(axis=1)),
        "em_drift_ohm": _quantiles(result.final_em_drift_ohm.max(axis=1)),
        "em_failure_fraction": result.em_failure_fraction,
        "migration_events": float(result.migration_events.sum()),
    }


CORE_EPOCHS_PER_S = Metric(
    "core_epochs_per_s", "higher",
    lambda work, times: work["core_epochs"] / times["pass_s"],
    judged=False)


# -- fleet_mixed ------------------------------------------------------------

#: (peak, trough) utilizations of the four diurnal templates.
_DIURNAL_TEMPLATES = ((0.9, 0.2), (0.8, 0.3), (0.7, 0.1), (0.95, 0.4))


def _build_fleet_mixed(seed: int, size: Size) -> Dict[str, Any]:
    rng = np.random.default_rng(derived_seed(seed, "phases"))
    n = size.mixed_chips_per_group
    groups = []
    for label, policy in (("rr3", _rr3()), ("none", NoRecoveryPolicy())):
        for index, (peak, trough) in enumerate(_DIURNAL_TEMPLATES):
            # Unsorted phases: almost every chip is its own cohort.
            phases = tuple(int(p) for p in rng.integers(0, 24, n))
            groups.append(FleetGroup(
                n_chips=n, workload=DiurnalWorkload(9, peak, trough, 24),
                policy=policy, phases=phases,
                name=f"{label}/diurnal{index}"))
    variation = FleetVariationSpec(0.06, 0.08, 0.05).draw(
        len(groups) * n, derived_seed(seed, "variation"))
    return {"groups": tuple(groups), "variation": variation,
            "n_epochs": size.mixed_epochs}


def _run_fleet_mixed(inputs: Dict[str, Any], clock) -> PassResult:
    result = run_fleet_lifetime_study(
        (3, 3), groups=inputs["groups"], n_epochs=inputs["n_epochs"],
        variation=inputs["variation"], max_workers=1)
    return PassResult(
        summary=_fleet_summary(result), digest=output_digest(result),
        work={"core_epochs": result.n_chips * 9 * result.n_epochs})


# -- fleet_durable ----------------------------------------------------------

_DURABLE_EPOCHS = 16
_DURABLE_CHECKPOINT_EVERY = 8
_SESSION_EPOCHS = 8
#: Resumes from one saved session per pass; ``resume_s`` is their
#: median, since one resume (about 50 ms) is too short to time alone.
_RESUMES = 5
#: Speed exponent of a resume (:class:`~bench.clock.ReferenceClock`).
#: Loading a snapshot follows the host speed less than the rest of the
#: pass: timed at exponent 1, ``resume_s`` still rose with the host
#: speed (README.md).
_RESUME_SPEED_EXPONENT = 0.7


def _build_fleet_durable(seed: int, size: Size) -> Dict[str, Any]:
    return {"workload": ConstantWorkload(9, 0.6), "policy": _rr3(),
            "n_chips": size.durable_chips,
            "session_chips": size.durable_session_chips,
            "budget_bytes": size.durable_budget_bytes}


def _check_rows_equal(fleet, single) -> None:
    """Every chip of ``fleet`` must reproduce one-chip ``single``."""
    for entry in dataclasses.fields(fleet):
        ours = getattr(fleet, entry.name)
        if entry.name == "variation" or not isinstance(ours, np.ndarray):
            continue
        theirs = np.broadcast_to(getattr(single, entry.name), ours.shape)
        if not np.array_equal(ours, theirs):
            raise CheckError(
                f"checkpointed study field {entry.name!r} differs from "
                "an unsaved one-chip run of the same study")


def _run_fleet_durable(inputs: Dict[str, Any], clock) -> PassResult:
    workload, policy = inputs["workload"], inputs["policy"]
    common = {"n_epochs": _DURABLE_EPOCHS,
              "record_every": _DURABLE_EPOCHS, "max_workers": 1}
    # Checkpoints stay inside the checkout and are removed below.
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        study = run_fleet_lifetime_study(
            (3, 3), inputs["n_chips"], workload, policy,
            state_budget_bytes=inputs["budget_bytes"],
            checkpoint_every=_DURABLE_CHECKPOINT_EVERY,
            checkpoint_dir=os.path.join(tmp, "study"), **common)
        # The fleet has one cohort and no variation, so an unsaved
        # one-chip run of the same study is every chip's trajectory.
        single = run_fleet_lifetime_study((3, 3), 1, workload, policy,
                                          **common)
        _check_rows_equal(study, single)
        session = FleetSession((3, 3), inputs["session_chips"],
                               workload, policy, record_every=4)
        session.advance(_SESSION_EPOCHS)
        path = os.path.join(tmp, "session.npz")
        session.save(path)
        session.advance(1)
        expected = output_digest(session.result())
        resume_s = []
        for _ in range(_RESUMES):
            with clock.part(_RESUME_SPEED_EXPONENT) as resume:
                resumed = FleetSession.load(path)
                resumed.advance(1)
            resume_s.append(resume.seconds)
            resumed_result = resumed.result()
            if output_digest(resumed_result) != expected:
                raise CheckError("the saved-and-loaded session differs "
                                 "from the unsaved one")
        digest = output_digest(study, resumed_result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = _fleet_summary(study)
    summary["session_guardband"] = _quantiles(
        resumed_result.guardbands)
    summary["session_final_delta_vth_v"] = _quantiles(
        resumed_result.final_delta_vth_v.max(axis=1))
    core_epochs = 9 * (inputs["n_chips"] * _DURABLE_EPOCHS
                       + _DURABLE_EPOCHS
                       + inputs["session_chips"]
                       * (_SESSION_EPOCHS + 1 + _RESUMES))
    return PassResult(summary=summary, digest=digest,
                      work={"core_epochs": core_epochs},
                      parts_s={"resume_s": statistics.median(resume_s)})


# -- design_grid ------------------------------------------------------------


def grid_workers() -> int:
    """Pool size of ``design_grid``: at most two, never above the CPUs
    this process may run on."""
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:
        available = os.cpu_count() or 1
    return min(2, available)


def _build_design_grid(seed: int, size: Size) -> Dict[str, Any]:
    chips = tuple(ChipConfig(rows, rows, name=f"{rows}x{rows}-{index}")
                  for rows in (2, 3, 4)
                  for index in range(size.grid_chips_per_shape))
    workloads = {
        "diurnal": DiurnalWorkload(4, period_epochs=24),
        "random": RandomWorkload(4, seed=derived_seed(seed, "random")),
    }
    return {"policies": {"rr3": _rr3(), "none": NoRecoveryPolicy()},
            "workloads": workloads, "chips": chips,
            "n_epochs": size.grid_epochs}


def _run_design_grid(inputs: Dict[str, Any], clock) -> PassResult:
    reports: List[Any] = []
    sweep = run_lifetime_sweep(
        inputs["policies"], inputs["workloads"], inputs["chips"],
        n_epochs=inputs["n_epochs"], seed=None,
        max_workers=grid_workers(), on_report=reports.append)
    cores = sum(chip.rows * chip.cols for chip in inputs["chips"])
    core_epochs = (inputs["n_epochs"] * cores * len(inputs["policies"])
                   * len(inputs["workloads"]))
    summary = {
        "guardband": [cell.guardband for cell in sweep.cells],
        "final_permanent_vth_v": _quantiles(
            [cell.final_permanent_vth_v for cell in sweep.cells]),
        "lost_demand_fraction": _quantiles(
            [cell.lost_demand_fraction for cell in sweep.cells]),
    }
    return PassResult(summary=summary, digest=output_digest(sweep.cells),
                      work={"core_epochs": core_epochs}, reports=reports)


# -- batched_grid -----------------------------------------------------------

#: The TTF sampler's stress: the paper's EM test condition at 5% of
#: its current, so every wire nucleates inside the 6e6 s horizon.
_TTF_CONDITION = EmStressCondition(
    current_density_a_m2=0.05 * PAPER_EM_STRESS.current_density_a_m2,
    temperature_k=PAPER_EM_STRESS.temperature_k, name="bench TTF")


def _build_batched_grid(seed: int, size: Size) -> Dict[str, Any]:
    return {"load_points": size.load_points, "rings": size.rings,
            "ring_seed": derived_seed(seed, "rings"),
            "wires": size.wires, "ttf_seed": derived_seed(seed, "ttf")}


def _run_batched_grid(inputs: Dict[str, Any], clock) -> PassResult:
    with clock.part() as circuit:
        loads = sweep_load_size_pooled(range(1, inputs["load_points"] + 1))
        modes = mode_switch_matrix()
        rings = ring_oscillator_fleet(inputs["rings"], 0.02, 0.005,
                                      seed=inputs["ring_seed"])
    with clock.part() as em:
        ttfs = sample_nucleation_ttfs_pde(
            inputs["wires"], 6e6, 1e5, condition=_TTF_CONDITION,
            j_sigma=0.05, seed=inputs["ttf_seed"],
            config=KorhonenConfig(n_nodes=301, max_dt_s=1e4))
    nucleated = ttfs[np.isfinite(ttfs)]
    summary = {
        "load.swing_v": [p.load_swing_v for p in loads],
        "load.switching_time_normalized": [
            p.switching_time_normalized for p in loads],
        "mode.switching_time_s": [c.switching_time_s for c in modes],
        "mode.settled_v": [v for c in modes for v in
                           (c.settled_load_vdd_v, c.settled_load_vss_v)],
        "ring.frequency_hz": [m.frequency_hz for m in rings],
        "ttf.nucleated_fraction": nucleated.size / ttfs.size,
        "ttf_s": (_quantiles(nucleated, (0.0, 0.1, 0.5, 0.9, 1.0))
                  if nucleated.size else []),
    }
    return PassResult(
        summary=summary, digest=output_digest(loads, modes, rings, ttfs),
        work={"circuit_rows": len(loads) + len(modes) + len(rings),
              "wires": ttfs.size},
        parts_s={"circuit_s": circuit.seconds, "em_s": em.seconds})


# -- paper_figures ----------------------------------------------------------

#: CLI commands regenerated in-process (``system`` and ``fleet`` are
#: left out: they belong to the fleet workloads' layers).
CLI_COMMANDS = ("table1", "fig4", "fig5", "fig7", "fig9", "fig10",
                "margins", "blech", "plan")


def _build_paper_figures(seed: int, size: Size) -> Dict[str, Any]:
    rng = np.random.default_rng(derived_seed(seed, "ring-shifts"))
    return {"ring_shifts_v": tuple(float(s) for s in
                                   rng.uniform(0.0, 0.04,
                                               size.figure_rings)),
            "load_points": size.figure_load_points}


def _run_paper_figures(inputs: Dict[str, Any], clock) -> PassResult:
    summary: Dict[str, Any] = {}
    for command in CLI_COMMANDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            repro.cli.main([command])
        summary[f"stdout.{command}"] = hashlib.sha256(
            buffer.getvalue().encode("utf-8")).hexdigest()
    summary["switching_time_s"] = [
        AssistCircuit().switching_time_s(start, end)
        for start, end in permutations(AssistMode, 2)]
    sizing = sweep_load_size(range(1, inputs["load_points"] + 1))
    summary["sizing.delay_normalized"] = [
        p.delay_normalized for p in sizing]
    summary["sizing.switching_time_normalized"] = [
        p.switching_time_normalized for p in sizing]
    summary["ring.frequency_hz"] = [
        RingOscillatorNetlist().aged(shift).measured_frequency_hz()
        for shift in inputs["ring_shifts_v"]]
    return PassResult(summary=summary,
                      digest=output_digest(sorted(summary.items())),
                      work={})


# -- registry ---------------------------------------------------------------


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fleet_mixed", _build_fleet_mixed, _run_fleet_mixed,
             (CORE_EPOCHS_PER_S,)),
    Workload(
        "fleet_durable", _build_fleet_durable, _run_fleet_durable,
        (CORE_EPOCHS_PER_S,
         Metric("resume_s", "lower",
                lambda work, times: times["resume_s"])),
        uses_seed=False, speed_exponent=0.9),
    Workload("design_grid", _build_design_grid, _run_design_grid,
             (CORE_EPOCHS_PER_S,)),
    Workload(
        "batched_grid", _build_batched_grid, _run_batched_grid,
        (Metric("circuit_rows_per_s", "higher",
                lambda work, times: (work["circuit_rows"]
                                     / times["circuit_s"])),
         Metric("wires_per_s", "higher",
                lambda work, times: work["wires"] / times["em_s"]))),
    Workload(
        "paper_figures", _build_paper_figures, _run_paper_figures,
        (Metric("regen_s", "lower", lambda work, times: times["pass_s"],
                judged=False),),
        speed_exponent=0.85),
)}
