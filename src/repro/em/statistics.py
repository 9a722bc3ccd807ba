"""EM lifetime statistics: wire populations and weakest-link failure.

EM sign-off is statistical: a chip contains thousands of EM-exposed
segments whose geometry and temperature vary, and the chip fails when
its *weakest* wire fails.  The classical treatment models individual
wire TTFs as lognormal around Black's median and combines them with
weakest-link (series-system) statistics.

This module extends the paper's single-wire experiments to that
population view -- the form in which a deep-healing deployment decision
would actually be made: how much does a recovery schedule move the
chip-level t_0.1% point, not just one wire's median.

Every Monte Carlo sampler here runs in-process on vectorized numpy
draws; the chunked sampler
(:func:`sample_population_ttfs_parallel`) seeds each chunk by its
index, so its stream does not depend on how the chunks are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from repro.em.blacks import BlacksModel
from repro.em.korhonen import KorhonenBatch, KorhonenConfig
from repro.em.line import EmStressCondition, PAPER_EM_STRESS
from repro.em.wire import Wire, PAPER_TEST_WIRE
from repro.errors import SimulationError
from repro.solvers.sweep import chunk_tasks, task_seed_sequence


@dataclass(frozen=True)
class WirePopulationSpec:
    """Statistical description of a population of EM-exposed wires.

    Attributes:
        n_wires: number of independent EM-critical segments on a chip.
        median_ttf_s: lognormal median TTF of one wire at the
            operating point.
        sigma: lognormal shape parameter (log-space standard
            deviation); damascene Cu populations are typically 0.2-0.6.
    """

    n_wires: int
    median_ttf_s: float
    sigma: float

    def __post_init__(self) -> None:
        if self.n_wires < 1:
            raise SimulationError("n_wires must be at least 1")
        if self.median_ttf_s <= 0.0:
            raise SimulationError("median_ttf_s must be positive")
        if self.sigma <= 0.0:
            raise SimulationError("sigma must be positive")

    # -- single-wire distribution -----------------------------------------

    def wire_failure_probability(self, time_s: float) -> float:
        """CDF of one wire's lognormal TTF at ``time_s``."""
        if time_s < 0.0:
            raise SimulationError("time must be non-negative")
        if time_s == 0.0:
            return 0.0
        z = math.log(time_s / self.median_ttf_s) / self.sigma
        return float(ndtr(z))

    def wire_quantile(self, fraction: float) -> float:
        """Time by which ``fraction`` of single wires have failed."""
        if not 0.0 < fraction < 1.0:
            raise SimulationError("fraction must be in (0, 1)")
        return self.median_ttf_s * math.exp(
            self.sigma * float(ndtri(fraction)))

    # -- chip-level (weakest link) -----------------------------------------

    def chip_failure_probability(self, time_s: float) -> float:
        """Probability that at least one of the wires has failed.

        Series system: ``1 - (1 - F_wire(t)) ** n``.
        """
        survival = 1.0 - self.wire_failure_probability(time_s)
        if survival <= 0.0:
            return 1.0
        # log-space for numerical robustness at large n.
        return 1.0 - math.exp(self.n_wires * math.log(survival))

    def chip_quantile(self, fraction: float,
                      tolerance: float = 1e-6) -> float:
        """Time by which ``fraction`` of chips have failed.

        Found with Brent's method on the monotone chip CDF in
        log-time (superlinear convergence; the former fixed-step
        bisection burned up to 200 CDF evaluations per call).
        ``tolerance`` is the relative accuracy of the returned time.
        """
        from scipy.optimize import brentq
        if not 0.0 < fraction < 1.0:
            raise SimulationError("fraction must be in (0, 1)")
        # The chip CDF at the single-wire q-quantile is roughly
        # n * q, so bracket well below fraction / n_wires.
        low_q = min(1e-12, max(fraction / self.n_wires * 1e-3, 1e-300))
        low = self.wire_quantile(low_q)
        high = self.wire_quantile(1.0 - 1e-12)

        def excess(log_time: float) -> float:
            return self.chip_failure_probability(
                math.exp(log_time)) - fraction

        log_low, log_high = math.log(low), math.log(high)
        if excess(log_low) >= 0.0:
            return low
        if excess(log_high) <= 0.0:
            return high
        return math.exp(brentq(excess, log_low, log_high,
                               xtol=math.log1p(tolerance)))

    def chip_median_ttf_s(self) -> float:
        """Median chip lifetime (t50 of the weakest-link system)."""
        return self.chip_quantile(0.5)

    def scaled(self, ttf_factor: float) -> "WirePopulationSpec":
        """The same population with every TTF scaled by a factor.

        A deep-healing schedule that multiplies every wire's TTF by
        ``ttf_factor`` (e.g. the Fig. 7 nucleation-delay factor)
        shifts the whole lognormal without changing its shape.
        """
        if ttf_factor <= 0.0:
            raise SimulationError("ttf_factor must be positive")
        return WirePopulationSpec(self.n_wires,
                                  self.median_ttf_s * ttf_factor,
                                  self.sigma)


def population_from_blacks(blacks: BlacksModel, n_wires: int,
                           current_density_a_m2: float,
                           temperature_k: float,
                           sigma: float = 0.4) -> WirePopulationSpec:
    """Build a population around a Black's-equation median."""
    return WirePopulationSpec(
        n_wires=n_wires,
        median_ttf_s=blacks.ttf_s(current_density_a_m2, temperature_k),
        sigma=sigma)


def sample_population_ttf_matrix(spec: WirePopulationSpec,
                                 n_chips: int = 100,
                                 seed: int = 0) -> np.ndarray:
    """Monte Carlo per-wire TTFs for a whole fleet, in one draw.

    Returns the full ``(n_chips, n_wires)`` lognormal sample matrix --
    the batched form the fleet engine consumes when it needs wire-level
    detail (e.g. attributing a chip failure to a wire group), drawn as
    a single vectorized pass.  Row ``k`` is chip ``k``'s wire
    population; ``matrix.min(axis=1)`` recovers the weakest-link chip
    TTFs of :func:`sample_population_ttfs` bit-for-bit (same RNG
    stream, and ``exp`` is monotone so the min commutes with it).
    """
    if n_chips < 1:
        raise SimulationError("n_chips must be at least 1")
    rng = np.random.default_rng(seed)
    samples = rng.normal(math.log(spec.median_ttf_s), spec.sigma,
                         size=(n_chips, spec.n_wires))
    return np.exp(samples)


def sample_population_ttfs(spec: WirePopulationSpec,
                           n_chips: int = 100,
                           seed: int = 0) -> np.ndarray:
    """Monte Carlo chip TTFs (min over each chip's wire samples).

    Cross-checks the closed-form weakest-link quantiles; also useful
    when per-wire medians vary (pass a spec per group and combine, or
    use :func:`sample_mixed_population_ttfs` directly).
    """
    return sample_population_ttf_matrix(spec, n_chips, seed).min(axis=1)


def sample_mixed_population_ttfs(specs: Sequence[WirePopulationSpec],
                                 n_chips: int = 100,
                                 seed: int = 0) -> np.ndarray:
    """Chip TTFs for chips carrying several distinct wire groups.

    Real chips mix wire populations -- long power rails, short signal
    stubs, vias -- each with its own median and sigma.  This draws all
    groups of all chips as *one* ``(n_chips, total_wires)`` matrix
    (per-wire means/sigmas broadcast into a single vectorized normal
    draw) and takes the weakest link across every group, which is the
    series-system combination of the specs' individual chip CDFs.
    """
    if not specs:
        raise SimulationError("at least one wire group is required")
    if n_chips < 1:
        raise SimulationError("n_chips must be at least 1")
    log_medians = np.concatenate(
        [np.full(spec.n_wires, math.log(spec.median_ttf_s))
         for spec in specs])
    sigmas = np.concatenate(
        [np.full(spec.n_wires, spec.sigma) for spec in specs])
    rng = np.random.default_rng(seed)
    samples = rng.normal(log_medians, sigmas,
                         size=(n_chips, len(log_medians)))
    return np.exp(samples.min(axis=1))


def sample_population_ttfs_parallel(spec: WirePopulationSpec,
                                    n_chips: int = 10000,
                                    seed: int = 0,
                                    *,
                                    chunk_chips: int = 256
                                    ) -> np.ndarray:
    """Monte Carlo chip TTFs as a chunk-seeded stream.

    The population is split into fixed ``chunk_chips``-sized chunks,
    and chunk ``k`` draws its ``(chips, n_wires)`` lognormal block
    from ``task_seed_sequence(seed, k)``
    (:func:`repro.solvers.sweep.task_seed_sequence`).  Each chunk is
    therefore an independent, reproducible stream: ``chunk_chips`` is
    part of the stream definition, and any one chunk can be redrawn
    in isolation.  Resident memory is one chunk's sample block, not
    the whole ``(n_chips, n_wires)`` matrix.

    The chunks are evaluated in-process.  A process pool never paid
    for itself here: vectorized sampling clears ~100M draws/s, so at
    4000 chips x 400 wires the in-process loop takes 0.028 s against
    0.057 s through a 2-worker pool (2-CPU host, median of 5).
    """
    if n_chips < 1:
        raise SimulationError("n_chips must be at least 1")
    if chunk_chips < 1:
        raise SimulationError("chunk_chips must be at least 1")
    log_median = math.log(spec.median_ttf_s)
    ttfs = np.empty(n_chips)
    for chunk in chunk_tasks(n_chips, chunk_chips):
        rng = np.random.default_rng(task_seed_sequence(seed, chunk.index))
        samples = rng.normal(log_median, spec.sigma,
                             size=(chunk.n_items, spec.n_wires))
        ttfs[chunk.start:chunk.stop] = np.exp(samples.min(axis=1))
    return ttfs


def healing_gain_at_quantile(baseline: WirePopulationSpec,
                             healed: WirePopulationSpec,
                             fraction: float = 0.001) -> float:
    """Lifetime gain at a sign-off quantile (default t_0.1%)."""
    return healed.chip_quantile(fraction) \
        / baseline.chip_quantile(fraction)


def sample_nucleation_ttfs_pde(
        n_wires: int,
        max_time_s: float,
        probe_step_s: float,
        *,
        wire: Wire = PAPER_TEST_WIRE,
        condition: EmStressCondition = PAPER_EM_STRESS,
        j_sigma: float = 0.1,
        seed: int = 0,
        config: Optional[KorhonenConfig] = None) -> np.ndarray:
    """Per-wire void-nucleation times from the stress PDE itself.

    Where :class:`WirePopulationSpec` *assumes* a lognormal TTF
    distribution around Black's median, this sampler derives the
    spread mechanistically: each wire draws a lognormal current
    density ``j = j_nom * exp(j_sigma * z)`` (process variation in
    effective cross-section), its Korhonen stress field is integrated
    forward, and the nucleation time is the first probe instant at
    which the cathode stress reaches the material's critical stress.

    All wires share geometry and temperature, so they share one
    backward-Euler factorization, and the whole population advances
    through a single multi-RHS back-substitution per step
    (:class:`~repro.em.korhonen.KorhonenBatch`).  Each sample is
    bit-identical to a scalar :class:`~repro.em.korhonen.KorhonenSolver`
    run of that wire.

    Args:
        n_wires: population size.
        max_time_s: horizon; wires that have not nucleated by then
            report ``inf``.
        probe_step_s: interval between nucleation checks (the
            returned times are quantized to this grid, exactly as
            :meth:`repro.em.line.EmLine.time_to_nucleation` quantizes
            to its probe step).
        wire: shared geometry/material.
        condition: nominal stress condition (current, temperature).
        j_sigma: log-space sigma of the per-wire current densities.
        seed: RNG seed for the population draw.
        config: PDE discretization (default :class:`KorhonenConfig`).

    Returns:
        ``(n_wires,)`` array of nucleation times in seconds.
    """
    if n_wires < 1:
        raise SimulationError("n_wires must be at least 1")
    if not math.isfinite(max_time_s) or max_time_s <= 0.0:
        raise SimulationError("max_time_s must be finite and positive")
    if not math.isfinite(probe_step_s) or probe_step_s <= 0.0 \
            or probe_step_s > max_time_s:
        raise SimulationError(
            "probe_step_s must be finite, positive and at most "
            "max_time_s")
    if not math.isfinite(j_sigma) or j_sigma < 0.0:
        raise SimulationError("j_sigma must be finite and non-negative")

    rng = np.random.default_rng(seed)
    densities = condition.current_density_a_m2 \
        * np.exp(j_sigma * rng.standard_normal(n_wires))
    material = wire.material
    temp = condition.temperature_k
    kappa = material.stress_diffusivity_at(temp)
    gradients = material.wind_stress_gradient(densities, temp)
    critical = material.critical_stress_pa
    n_probes = int(math.ceil(max_time_s / probe_step_s - 1e-12))
    ttfs = np.full(n_wires, np.inf)

    batch = KorhonenBatch(wire.length_m, n_wires, config)
    alive = np.arange(n_wires)
    alive_gradients = gradients
    for probe in range(1, n_probes + 1):
        batch.advance(probe_step_s, kappa, alive_gradients)
        crossed = batch.stress_at_start >= critical
        if np.any(crossed):
            ttfs[alive[crossed]] = probe * probe_step_s
            keep = ~crossed
            if not np.any(keep):
                break
            # Compacting nucleated wires out spares them the steps a
            # per-wire loop would skip after its early exit.
            batch.retain(np.nonzero(keep)[0])
            alive = alive[keep]
            alive_gradients = alive_gradients[keep]
    return ttfs
