"""One-at-a-time sensitivity (tornado) analysis.

Every calibrated parameter in this reproduction carries uncertainty --
the paper reports one test structure per mechanism, and the
substitution models add their own assumptions.  A reproduction-quality
claim should therefore say not just "the delay factor is 3.07x" but
"and it moves by at most so-much when the calibration wiggles".

This module provides the generic harness: perturb each parameter to
the ends of its plausible span (holding the rest at baseline), re-run
a metric, and report the swing.  The benchmarks apply it to the
headline results.

A tornado is ``1 + 2 * n_parameters`` metric calls, evaluated in a
plain in-process loop.  The headline studies' metrics are closed-form
and take micro- to milliseconds each, so a process pool only ever cost
time here: the seven-call delay-factor tornado takes 0.005 s serially
and took 0.032 s through a 2-worker pool (2-CPU host, median of 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Tuple

from repro.errors import SimulationError

#: A metric: maps a full parameter dict to one scalar result.
Metric = Callable[[Mapping[str, float]], float]


@dataclass(frozen=True)
class SensitivityResult:
    """Sensitivity of a metric to one parameter.

    Attributes:
        parameter: the perturbed parameter's name.
        baseline_value / low_value / high_value: parameter settings.
        baseline_metric / low_metric / high_metric: metric outcomes.
    """

    parameter: str
    baseline_value: float
    low_value: float
    high_value: float
    baseline_metric: float
    low_metric: float
    high_metric: float

    @property
    def swing(self) -> float:
        """Absolute metric range across the parameter span."""
        return abs(self.high_metric - self.low_metric)

    @property
    def relative_swing(self) -> float:
        """Swing normalized by the baseline metric."""
        if self.baseline_metric == 0.0:
            return float("inf") if self.swing > 0.0 else 0.0
        return self.swing / abs(self.baseline_metric)


def one_at_a_time(metric: Metric,
                  baseline: Mapping[str, float],
                  spans: Mapping[str, Tuple[float, float]]
                  ) -> List[SensitivityResult]:
    """Tornado analysis: perturb each parameter across its span.

    The metric is evaluated in a plain in-process loop: once at the
    baseline, then at the low and the high end of each span.  A
    stochastic metric closes over its own generator.

    Args:
        metric: scalar function of the full parameter dict.
        baseline: nominal parameter values.
        spans: per-parameter (low, high) values to probe; parameters
            absent from ``spans`` stay fixed.

    Returns:
        One :class:`SensitivityResult` per spanned parameter, sorted
        by descending swing (tornado order).
    """
    if not spans:
        raise SimulationError("spans must not be empty")
    missing = set(spans) - set(baseline)
    if missing:
        raise SimulationError(
            f"spans refer to unknown parameters: {sorted(missing)}")
    for name, (low, high) in spans.items():
        if low > high:
            raise SimulationError(
                f"span of {name!r} has low > high")
    baseline_metric = metric(dict(baseline))
    results = []
    for name, (low, high) in spans.items():
        results.append(SensitivityResult(
            parameter=name,
            baseline_value=float(baseline[name]),
            low_value=low, high_value=high,
            baseline_metric=baseline_metric,
            low_metric=metric({**baseline, name: low}),
            high_metric=metric({**baseline, name: high})))
    results.sort(key=lambda result: result.swing, reverse=True)
    return results


def tornado_rows(results: List[SensitivityResult],
                 precision: int = 3) -> List[Tuple[str, str, str, str]]:
    """Format sensitivity results as table rows.

    Returns ``(parameter, span, metric range, relative swing)`` rows
    ready for :func:`repro.analysis.reporting.format_table`.
    """
    rows = []
    for result in results:
        rows.append((
            result.parameter,
            f"{result.low_value:.{precision}g} .. "
            f"{result.high_value:.{precision}g}",
            f"{result.low_metric:.{precision}g} .. "
            f"{result.high_metric:.{precision}g}",
            f"{result.relative_swing:.1%}",
        ))
    return rows
