"""Tests for repro.analysis.sensitivity."""

import math

import pytest

from repro.analysis.sensitivity import (
    SensitivityResult,
    one_at_a_time,
    tornado_rows,
)
from repro.errors import SimulationError


def quadratic(params):
    return params["a"] ** 2 + 10.0 * params["b"]


BASE = {"a": 2.0, "b": 1.0, "c": 5.0}
SPANS = {"a": (1.0, 3.0), "b": (0.5, 1.5)}


class TestOneAtATime:
    def test_one_result_per_spanned_parameter(self):
        results = one_at_a_time(quadratic, BASE, SPANS)
        assert {r.parameter for r in results} == {"a", "b"}

    def test_unspanned_parameters_stay_fixed(self):
        seen = []

        def spy(params):
            seen.append(params["c"])
            return params["a"]

        one_at_a_time(spy, BASE, {"a": (0.0, 1.0)})
        assert all(value == 5.0 for value in seen)

    def test_metric_values_are_exact(self):
        results = {r.parameter: r
                   for r in one_at_a_time(quadratic, BASE, SPANS)}
        a = results["a"]
        assert a.low_metric == pytest.approx(1.0 + 10.0)
        assert a.high_metric == pytest.approx(9.0 + 10.0)
        b = results["b"]
        assert b.low_metric == pytest.approx(4.0 + 5.0)
        assert b.high_metric == pytest.approx(4.0 + 15.0)

    def test_sorted_by_swing(self):
        results = one_at_a_time(quadratic, BASE, SPANS)
        assert results[0].swing >= results[1].swing
        assert results[0].parameter == "b"  # swing 10 vs 8

    def test_baseline_metric_recorded(self):
        results = one_at_a_time(quadratic, BASE, SPANS)
        assert all(r.baseline_metric == pytest.approx(14.0)
                   for r in results)

    def test_relative_swing(self):
        result = SensitivityResult("x", 1.0, 0.0, 2.0, 10.0, 8.0,
                                   12.0)
        assert result.relative_swing == pytest.approx(0.4)

    def test_zero_baseline_relative_swing(self):
        result = SensitivityResult("x", 1.0, 0.0, 2.0, 0.0, -1.0, 1.0)
        assert result.relative_swing == float("inf")


def coupled(params):
    # Non-polynomial and coupled, so every evaluation rounds
    # differently: equality below is bitwise, not approximate.
    return (math.exp(params["a"]) * params["b"] / (1.0 + params["c"])
            + math.sqrt(params["c"]) * params["a"])


class TestInlineLoopGolden:
    """one_at_a_time is exactly the baseline/low/high loop."""

    SPANS3 = {"a": (1.5, 2.7), "b": (0.3, 1.9), "c": (2.0, 8.0)}

    def test_equals_inline_loop_exactly(self):
        expected_calls = [dict(BASE)]
        baseline_metric = coupled(dict(BASE))
        expected = []
        for name, (low, high) in self.SPANS3.items():
            low_params = dict(BASE)
            low_params[name] = low
            high_params = dict(BASE)
            high_params[name] = high
            expected_calls += [low_params, high_params]
            expected.append(SensitivityResult(
                parameter=name, baseline_value=BASE[name],
                low_value=low, high_value=high,
                baseline_metric=baseline_metric,
                low_metric=coupled(low_params),
                high_metric=coupled(high_params)))
        expected.sort(key=lambda result: result.swing, reverse=True)

        calls = []

        def spy(params):
            calls.append(dict(params))
            return coupled(params)

        assert one_at_a_time(spy, BASE, self.SPANS3) == expected
        # Same calls, in the same order: baseline, then low and high
        # of each span.
        assert calls == expected_calls

    def test_metric_errors_propagate_unwrapped(self):
        def fragile(params):
            if params["b"] > 1.0:
                raise ValueError("metric blew up")
            return params["a"]

        with pytest.raises(ValueError, match="metric blew up"):
            one_at_a_time(fragile, BASE, SPANS)


class TestValidation:
    def test_rejects_empty_spans(self):
        with pytest.raises(SimulationError):
            one_at_a_time(quadratic, BASE, {})

    def test_rejects_unknown_parameter(self):
        with pytest.raises(SimulationError):
            one_at_a_time(quadratic, BASE, {"zz": (0.0, 1.0)})

    def test_rejects_inverted_span(self):
        calls = []

        def spy(params):
            calls.append(params)
            return quadratic(params)

        for spans in ({"a": (3.0, 1.0)},
                      {"a": (1.0, 3.0), "b": (2.0, 1.0)}):
            with pytest.raises(SimulationError):
                one_at_a_time(spy, BASE, spans)
        # Spans are validated before the metric is ever evaluated.
        assert calls == []


class TestTornadoRows:
    def test_row_per_result(self):
        results = one_at_a_time(quadratic, BASE, SPANS)
        rows = tornado_rows(results)
        assert len(rows) == 2
        assert all(len(row) == 4 for row in rows)

    def test_rows_contain_percentages(self):
        results = one_at_a_time(quadratic, BASE, SPANS)
        assert all(row[3].endswith("%")
                   for row in tornado_rows(results))
