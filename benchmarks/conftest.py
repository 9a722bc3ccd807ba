"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one table or figure of the paper: it runs
the corresponding experiment once (via ``benchmark.pedantic`` so
pytest-benchmark records the runtime without re-running a long
simulation), prints the same rows/series the paper reports alongside
the published values, and asserts the paper's qualitative shape.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.bti.calibration import BtiCalibration, default_calibration


@pytest.fixture(scope="session")
def calibration() -> BtiCalibration:
    """The library-default Table I calibration (session-cached)."""
    return default_calibration()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def alternating_runs(after, before, reps, after_setup=None,
                     before_setup=None):
    """Time ``reps`` runs of each side, alternating after/before.

    Alternation makes machine-speed drift on a shared host inflate
    both sides alike; callers compare medians.  A ``*_setup`` callable
    builds a fresh argument for each run outside the timed region.
    Returns ``(after_runs_s, before_runs_s, after_value,
    before_value)`` with the last run's return values.
    """
    runs = {"after": [], "before": []}
    values = {}
    for _ in range(reps):
        for side, fn, setup in (("after", after, after_setup),
                                ("before", before, before_setup)):
            args = () if setup is None else (setup(),)
            gc.collect()
            start = time.perf_counter()
            values[side] = fn(*args)
            runs[side].append(time.perf_counter() - start)
    return runs["after"], runs["before"], values["after"], \
        values["before"]


def merge_bench_json(path: Path, header: dict, timings: dict) -> None:
    """Write ``timings`` into the JSON file at ``path``, keeping the
    entries of tests that did not run this time."""
    merged = {}
    if path.exists():
        merged = json.loads(path.read_text()).get("timings", {})
    merged.update(timings)
    payload = dict(header, timings=merged)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
