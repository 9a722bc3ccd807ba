"""Compare two sets of benchmark results: the regression gate.

    python -m bench.compare --base A1.json A2.json ... --change B1.json ...

Each file is a results JSON of ``python -m bench`` or a record of
``python -m bench.run --out``.  Runs pair up in the order given
(alternate which side runs first when producing them).  For every
workload and end-to-end metric -- those of ``BENCHMARK.json`` with
their bounds, plus each workload's own judged metrics with the bound
of ``pass_s`` -- one row shows each side's median and quartiles, the
share of pairs the change wins (ties count for neither side) and a
verdict:

* ``improved``: the change wins at least 9/10 of the pairs and the
  medians differ by more than the base's interquartile range;
* ``regressed``: the change's median is worse than the base's by
  more than the metric's bound;
* ``unresolved``: the run-to-run spread (interquartile range over
  median, either side) is wider than the bound, and not every change
  run beats every base run;
* ``no-regression``: otherwise.

Failures are flagged per workload: a rise of the failed-pass share, or
a change side with more crashed runs than the base (a run that exited
without a record, stored by ``python -m bench`` as an ``error``) or no
run at all.  Run on two sets of runs of one commit, this is the A/A
check: every row should read ``no-regression``.  The exit status is 1
when a row regressed or failures rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from bench.run import BENCHMARK_PATH
from bench.workloads import WORKLOADS

#: Share of pairs the change must win to count as improved.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """The row verdict and the change's pair win share."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    win_share = wins / len(pairs)
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    if win_share >= WIN_SHARE and sign * (b_med - c_med) > b3 - b1:
        return "improved", win_share
    if sign * (c_med - b_med) > bound * abs(b_med):
        return "regressed", win_share
    spread = max((b3 - b1) / abs(b_med) if b_med else 0.0,
                 (c3 - c1) / abs(c_med) if c_med else 0.0)
    every_run_better = (max(sign * c for c in change)
                        < min(sign * b for b in base))
    if spread > bound and not every_run_better:
        return "unresolved", win_share
    return "no-regression", win_share


def load_records(paths: Sequence[str]) -> Dict[str, List[dict]]:
    """Per-workload records of every file, in file order (crashed
    runs, which have no ``end_to_end``, included)."""
    records: Dict[str, List[dict]] = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for record in (data["workloads"].values() if "workloads" in data
                       else [data]):
            records[record["workload"]].append(record)
    return records


def metric_table(workload: str) -> List[Tuple[str, str, float]]:
    """``(name, better, bound)`` of every compared metric.

    A workload's own metrics derive from its pass times, so they take
    the bound of ``pass_s``.
    """
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = [(m["name"], m["better"], m["bound"])
            for m in spec["end_to_end"]]
    pass_bound = next(bound for name, _, bound in rows if name == "pass_s")
    if workload in WORKLOADS:
        rows += [(m.name, m.better, pass_bound)
                 for m in WORKLOADS[workload].metrics if m.judged]
    return rows


def _failed_share(records: Sequence[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def _crashed_share(records: Sequence[dict]) -> float:
    """Share of runs without a record; 1 when there is no run."""
    if not records:
        return 1.0
    return sum("end_to_end" not in r for r in records) / len(records)


def compare(base: Dict[str, List[dict]], change: Dict[str, List[dict]]
            ) -> Tuple[List[tuple], List[str]]:
    """All rows, and the workloads whose failures rose."""
    rows = []
    failures_up = []
    for workload in sorted(base):
        old = [r for r in base[workload] if "end_to_end" in r]
        new = [r for r in change.get(workload, []) if "end_to_end" in r]
        if (_crashed_share(change.get(workload, []))
                > _crashed_share(base[workload])
                or _failed_share(new) > _failed_share(old)):
            failures_up.append(workload)
        for name, better, bound in metric_table(workload):
            a = [r["end_to_end"][name] for r in old
                 if name in r["end_to_end"]]
            b = [r["end_to_end"][name] for r in new
                 if name in r["end_to_end"]]
            if a and b:
                result, wins = verdict(a, b, better, bound)
                rows.append((workload, name, quartiles(a), quartiles(b),
                             wins, result))
    return rows, failures_up


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench.compare",
        description="Compare two sets of benchmark results.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    rows, failures_up = compare(load_records(args.base),
                                load_records(args.change))
    print(f"{'workload':15s} {'metric':20s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>5s}  verdict")
    for workload, name, a, b, wins, result in rows:
        print(f"{workload:15s} {name:20s} {_cell(a):>34s} {_cell(b):>34s} "
              f"{wins:5.0%}  {result}")
    for workload in failures_up:
        print(f"{workload}: failures rose (failed passes or crashed runs)")
    regressed = any(row[-1] == "regressed" for row in rows)
    return 1 if regressed or failures_up else 0


if __name__ == "__main__":
    raise SystemExit(main())
