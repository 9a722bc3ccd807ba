"""Run the benchmark: ``python -m bench [--workload NAME]... [--seed N]
[--seconds S] [--out FILE]``.

Each workload runs traced in a fresh process (``python -m bench.run
--trace 1``), which prints every end-to-end and per-layer metric by
name and unit and checks every pass's outputs.  The per-workload
records land beside ``--out`` as ``<stem>.<workload>.json`` with
their spans in ``<stem>.<workload>.trace.json`` (Chrome trace-event
format); ``--out`` itself collects them all with the environment the
run saw.  The exit status is 0 only when every workload ran and every
pass was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import List, Optional

from bench import ROOT
from bench.run import DEFAULT_SECONDS, DEFAULT_SEED, environment
from bench.workloads import WORKLOADS


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Run every benchmark workload, traced, and write "
                    "a results JSON.")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeat to pick workloads (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed-pass budget of each workload run")
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".bench_out", "results.json"))
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    names = args.workload or list(WORKLOADS)
    load_before = os.getloadavg()
    stem, _ = os.path.splitext(args.out)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    records = {}
    for name in names:
        part = f"{stem}.{name}.json"
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-m", "bench.run", "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "1", "--out", part], cwd=ROOT)
        if completed.returncode != 0:
            records[name] = {"workload": name, "correct": False,
                             "error": f"exit status {completed.returncode}"}
            continue
        with open(part, encoding="utf-8") as handle:
            records[name] = json.load(handle)
        records[name]["run_s"] = time.perf_counter() - started
    workers = records.get("design_grid", {}).get("pool_workers")
    results = {"seed": args.seed, "seconds": args.seconds,
               "env": environment(args.seed, load_before, workers),
               "workloads": records}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    print(f"\n{'workload':15s} {'run':>7s} {'pass_s':>8s} {'setup_s':>8s} "
          f"{'rss MiB':>8s} failed")
    for name, record in records.items():
        if "error" in record:
            print(f"{name:15s} {record['error']}")
            continue
        e2e = record["end_to_end"]
        print(f"{name:15s} {record['run_s']:6.1f}s {e2e['pass_s']:8.3f} "
              f"{e2e['setup_s']:8.3f} {e2e['peak_rss_mb']:8.1f} "
              f"{record['failed']}/{record['attempted']}")
    print(f"results: {args.out}")
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
