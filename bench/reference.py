"""Regenerate ``bench/reference.json``: ``python -m bench.reference``.

Runs two passes of every workload at the benchmark size and the
default seed, requires them to agree bit for bit and to hold their own
equalities, and stores the first pass's summary statistics.  Every
benchmark pass is then checked against these within a relative 1e-9.
Regenerate only with a change meant to alter the simulator's results.
"""

from __future__ import annotations

import json

from bench.run import DEFAULT_SEED, REFERENCE_PATH, Run
from bench.workloads import WORKLOADS


def main() -> int:
    summaries = {}
    for name in WORKLOADS:
        run = Run(name, DEFAULT_SEED)
        _, result = run.one_pass()
        run.one_pass()
        if run.failed:
            raise SystemExit(f"{name}: {'; '.join(run.failures)}")
        summaries[name] = result.summary
        print(f"{name}: {len(result.summary)} statistics")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "workloads": summaries}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
