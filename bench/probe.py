"""Set-up probe, run in a fresh process: ``python -m bench.probe NAME SEED``.

Times the set-up a user of the simulator pays before a workload's
first pass -- importing the simulator (numpy, then the workload module,
which imports every ``repro`` module a pass needs), the default BTI
calibration, and building the workload's inputs from the seed.  Once
numpy is imported, the rest of the set-up runs inside one
:class:`~bench.clock.ReferenceClock` interval, and every phase, the
numpy import included, is scaled by the host speed that interval saw.
Prints the phases in reference-speed seconds as one JSON line.
"""

from __future__ import annotations

import json
import sys
import time
from typing import List, Optional

#: What a probe times.
SETUP_PHASES = ("import_s", "calibration_s", "inputs_s")


def main(argv: Optional[List[str]] = None) -> int:
    name, seed = (argv if argv is not None else sys.argv[1:])
    started = time.perf_counter()
    import numpy  # noqa: F401  (the first part of the import phase)
    numpy_s = time.perf_counter() - started
    from bench.clock import ReferenceClock
    clock = ReferenceClock()
    with clock.interval() as measured:
        resumed = clock.now()
        from bench import workloads
        imported = clock.now()
        from repro.bti.calibration import default_calibration
        default_calibration()
        calibrated = clock.now()
        workloads.WORKLOADS[name].build(int(seed), workloads.FULL)
        built = clock.now()
    phases = (numpy_s + imported - resumed, calibrated - imported,
              built - calibrated)
    print(json.dumps({phase: seconds * measured.scale
                      for phase, seconds in zip(SETUP_PHASES, phases)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
