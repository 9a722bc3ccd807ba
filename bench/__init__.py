"""Outside-in benchmark of the wearout simulator.

``python -m bench`` runs every workload (each in a fresh process) and
writes a results JSON; ``python -m bench.run`` is one measured run of
one workload; ``python -m bench.compare`` compares two sets of
results.  See ``bench/README.md``.
"""

import os
import sys

#: Root of the checkout the benchmark measures.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The benchmark runs from a plain checkout with nothing installed, so
# every entry point (and every process it starts) imports the
# simulator from the checkout's own ``src``.
_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
