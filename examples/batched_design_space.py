"""Batched design-space sweep: every grid point in one tensor pass.

Drives the paper's two design-space studies through the batched-grid
engines instead of per-point loops:

* the Fig. 10 load-size grid runs as one
  :class:`~repro.circuit.batched.CircuitBatch` -- one stacked DC
  solve plus one stacked mode-switch transient for the whole grid --
  and prints the swing / delay / switching Pareto frontier;
* a wire population's nucleation TTFs are sampled with
  :func:`~repro.em.statistics.sample_nucleation_ttfs_pde`, advancing
  the ``(n_wires, n_nodes)`` Korhonen stress slab through one
  vectorized tridiagonal solve per implicit step.

Both engines produce the same numbers as their per-point
counterparts (bitwise for the PDE, within LAPACK roundoff for the
condensed circuit), so the only thing that changes is the wall
clock.  The grouped-solve telemetry printed at the end shows how the
work was batched.

Usage::

    python examples/batched_design_space.py [max_loads] [n_wires]
"""

import dataclasses
import sys
import time

import numpy as np

from repro.assist import sweep_load_size
from repro.em import PAPER_EM_STRESS
from repro.em.korhonen import KorhonenConfig
from repro.em.statistics import sample_nucleation_ttfs_pde
from repro.solvers import cache_counters


def run(max_loads: int = 16, n_wires: int = 512) -> None:
    sizes = tuple(range(1, max_loads + 1))
    start = time.perf_counter()
    points = sweep_load_size(sizes)
    grid_s = time.perf_counter() - start

    print(f"batched Fig. 10 grid: {len(points)} points in one "
          f"stacked sweep ({grid_s:.2f} s)")
    print()
    header = (f"{'loads':>5}  {'swing (V)':>9}  {'delay (norm)':>12}  "
              f"{'switch (norm)':>13}  {'pareto':>6}")
    print(header)
    print("-" * len(header))
    # A grid point is Pareto-optimal when no other point is faster to
    # switch *and* no slower on the load path.
    for point in points:
        dominated = any(
            other.delay_normalized <= point.delay_normalized
            and other.switching_time_normalized
            <= point.switching_time_normalized
            and (other.delay_normalized < point.delay_normalized
                 or other.switching_time_normalized
                 < point.switching_time_normalized)
            for other in points)
        print(f"{point.n_loads:>5}  {point.load_swing_v:>9.4f}  "
              f"{point.delay_normalized:>12.3f}  "
              f"{point.switching_time_normalized:>13.3f}  "
              f"{'no' if dominated else 'yes':>6}")

    print()
    condition = dataclasses.replace(
        PAPER_EM_STRESS,
        current_density_a_m2=PAPER_EM_STRESS.current_density_a_m2
        * 0.05)
    config = KorhonenConfig(n_nodes=201, max_dt_s=1e4)
    start = time.perf_counter()
    ttfs = sample_nucleation_ttfs_pde(
        n_wires, 6e6, 2e5, condition=condition, j_sigma=0.1, seed=1,
        config=config)
    pde_s = time.perf_counter() - start
    finite = ttfs[np.isfinite(ttfs)]
    print(f"batched Korhonen TTF sampling: {n_wires} wires x "
          f"{config.n_nodes} nodes ({pde_s:.2f} s)")
    print(f"  nucleated: {finite.size}/{n_wires}")
    if finite.size:
        hours = np.sort(finite) / 3600.0
        print(f"  t50 = {np.median(hours):.1f} h, "
              f"earliest = {hours[0]:.1f} h, "
              f"latest = {hours[-1]:.1f} h")

    print()
    print("grouped-solve telemetry (rows/solve = batch width):")
    for name, counters in sorted(cache_counters().items()):
        solves = counters.get("batched_solves", 0)
        if not solves:
            continue
        rows = counters["batched_rows"]
        print(f"  {name}: {solves} solves, {rows} rows "
              f"({rows / solves:.0f} rows/solve)")


def main() -> None:
    max_loads = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    n_wires = int(sys.argv[2]) if len(sys.argv) > 2 else 512
    run(max_loads, n_wires)


if __name__ == "__main__":
    main()
