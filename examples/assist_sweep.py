"""Fig. 10 load-sizing study and Fig. 9 mode-switch matrix on the
batched circuit engine.

Runs the paper's load-size sweep through
:func:`repro.assist.sizing.sweep_load_size`: every point is a fresh
assist netlist, and the whole grid solves its Normal-mode DC operating
points and its mode-switch transients as rows of one batch.  Also
prints the Fig. 9 mode-switch matrix (all six ordered mode
transitions) from :func:`repro.assist.sweeps.mode_switch_matrix`.

Reproduces the paper's Fig. 10 trade-off: load delay rises with load
size (deeper droop through the fixed headers/footers) while
mode-switching time falls.

Usage::

    python examples/assist_sweep.py [max_loads]
"""

import sys

from repro.assist import (
    AssistCircuitConfig,
    mode_switch_matrix,
    sweep_load_size,
)


def run(max_loads: int) -> None:
    config = AssistCircuitConfig()
    sizes = tuple(range(1, max_loads + 1))
    points = sweep_load_size(sizes, config)

    print(f"Fig. 10 load-size sweep ({len(points)} batched points)")
    print()
    header = (f"{'loads':>5}  {'swing (V)':>9}  {'delay (norm)':>12}  "
              f"{'switch (ns)':>11}  {'switch (norm)':>13}")
    print(header)
    print("-" * len(header))
    for point in points:
        print(f"{point.n_loads:>5}  {point.load_swing_v:>9.4f}  "
              f"{point.delay_normalized:>12.3f}  "
              f"{point.switching_time_s * 1e9:>11.2f}  "
              f"{point.switching_time_normalized:>13.3f}")
    print()
    rising = points[-1].delay_normalized >= points[0].delay_normalized
    falling = points[-1].switching_time_normalized \
        <= points[0].switching_time_normalized
    print("trade-off: delay "
          + ("rises" if rising else "does not rise")
          + " with load size, switching time "
          + ("falls" if falling else "does not fall")
          + " -- each load has its own optimal design point.")

    print()
    print("Fig. 9 mode-switch matrix (batched transients)")
    print()
    cells = mode_switch_matrix(config)
    for cell in cells:
        switch = cell.switching_time_s
        if switch == float("inf"):
            label = "never"
        elif switch <= 0.0:
            # Rails never left tolerance: the load keeps operating
            # through the switch (the EM-recovery property).
            label = "immediately"
        else:
            label = f"{switch * 1e9:.2f} ns"
        print(f"  {cell.from_mode.name:>12} -> "
              f"{cell.to_mode.name:<12} settles in {label}  "
              f"(rails -> lvdd {cell.settled_load_vdd_v:.3f} V, "
              f"lvss {cell.settled_load_vss_v:.3f} V)")


def main() -> None:
    max_loads = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    run(max_loads)


if __name__ == "__main__":
    main()
