"""Population-scale guardband study on the SoA fleet engine.

Runs a Monte Carlo over a fleet of process-varied chips with
:func:`repro.system.fleet.run_fleet_lifetime_study`: every chip draws
its own capture / recovery / EM-current scale factors (lognormal, one
deterministic draw per chip index), then the whole population advances
as stacked tensors per epoch -- no per-chip Python loop.  At 10k chips
the fleet engine clears the horizon in seconds where the pooled
per-cell path takes minutes.

The study asks the paper's system-level question at fleet scale: how
much delay guardband must a *population* budget with and without
activating recovery?  The answer is a guardband distribution -- the
p99 chip, not the mean chip, sets the shipped margin.

Usage::

    python examples/fleet_study.py [n_chips] [epochs] [--max-workers N]

``--max-workers`` sets the process pool size (default: the available
CPUs).  A population above the work gate splits into one lifetime
chunk per worker, merged bit-identically to the serial stream; small
populations stay one in-process chunk behind the gate regardless.
"""

import sys

from repro.system.fleet import FleetVariationSpec, run_fleet_lifetime_study
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.workload import ConstantWorkload


def run(n_chips: int = 10_000, n_epochs: int = 168,
        max_workers: int | None = None) -> None:
    spec = FleetVariationSpec(capture_sigma=0.06,
                              recovery_sigma=0.08,
                              em_current_sigma=0.05)
    workload = ConstantWorkload(n_cores=9, utilization=0.6)
    policies = {
        "no recovery": NoRecoveryPolicy(),
        "rr deep healing": RoundRobinRecoveryPolicy(
            recovery_slots=3, em_alternate_every=2),
    }
    print(f"fleet study: {n_chips} chips x {n_epochs} epochs, "
          f"3x3 cores, lognormal variation "
          f"(capture {spec.capture_sigma:.2f} / recovery "
          f"{spec.recovery_sigma:.2f} / EM {spec.em_current_sigma:.2f})")
    if max_workers is not None:
        print(f"chunk executor: up to {max_workers} workers")
    print()
    results = {}
    for name, policy in policies.items():
        result = run_fleet_lifetime_study(
            (3, 3), n_chips, workload, policy, n_epochs=n_epochs,
            record_every=max(n_epochs // 50, 1), variation=spec,
            seed=0, max_workers=max_workers)
        results[name] = result
        print(f"{name}:")
        print(f"  guardband p50 {result.guardband_quantile(0.50):7.2%}"
              f"   p95 {result.guardband_quantile(0.95):7.2%}"
              f"   p99 {result.guardband_quantile(0.99):7.2%}"
              f"   max {result.guardbands.max():7.2%}")
        print(f"  EM-failed chips {result.em_failure_fraction:.2%}, "
              f"dropped demand "
              f"{result.total_dropped_demand.mean():.1f} "
              f"core-epochs/chip")
    baseline = results["no recovery"]
    healed = results["rr deep healing"]
    saved = (baseline.guardband_quantile(0.99)
             - healed.guardband_quantile(0.99))
    print()
    print(f"activating recovery trims the p99 shipping guardband by "
          f"{saved:.2%} absolute "
          f"({saved / baseline.guardband_quantile(0.99):.0%} of the "
          f"no-recovery margin)")


def main() -> None:
    argv = list(sys.argv[1:])
    max_workers = None
    if "--max-workers" in argv:
        at = argv.index("--max-workers")
        max_workers = int(argv[at + 1])
        del argv[at:at + 2]
    n_chips = int(argv[0]) if len(argv) > 0 else 10_000
    n_epochs = int(argv[1]) if len(argv) > 1 else 168
    run(n_chips, n_epochs, max_workers=max_workers)


if __name__ == "__main__":
    main()
