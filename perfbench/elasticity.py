"""Fit the exponent of a workload's speed factor (``calibrate.ELASTICITY``).

    python3 perfbench/elasticity.py --workload verify --minutes 8

Sends pass 0 of the workload at seed 0 over and over, in-process from one
client as ``run.py`` does, while the kernel of ``calibrate.py`` samples the
machine's speed.  Every pass has the same inputs, so their calibrated wall
times should agree.  For each exponent e on a grid from 0 to 1.2 it
computes each pass's wall time as run.py does, the sum over its requests of
measured seconds times speed factor ** e, and prints the e at which the
standard deviation of their logs is smallest, beside that deviation at
e = 0 (measured seconds) and e = 1.
"""

from __future__ import annotations

import argparse
import math
import statistics
import time

import run
import workloads
from calibrate import Calibrator

GRID = [i / 20 for i in range(25)]


def log_sd(passes, e: float) -> float:
    """Standard deviation of log pass wall time at exponent e."""
    return statistics.pstdev(
        math.log(sum(s * f ** e for s, f in p)) for p in passes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--minutes", type=float, default=8.0)
    args = ap.parse_args()
    cli = run.load_library().cli
    run.pin_to_one_cpu()
    reqs = workloads.requests(args.workload, 0, 0)
    passes = []     # per pass: (measured seconds, speed factor) per request
    end = time.perf_counter() + 60.0 * args.minutes
    while time.perf_counter() < end:
        p = run.run_pass(cli, reqs, Calibrator(1.0))
        passes.append([(o.seconds, p.cal.factor_during(o.start, o.end))
                       for o in p.outcomes])
    best = min(GRID, key=lambda e: log_sd(passes, e))
    print(f"{args.workload}: {len(passes)} passes, elasticity {best:.2f}; "
          f"sd of log pass wall time: measured {log_sd(passes, 0.0):.3f}, "
          f"exponent 1 {log_sd(passes, 1.0):.3f}, "
          f"exponent {best:.2f} {log_sd(passes, best):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
