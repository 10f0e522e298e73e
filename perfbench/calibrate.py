"""Machine-speed calibration for the reported times.

On a shared machine the speed of pure-Python code drifts by 30 % and more
over tens of seconds, which swamps run-to-run comparisons.  The benchmark
therefore times a fixed kernel every ``INTERVAL_S`` seconds of wall time
while requests run, from a SIGALRM handler, and reports every time in
reference seconds: the measured seconds times the speed factor
(``REFERENCE_S`` over the median kernel time) raised to the workload's
``ELASTICITY``.  Time spent while the machine runs at its reference speed
reads the same in both units.

The machine switches between a fast and a slow state, tens of seconds
each; in the slow one the kernel takes about twice as long, but not all
code slows as much.  Alternating the kernel with fixed pieces of the
library for three minutes (2 vCPU VM), circle reports slowed with an
elasticity (slope of log time on log kernel time) of 0.95, a sphere report
of 0.71, and two verify checks of 0.48 and 0.53, so exponent 1
over-corrects.  Each workload's exponent in ``ELASTICITY`` is the one that
makes the calibrated wall times of identical passes agree best, fitted by
``elasticity.py`` at the commit that added the benchmark (2 vCPU VM).  The
standard deviation of log pass wall time, measured / exponent 1 / fitted,
was 0.150 / 0.088 / 0.045 on verify (26 passes), 0.101 / 0.047 / 0.039 on
sphere_report (31) and 0.192 / 0.126 / 0.092 on circle_sweep (219).  The
fit holds for the code it was made on: a change that alters how a workload
responds to the machine's state can make its figures spread more, and
elasticity.py then shows by how much.  Set-up children keep exponent 1.

A request's kernel times are those of the samples taken while it ran, or,
when fewer than ``NEAREST`` were, of the ``NEAREST`` samples taken closest
to its midpoint.  The speed drifts within a pass, so a factor local to the
request tracks it better than one for the whole pass.  Computed both ways
from the same circle_sweep runs (seeds 11-18, 2 vCPU VM), the spread
(q3 - q1) / median of wall_s was 0.18 with one factor per pass and 0.07
with local factors, and that of request_p50_s 0.16 and 0.08.

Requests are timed with ``Calibrator.clock``, which stops while the kernel
runs, so the kernel's own time is not charged to the request it interrupted.

The kernel imitates the library's inner loops (frozen slotted value objects,
log-domain products, dict-of-list buckets, exp/cos/sin sums) but imports
nothing from it, so a change to the library cannot move the calibration.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from dataclasses import dataclass

# Median kernel time on the reference machine (2 vCPU VM, Python 3.11.7).
REFERENCE_S = 0.030
INTERVAL_S = 0.5
NEAREST = 5
# Fitted by elasticity.py (see the module docstring).
ELASTICITY = {"sphere_report": 0.80, "verify": 0.65, "circle_sweep": 0.65}


@dataclass(frozen=True, slots=True)
class _Value:
    log_mag: float
    phase: float

    def __mul__(self, other: "_Value") -> "_Value":
        return _Value(self.log_mag + other.log_mag,
                      math.remainder(self.phase + other.phase, 2.0 * math.pi))


def kernel(n: int = 9000) -> complex:
    buckets: dict = {}
    a = _Value(0.1, 0.2)
    for i in range(n):
        v = a * _Value(math.log(i + 1.5), 0.001 * i)
        buckets.setdefault((i % 97, i % 13), []).append(v)
    acc = 0j
    for vs in buckets.values():
        m = max(v.log_mag for v in vs)
        for v in vs:
            acc += complex(math.exp(v.log_mag - m) * math.cos(v.phase),
                           math.sin(v.phase))
    return acc


class Calibrator:
    """Kernel timings of one stretch of a run.  The speed factors are raised
    to the power `elasticity` (see ELASTICITY)."""

    def __init__(self, elasticity: float = 1.0):
        self.elasticity = elasticity
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0    # seconds spent in the kernel so far

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.samples.append((t0 + dt / 2, dt))
            self.spent += dt

    def clock(self) -> float:
        """perf_counter minus the time spent in the kernel."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:  # no sample ran in between
                return t - spent

    @contextlib.contextmanager
    def sampling(self):
        """Sample every INTERVAL_S seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Reference seconds per measured second, over every sample."""
        return (REFERENCE_S / statistics.median(
            dt for _, dt in self.samples)) ** self.elasticity

    def factor_during(self, start: float, end: float) -> float:
        """Reference seconds per measured second for a request that ran
        from `start` to `end` (perf_counter times)."""
        during = [dt for at, dt in self.samples if start <= at <= end]
        if len(during) < NEAREST:
            mid = (start + end) / 2
            during = [dt for _, dt in sorted(
                self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]]
        return (REFERENCE_S / statistics.median(during)) ** self.elasticity
