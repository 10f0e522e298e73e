"""Scalar helpers of the log domain.

Coherent-state amplitudes on the sphere mix factors like exp(-j(j+1)/2)
(underflows double precision near j = 27) with polynomial values powered by
cosh|l| (overflows near |l| = 18 for j around 40), so the library keeps
every amplitude as a log-magnitude and a phase, in arrays.  This module
holds the two scalar operations on that representation: wrapping a phase
into its principal interval and summing real logs.
"""

from __future__ import annotations

import math

__all__ = [
    "log_sum_exp",
    "wrap_phase",
]

_TWO_PI = 2.0 * math.pi


def wrap_phase(phase: float) -> float:
    """Wrap an angle into (-pi, pi]; ties at -pi map to +pi."""
    p = math.remainder(phase, _TWO_PI)
    if p <= -math.pi:
        p += _TWO_PI
    return p


def log_sum_exp(logs) -> float:
    """log(sum(exp(x))) for an iterable of real logs; -inf for empty input."""
    logs = [x for x in logs if x != -math.inf]
    if not logs:
        return -math.inf
    m = max(logs)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(x - m) for x in logs))
