"""Special functions feeding the coherent-state amplitudes.

Values come in the log domain: a plain log for log_factorial, a
(log-magnitude, phase) pair for hyp2f1_terminating, and (log-magnitude,
phase) arrays for gegenbauer_column.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


__all__ = [
    "log_factorial",
    "hyp2f1_terminating",
    "gegenbauer_column",
]


def log_factorial(n: int) -> float:
    """ln(n!) via lgamma."""
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.lgamma(n + 1)


def hyp2f1_terminating(n: int, b: float, c: float,
                       z: complex) -> tuple[float, float]:
    """2F1(-n, b, c; z) as the exact finite sum of n + 1 terms, returned as
    a (log-magnitude, phase) pair.

    The first parameter -n makes the series terminate.  The terms are built
    in the log domain by the ratio recurrence and summed around the largest,
    so mixed-sign parameters and complex z are handled uniformly.  The sum
    is plain Python, not logdomain.peak_sum: verify's series have at most 9
    terms, and numpy's cost per call would outweigh them.

    Raises ValueError when c is a nonpositive integer hit by the Pochhammer
    denominator before the series terminates (c = 0, -1, ..., -(n-1)).
    """
    if n < 0:
        raise ValueError(f"series order must be nonnegative, got {n}")
    if c <= 0 and c == int(c) and -int(c) < n:
        raise ValueError(f"c={c} makes 2F1(-{n}, {b}, {c}; z) undefined")
    logs, phases = [0.0], [0.0]
    for s in range(n):
        ratio = (-n + s) * (b + s) / ((c + s) * (s + 1)) * complex(z)
        if ratio == 0:
            break    # every later term vanishes too
        logs.append(logs[-1] + math.log(abs(ratio)))
        phases.append(phases[-1] + cmath.phase(ratio))
    top = max(logs)
    acc = sum(cmath.rect(math.exp(lg - top), ph)
              for lg, ph in zip(logs, phases))
    return (top + math.log(abs(acc)), cmath.phase(acc)) if acc else (
        -math.inf, 0.0)


def gegenbauer_column(n_max: int, alpha, x: complex) -> tuple:
    """(log-magnitude, phase) arrays of C_0^alpha(x) .. C_{n_max}^alpha(x).

    alpha may be an array; row n then holds degree n for every alpha.  One
    sweep of the ascending three-term recurrence
        n C_n = 2x(n + alpha - 1) C_{n-1} - (n + 2 alpha - 2) C_{n-2}
    runs in complex doubles with the last two values rescaled to magnitude
    at most 1 after every step and the scale kept as a log, so the values
    may lie far beyond the range of doubles as long as 2|x|(n_max + alpha)
    is a finite double.  Ascending recursion is benign here because the
    dominant solution grows monotonically.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if n_max < 0:
        raise ValueError(f"degree must be nonnegative, got {n_max}")
    vals = np.ones((n_max + 1,) + alpha.shape, dtype=complex)
    scale = np.zeros(vals.shape)    # C_n = e^{scale[n]} vals[n]
    prev = np.zeros(alpha.shape, dtype=complex)
    for n in range(1, n_max + 1):
        cur = (2 * x * (n + alpha - 1) * vals[n - 1]
               - (n + 2 * alpha - 2) * prev) / n
        big = np.maximum(np.abs(cur), np.abs(vals[n - 1]))
        prev, vals[n] = vals[n - 1] / big, cur / big
        scale[n] = scale[n - 1] + np.log(big)
    with np.errstate(divide="ignore"):
        return scale + np.log(np.abs(vals)), np.angle(vals)
