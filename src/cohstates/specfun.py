"""Special functions feeding the coherent-state amplitudes.

log_factorial_table gives the plain logs ln(n!).  gegenbauer_column
gives the one family the closed form reads, C_n^{k+1/2} for n, k up to the
cut, as (log-magnitude, phase) arrays, since the amplitudes it builds span
far beyond the range of doubles: its recurrence runs in plain complex doubles,
rescaled by exact powers of two only when a growth bound says the next steps
could overflow, with the scale kept as an integer binary exponent.
hyp2f1_terminating returns a plain complex: its one caller, the identity
check of `cohstates verify`, sums at most 9 terms of moderate size.
"""

from __future__ import annotations

import math

import numpy as np


__all__ = [
    "log_factorial_table",
    "hyp2f1_terminating",
    "gegenbauer_column",
]

# A rescale leaves the larger of the last two values in [1/2, 1), so a sweep
# stays finite while the summed log growth bound since then is below
# log(DBL_MAX) = 709.78; the rest is a margin for the bound's own rounding.
_HEADROOM = 700.0
# ln 2 = _LN2_HI + _LN2_LO, the first with 32 significant bits, so that
# k _LN2_HI is exact for every binary exponent |k| < 2^21.  k ln 2 rounded as
# one double carries k times the rounding of ln 2, a bias growing with the
# degree: it raised the relative eigen-residual at |l| = 354 from 6.2e-12 to
# 8.5e-12.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def log_factorial_table(n_max: int) -> np.ndarray:
    """ln(n!) for n = 0 .. n_max, each lgamma(n + 1) as math computes it."""
    return np.array([math.lgamma(n + 1) for n in range(n_max + 1)])


def hyp2f1_terminating(n: int, b: float, c: float, z: complex) -> complex:
    """2F1(-n, b, c; z) as the exact finite sum of its n + 1 terms.

    The first parameter -n makes the series terminate.  Each term is the
    last times (-n + s)(b + s) / ((c + s)(s + 1)) z, and the terms are
    summed as they come, in complex doubles.

    Raises ValueError when c is a nonpositive integer hit by the Pochhammer
    denominator before the series terminates (c = 0, -1, ..., -(n-1)).
    """
    if n < 0:
        raise ValueError(f"series order must be nonnegative, got {n}")
    if c <= 0 and float(c).is_integer() and -c < n:
        raise ValueError(f"c={c} makes 2F1(-{n}, {b}, {c}; z) undefined")
    term = total = 1 + 0j
    for s in range(n):
        term *= (-n + s) * (b + s) / ((c + s) * (s + 1)) * z
        total += term
    return total


def gegenbauer_column(n_max: int, x: complex) -> tuple:
    """(log-magnitude, phase) arrays of C_n^{k+1/2}(x), degree n at row n
    and parameter k + 1/2 at column k, for n, k = 0 .. n_max.

    One sweep of the ascending three-term recurrence
        C_n = a_n C_{n-1} - b_n C_{n-2},
        a_n = 2x(n + k - 1/2)/n,  b_n = (n + 2k - 1)/n,
    from C_{-1} = 0 and C_0 = 1 runs in complex doubles, with a_n and b_n
    formed once as arrays, so that a step is two products and a difference.
    A step grows the larger of the last two values by at most g_n, the
    largest |a_n| + |b_n| over the columns (or 1).  Before the sum of log g_n
    since the last rescale would pass _HEADROOM, each column's last two
    values are multiplied by 2^-e, e the binary exponent of the larger of
    their moduli.  That is exact, and the e add up to an integer exponent,
    so log|C_n| is that exponent times ln 2 plus the log of the value held,
    added once at the end, not a running sum of rounded logs.  The values
    may thus lie far beyond the range of doubles as long as every g_n is a
    finite double.  Ascending recursion is benign here because the dominant
    solution grows monotonically.
    """
    if n_max < 0:
        raise ValueError(f"degree must be nonnegative, got {n_max}")
    al = np.arange(n_max + 1) + 0.5
    n = np.arange(1, n_max + 1)[:, None]
    a = (n + al - 1) * (2 * x / n)
    b = (n + 2 * al - 2) / n
    # |a_n| + |b_n| is convex in k, so its largest is at column 0 or n_max
    ends = al[[0, -1]]
    log_g = np.log(((2 * abs(x) * (n + ends - 1) + abs(n + 2 * ends - 2)) / n)
                   .max(axis=1, initial=1.0)).tolist()
    vals = np.zeros((n_max + 2, n_max + 1), dtype=complex)
    vals[1] = 1
    rows = list(vals)
    # each rescale's exponents; summed down the rows, C_n = 2^k[n+1] vals[n+1]
    k = np.zeros(vals.shape, dtype=int)
    room = _HEADROOM
    for i, (a_i, b_i, g) in enumerate(zip(a, b, log_g), 2):
        if g > room:
            last = vals[i - 2:i]
            k[i - 2] = e = np.frexp(abs(last).max(axis=0))[1]
            last *= np.ldexp(1.0, -e)
            room = _HEADROOM
        room -= g
        np.multiply(a_i, rows[i - 1], out=rows[i])
        rows[i] -= b_i * rows[i - 2]
    # in place: at cut 730 each full array is 4-8 MB
    np.cumsum(k, axis=0, out=k)
    log_mag = abs(vals)
    with np.errstate(divide="ignore"):
        np.log(log_mag, out=log_mag)
    log_mag += k * _LN2_LO
    log_mag += k * _LN2_HI
    return log_mag[1:], np.angle(vals[1:])
