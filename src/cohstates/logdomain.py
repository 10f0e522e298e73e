"""Log-domain complex scalars.

Coherent-state amplitudes on the sphere mix factors like exp(-j(j+1)/2)
(underflows double precision near j = 27) with polynomial values powered by
cosh|l| (overflows near |l| = 18 for j around 40).  Storing every scalar as
(log-magnitude, phase) keeps products and sums exact over roughly 600 decades
of dynamic range, which covers every phase point this library claims to
handle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "LogComplex",
    "ZERO",
    "ONE",
    "log_complex_sum",
    "wrap_phase",
]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


def wrap_phase(phase: float) -> float:
    """Wrap an angle into (-pi, pi]; ties at -pi map to +pi."""
    p = math.remainder(phase, _TWO_PI)
    if p <= -math.pi:
        p += _TWO_PI
    return p


def _rect(mag: float, phase: float) -> complex:
    """cmath.rect with the four quadrant phases kept exact.

    Real and imaginary coefficients carry phases that are exactly 0, pi or
    +-pi/2; evaluating sin/cos there would leave 1e-16-sized dust that stops
    exact cancellations (opposite real amplitudes must sum to exactly zero).
    """
    if phase == 0.0:
        return complex(mag, 0.0)
    if phase == math.pi:
        return complex(-mag, 0.0)
    if phase == _HALF_PI:
        return complex(0.0, mag)
    if phase == -_HALF_PI:
        return complex(0.0, -mag)
    return cmath.rect(mag, phase)


@dataclass(frozen=True, slots=True)
class LogComplex:
    """A complex scalar stored as (log of magnitude, phase in (-pi, pi]).

    log_mag = -inf encodes the exact zero, which is absorbing under
    multiplication.  Instances are immutable values; all arithmetic returns
    fresh objects.
    """

    log_mag: float
    phase: float = 0.0

    @classmethod
    def from_complex(cls, w: complex) -> "LogComplex":
        w = complex(w)
        if w == 0:
            return ZERO
        return cls(math.log(abs(w)), math.atan2(w.imag, w.real))

    @classmethod
    def from_real(cls, x: float) -> "LogComplex":
        if x == 0:
            return ZERO
        if x > 0:
            return cls(math.log(x), 0.0)
        return cls(math.log(-x), math.pi)

    @classmethod
    def from_polar(cls, log_mag: float, phase: float = 0.0) -> "LogComplex":
        """Build directly from a log-magnitude and an (unwrapped) phase."""
        if log_mag == -math.inf:
            return ZERO
        return cls(log_mag, wrap_phase(phase))

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def to_complex(self) -> complex:
        """Convert to an ordinary complex.

        Exact whenever log_mag stays below the log of the largest finite
        float (about 709.78); overflows to inf beyond that.
        """
        if self.is_zero:
            return 0j
        return _rect(math.exp(self.log_mag), self.phase)

    def conj(self) -> "LogComplex":
        if self.is_zero:
            return ZERO
        return LogComplex(self.log_mag, wrap_phase(-self.phase))

    def scaled_log(self, dlog: float) -> "LogComplex":
        """Multiply by exp(dlog) for a real dlog (no phase change)."""
        if self.is_zero:
            return ZERO
        return LogComplex(self.log_mag + dlog, self.phase)

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return ZERO
        return LogComplex(self.log_mag + other.log_mag,
                          wrap_phase(self.phase + other.phase))

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by log-domain zero")
        if self.is_zero:
            return ZERO
        return LogComplex(self.log_mag - other.log_mag,
                          wrap_phase(self.phase - other.phase))

    def __neg__(self) -> "LogComplex":
        if self.is_zero:
            return ZERO
        return LogComplex(self.log_mag, wrap_phase(self.phase + math.pi))

    def __pow__(self, n: int) -> "LogComplex":
        if self.is_zero:
            if n == 0:
                return ONE
            if n < 0:
                raise ZeroDivisionError("zero to a negative power")
            return ZERO
        return LogComplex(n * self.log_mag, wrap_phase(n * self.phase))

    def abs_sq_log(self) -> float:
        """log(|value|^2); -inf for zero."""
        return 2.0 * self.log_mag


ZERO = LogComplex(-math.inf, 0.0)
ONE = LogComplex(0.0, 0.0)


def log_complex_sum(terms) -> LogComplex:
    """Sum of LogComplex terms, accurate across huge dynamic range.

    The largest log-magnitude is factored out and the residuals are summed
    as ordinary complex numbers, so relative accuracy follows the usual
    floating-point conditioning of the sum regardless of overall scale.
    Total cancellation returns the zero element.
    """
    terms = [t for t in terms if not t.is_zero]
    if not terms:
        return ZERO
    m = max(t.log_mag for t in terms)
    acc = 0j
    for t in terms:
        acc += _rect(math.exp(t.log_mag - m), t.phase)
    if acc == 0:
        return ZERO
    return LogComplex(m + math.log(abs(acc)),
                      math.atan2(acc.imag, acc.real))


def log_sum_exp(logs) -> float:
    """log(sum(exp(x))) for an iterable of real logs; -inf for empty input."""
    logs = [x for x in logs if x != -math.inf]
    if not logs:
        return -math.inf
    m = max(logs)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(x - m) for x in logs))
