"""Helpers of the log domain.

Coherent-state amplitudes on the sphere mix factors like exp(-j(j+1)/2)
(underflows double precision near j = 27) with polynomial values powered by
cosh|l| (overflows near |l| = 18 for j around 40), so the library keeps
every amplitude as a log-magnitude and a phase, in arrays.  This module
holds the rules of that representation: wrapping phases into their
principal interval, summing real logs, and converting between the
(log-magnitude, phase) form and complex values.  The conversions rely on
the wrap: rect_array keeps quadrant phases exact by testing for +pi only,
since wrap_phase maps -pi to +pi.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_sum_exp",
    "wrap_phase",
    "rect_array",
    "polar_array",
]

_TWO_PI = 2.0 * math.pi


def wrap_phase(phase):
    """Wrap angles into (-pi, pi]; ties at -pi map to +pi.

    Exact: the remainder by 2 pi and the one correction by 2 pi round
    nothing, so quadrant phases stay exact.  An array gives an array; a
    float gives a float through math, many times faster than numpy on one
    value.
    """
    if isinstance(phase, np.ndarray):
        p = np.fmod(phase, _TWO_PI)
        p = np.where(p > math.pi, p - _TWO_PI, p)
        return np.where(p <= -math.pi, p + _TWO_PI, p)
    p = math.remainder(phase, _TWO_PI)
    return p + _TWO_PI if p <= -math.pi else p


def log_sum_exp(logs) -> float:
    """log(sum(exp(x))) over an array or a list of real logs, summed around
    the largest; -inf for empty input."""
    x = np.asarray(logs, dtype=float)
    top = x.max(initial=-math.inf)
    if math.isinf(top):
        return float(top)
    return float(top + math.log(np.sum(np.exp(x - top))))


def rect_array(lm, ph) -> np.ndarray:
    """exp(lm) e^{i ph} elementwise, for arrays or scalars.  The quadrant
    phases 0, pi and +-pi/2 of (-pi, pi], wrap_phase's interval, leave no
    cos/sin dust, so opposite real amplitudes cancel to exactly zero."""
    mag = np.exp(lm)
    re = np.asarray(mag * np.cos(ph))
    im = np.asarray(mag * np.sin(ph))
    re[np.abs(ph) == 0.5 * math.pi] = 0.0
    im[ph == math.pi] = 0.0
    return re + 1j * im


def polar_array(shift: np.ndarray, acc: np.ndarray) -> tuple:
    """(log-magnitude, phase) arrays of e^{shift} acc; exact zeros of acc
    become log-magnitude -inf."""
    with np.errstate(divide="ignore"):
        return shift + np.log(np.abs(acc)), np.angle(acc)
