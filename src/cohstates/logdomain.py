"""Helpers of the log domain.

Coherent-state amplitudes on the sphere mix factors like exp(-j(j+1)/2)
(underflows double precision near j = 27) with polynomial values powered by
cosh|l| (overflows near |l| = 18 for j around 40), so the library keeps
every amplitude as a log-magnitude and a phase, in arrays.  This module
holds the rules of that representation: wrapping phases into their
principal interval, the one rule for a sum taken around its largest log,
and converting between the (log-magnitude, phase) form and complex
values.  The conversions rely on the wrap: rect_array keeps quadrant
phases exact by testing for +pi only, since wrap_phase maps -pi to +pi.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "peak_sum",
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


def peak_sum(logs: np.ndarray, values=1.0) -> tuple:
    """(shift, acc) with e^{shift} acc the sum over the leading axis of
    e^{logs} values, shift the largest log (0 where it is not finite), so no
    term overflows.  A -inf log adds nothing; an empty sum is (0, 0)."""
    top = logs.max(axis=0, initial=-math.inf)
    shift = np.where(np.isfinite(top), top, 0.0)
    return shift, (np.exp(logs - shift) * values).sum(axis=0)


def log_sum_exp(logs) -> float:
    """log(sum(exp(x))) over an array or a list of real logs; -inf for
    empty input."""
    shift, acc = peak_sum(np.asarray(logs, dtype=float))
    return float(shift + math.log(acc)) if acc else -math.inf


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
