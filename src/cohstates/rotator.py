"""Free rotator: energy levels and their distribution in a coherent state.

The Hamiltonian J^2/2 has eigenvalues j(j+1)/2 on the |j, m> basis, so the
probability table p_{j,m} = |<j,m|state>|^2 / <state|state> is the energy
(and J3) distribution of the phase point.  Its conditional maxima recover
the classical labels: over j at the positive root of j(j+1) = l.l, and over
m at the axis projection l3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logdomain import log_sum_exp
from .repspace import StateVector

__all__ = [
    "rotator_energy",
    "classical_peak_j",
    "DistributionTable",
    "distribution_from_state",
    "argmax_j",
    "argmax_m",
]


def rotator_energy(j: int) -> float:
    """Energy of the |j, m> level: j(j+1)/2."""
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    return 0.5 * j * (j + 1)


def classical_peak_j(lsq: float) -> float:
    """Positive root of j(j+1) = lsq, where the j-distribution peaks."""
    if lsq < 0:
        raise ValueError(f"l.l must be nonnegative, got {lsq}")
    return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * lsq))


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Normalized probabilities p_{j,m} of the nonzero amplitudes of one
    state, as arrays in (j, m) order, with ln p alongside.

    Probabilities below e^-745, where exp underflows, are stored as exact
    zeros; ln_p keeps their logs, since upstream amplitudes stay in the log
    domain.
    """

    j: np.ndarray
    m: np.ndarray
    p: np.ndarray
    ln_p: np.ndarray

    def total(self) -> float:
        return math.fsum(self.p.tolist())


def distribution_from_state(s: StateVector) -> DistributionTable:
    """Energy-level distribution of the state s, normalized about its peak:
    the state's absolute log squared norm, of size about |l|^2, would round
    the total probability away from 1 by up to 1e-11 at |l| = 355."""
    j, m, lm, _ = s.nonzero()
    ln_p = 2 * (lm - lm.max(initial=-math.inf))
    ln_p -= log_sum_exp(ln_p)
    return DistributionTable(j, m, np.where(ln_p > -745.0, np.exp(ln_p), 0.0),
                             ln_p)


def argmax_j(t: DistributionTable, m_fixed: int) -> int:
    """The j maximizing p_{j, m_fixed}; ties break toward smaller j."""
    sel = t.m == m_fixed
    if not sel.any():
        raise ValueError(f"no entries with m = {m_fixed}")
    # the entries run in ascending j, and argmax takes the first maximum
    return int(t.j[sel][np.argmax(t.p[sel])])


def argmax_m(t: DistributionTable, j_fixed: int) -> int:
    """The m maximizing p_{j_fixed, m}; ties break toward smaller |m|, then
    toward negative m."""
    sel = t.j == j_fixed
    if not sel.any():
        raise ValueError(f"no entries with j = {j_fixed}")
    m, p = t.m[sel], t.p[sel]
    order = np.lexsort((m, np.abs(m)))    # by |m|, then by m
    return int(m[order][np.argmax(p[order])])
