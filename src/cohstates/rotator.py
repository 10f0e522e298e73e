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

from .repspace import StateVector
from .sphere import SpherePhasePoint, coherent_state

__all__ = [
    "rotator_energy",
    "classical_peak_j",
    "DistributionTable",
    "distribution",
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


@dataclass(frozen=True)
class DistributionTable:
    """Normalized probabilities p_{j,m} for one phase point.

    Probabilities that underflow double precision (below about 1e-300 after
    normalization) are stored as exact zeros; upstream amplitudes stay in
    the log domain so nothing is lost before this presentation step.
    """

    entries: dict
    phase_point: SpherePhasePoint
    j_cut: int

    def total(self) -> float:
        return math.fsum(self.entries.values())

    def probability(self, j: int, m: int) -> float:
        return self.entries.get((j, m), 0.0)


def distribution_from_state(s: StateVector,
                            p: SpherePhasePoint) -> DistributionTable:
    j, m, lm, _ = s.nonzero()
    lp = 2 * lm - s.log_norm_sq()
    prob = np.where(lp > -745.0, np.exp(lp), 0.0)
    return DistributionTable(dict(zip(zip(j.tolist(), m.tolist()),
                                      prob.tolist())), p, s.j_cut)


def distribution(p: SpherePhasePoint,
                 j_cut: int | str = "auto") -> DistributionTable:
    """Energy-level distribution of the coherent state at phase point p."""
    s = coherent_state(p, j_cut=j_cut)
    return distribution_from_state(s, p)


def argmax_j(t: DistributionTable, m_fixed: int) -> int:
    """The j maximizing p_{j, m_fixed}; ties break toward smaller j."""
    best_j, best_p = None, -1.0
    for j in range(abs(m_fixed), t.j_cut + 1):
        p = t.entries.get((j, m_fixed))
        if p is not None and p > best_p:
            best_j, best_p = j, p
    if best_j is None:
        raise ValueError(f"no entries with m = {m_fixed}")
    return best_j


def argmax_m(t: DistributionTable, j_fixed: int) -> int:
    """The m maximizing p_{j_fixed, m}; ties break toward smaller |m|."""
    best_m, best_p = None, -1.0
    for m in sorted(range(-j_fixed, j_fixed + 1), key=lambda v: (abs(v), v)):
        p = t.entries.get((j_fixed, m))
        if p is not None and p > best_p:
            best_m, best_p = m, p
    if best_m is None:
        raise ValueError(f"no entries with j = {j_fixed}")
    return best_m
