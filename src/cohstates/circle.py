"""Coherent states for a quantum particle on the unit circle.

The states are eigenvectors of Z = e^{-J + 1/2} U labelled by
xi = e^{-l + i phi}, with Gaussian lattice coefficients
c_j = xi^{-j} e^{-j^2/2} over integer angular momenta j (boson sector only,
mirroring the zero-twist sphere representation).  A state is held on the
2 WINDOW + 1 sites about round(l), outside which no coefficient is a
double, so there is no cut to choose: every function takes only the phase
point.  The phase of c_j is linear in j, so a state is one real array of
amplitudes, and phi enters each average <U^n> as the single factor
e^{i n phi} on a real lattice ratio.  Angular-momentum and position
expectation values track the classical labels (phi, l) up to small lattice
corrections, which is the quantitative content this module exposes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError
from .logdomain import wrap_phase

__all__ = [
    "CirclePhasePoint",
    "CircleState",
    "circle_coherent",
    "circle_eigen_residual",
    "circle_expect_J",
    "circle_expect_U",
    "circle_relative_U",
    "circle_uncertainty_report",
    "CircleUncertainty",
]

L_MIN = -709.0
# Half-width of the window of sites kept about j0 = round(l), set by double
# underflow: a site k steps away carries at most e^{-(|k| - 1/2)^2 / 2} of
# the peak amplitude, below e^-800 for every dropped one, so the window is
# the whole lattice to every double.
WINDOW = 40
_K = np.arange(-WINDOW, WINDOW + 1)


@dataclass(frozen=True, slots=True)
class CirclePhasePoint:
    """Classical label (phi, l); phi is wrapped into (-pi, pi], and a
    non-finite label or l below L_MIN is rejected."""

    phi: float
    l: float

    def __post_init__(self):
        for name, v in (("phi", self.phi), ("l", self.l)):
            if not math.isfinite(v):
                raise ConstraintError(f"{name} must be finite, got {v}")
        if self.l < L_MIN:
            raise ConstraintError(
                f"l = {self.l:.6g} is below the supported {L_MIN:g}, where "
                "the eigenvalue xi = e^(-l + i phi) overflows a double")
        object.__setattr__(self, "phi", wrap_phase(self.phi))


@dataclass(frozen=True, eq=False)
class CircleState:
    """Real amplitudes on the 2 WINDOW + 1 sites j0 + k, k in _K, about
    j0 = round(l): c_{j0+k} = e^{l^2/2 - i phi j0} amp e^{-i phi k}, with
    amp = e^{-(k - d)^2 / 2} for d = l - j0 (exact).  The common factor
    cancels in every reported ratio, so it is never formed.  The amplitudes
    lie in [e^-820, 1], plain doubles (those below e^-745 are 0), not logs.
    """

    point: CirclePhasePoint
    j0: int
    amp: np.ndarray

    @property
    def coeffs(self) -> np.ndarray:
        """The coefficients without the common factor, as complex values,
        for tests and tracing; the module reads amp."""
        return self.amp * np.exp(-1j * self.point.phi * _K)


def circle_coherent(p: CirclePhasePoint) -> CircleState:
    """Unnormalized coherent state c_j = xi^{-j} e^{-j^2/2}."""
    j0 = round(p.l)
    return CircleState(p, j0, np.exp(-0.5 * (_K - (p.l - j0)) ** 2))


def circle_eigen_residual(state: CircleState) -> tuple[float, float]:
    """|| Z|xi> - xi|xi> || / || |xi> || over the window, with
    Z = e^{-J + 1/2} U: (Z c)_j = e^{-j + 1/2} c_{j-1}, as (absolute,
    relative to |xi| = e^{-l}).

    The relative one is formed first, from (Z c / xi)_{j0+k+1} =
    e^{d - k - 1/2 - i phi} c_{j0+k}, so it stays meaningful where the
    absolute one underflows or overflows.  Both terms at site j0 + k + 1
    carry the phase e^{-i phi (k + 1)}, so their difference is a real one
    times it: amp_k e^{d - k - 1/2} - amp_{k+1}, zero but for rounding.
    The lowest site's image would come from below the window, so is 0.
    """
    p, a = state.point, state.amp
    image = a[:-1] * np.exp((p.l - state.j0) - _K[:-1] - 0.5)
    diff = np.append(-a[:1], image - a[1:])
    rel = math.sqrt(float(diff @ diff / (a @ a)))
    return rel * math.exp(-p.l), rel


def _k_moments(state: CircleState) -> tuple[float, float]:
    """Mean and variance of the site offset k under the weights |c_j|^2."""
    w = state.amp ** 2
    mean = float(_K @ w / w.sum())
    return mean, float((_K - mean) ** 2 @ w / w.sum())


def _shift_overlap(state: CircleState, n: int) -> complex:
    """<U^n> = sum_j conj(c_{j+n}) c_j / sum_j |c_j|^2, which is the real
    lattice ratio sum_k amp_k amp_{k+n} / sum_k amp_k^2 times e^{i n phi}."""
    a = state.amp
    return cmath.rect(float(a[:-n] @ a[n:] / (a @ a)), n * state.point.phi)


def circle_expect_J(p: CirclePhasePoint) -> float:
    """<J> in the normalized coherent state.

    Equals l exactly (up to roundoff) when 2l is an integer; otherwise it
    oscillates around l with unit period and amplitude a few parts in 1e4.
    """
    state = circle_coherent(p)
    return state.j0 + _k_moments(state)[0]


def circle_expect_U(p: CirclePhasePoint) -> complex:
    """<U>: argument is exactly phi, modulus close to e^{-1/4}."""
    return _shift_overlap(circle_coherent(p), 1)


def circle_relative_U(p: CirclePhasePoint) -> complex:
    """<U>_p / <U> at (0, l), which is e^{i phi} to roundoff.  The divisor's
    modulus is at least 0.7786, its value at integer l."""
    return circle_expect_U(p) / circle_expect_U(CirclePhasePoint(0.0, p.l))


@dataclass(frozen=True, slots=True)
class CircleUncertainty:
    var_j: float
    bound: float
    ratio_u2: complex


def uncertainty_from_moments(var_j: float, exp_u: complex,
                             ratio_u2: complex) -> CircleUncertainty:
    u2 = abs(exp_u) ** 2
    bound = 0.25 * u2 / (1.0 - u2) if u2 < 1.0 else math.inf
    rep = CircleUncertainty(var_j, bound, ratio_u2)
    if not var_j >= bound - 1e-12 * max(1.0, abs(bound)):
        raise AssertionError(
            f"uncertainty bound violated: var={var_j} < bound={bound}")
    return rep


def circle_uncertainty_report(p: CirclePhasePoint) -> CircleUncertainty:
    """(Delta J)^2, its <U>-controlled lower bound, and <U^2>/<U>^2.

    For angular-momentum eigenstates both sides degenerate to 0 = 0; on the
    coherent family the variance sits strictly above the bound and is flat
    in l to better than a percent.  Phi enters <U^n> only as e^{i n phi},
    so all three are those of (0, l), where <U> and <U^2> are real.
    """
    rest = CirclePhasePoint(0.0, p.l)
    state = circle_coherent(rest)
    exp_u = circle_expect_U(rest)
    ratio = _shift_overlap(state, 2) / exp_u ** 2
    return uncertainty_from_moments(_k_moments(state)[1], exp_u, ratio)
