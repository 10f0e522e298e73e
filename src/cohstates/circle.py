"""Coherent states for a quantum particle on the unit circle.

The states are eigenvectors of Z = e^{-J + 1/2} U labelled by
xi = e^{-l + i phi}, with Gaussian lattice coefficients
c_j = xi^{-j} e^{-j^2/2} over integer angular momenta j (boson sector only,
mirroring the zero-twist sphere representation).  Angular-momentum and
position expectation values track the classical labels (phi, l) up to small
lattice corrections, which is the quantitative content this module exposes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .logdomain import (LogComplex, ZERO, log_complex_sum,
                        log_sum_exp, wrap_phase)
from .sphere import ConstraintError

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

MIN_MARGIN = 15
DEFAULT_MARGIN = 25
L_MIN = -709.0


@dataclass(frozen=True, slots=True)
class CirclePhasePoint:
    """Classical label (phi, l); phi is wrapped into (-pi, pi], and l below
    L_MIN is rejected."""

    phi: float
    l: float

    def __post_init__(self):
        if not self.l >= L_MIN:
            raise ConstraintError(
                f"l = {self.l:.6g} is below the supported {L_MIN:g}, where "
                "the eigenvalue xi = e^(-l + i phi) overflows a double")
        object.__setattr__(self, "phi", wrap_phase(self.phi))

    @property
    def xi(self) -> complex:
        return cmath.exp(complex(-self.l, self.phi))


@dataclass(frozen=True)
class CircleState:
    """Truncated coefficient lattice j in [-j_cut, j_cut]."""

    coeffs: dict
    j_cut: int
    point: CirclePhasePoint | None = None

    def log_norm_sq(self) -> float:
        return log_sum_exp(c.abs_sq_log() for c in self.coeffs.values())

    def tail_fraction(self) -> float:
        total = self.log_norm_sq()
        edge = log_sum_exp(self.coeffs[j].abs_sq_log()
                           for j in (-self.j_cut, self.j_cut)
                           if j in self.coeffs)
        return math.exp(edge - total) if edge != -math.inf else 0.0


def _required_cut(l: float) -> int:
    return math.ceil(abs(l)) + MIN_MARGIN


def default_j_cut(l: float) -> int:
    """Gaussian tail below 1e-130 at this margin, so all digits survive."""
    return math.ceil(abs(l)) + DEFAULT_MARGIN


def circle_coherent(p: CirclePhasePoint, j_cut: int | None = None) -> CircleState:
    """Unnormalized coherent state c_j = xi^{-j} e^{-j^2/2}."""
    if j_cut is None:
        j_cut = default_j_cut(p.l)
    if j_cut < _required_cut(p.l):
        raise ValueError(
            f"j_cut={j_cut} below the safe minimum {_required_cut(p.l)} "
            f"for l={p.l}")
    coeffs = {}
    for j in range(-j_cut, j_cut + 1):
        coeffs[j] = LogComplex.from_polar(p.l * j - 0.5 * j * j, -p.phi * j)
    return CircleState(coeffs, j_cut, p)


def _shift_weight(state: CircleState) -> CircleState:
    """Action of Z = e^{-J + 1/2} U: out_j = e^{-j + 1/2} c_{j-1}."""
    out = {}
    for j, c in state.coeffs.items():
        if j + 1 <= state.j_cut:
            out[j + 1] = c.scaled_log(-(j + 1) + 0.5)
    return CircleState(out, state.j_cut, state.point)


def circle_eigen_residual(state: CircleState) -> float:
    """|| Z|xi> - xi|xi> || / || |xi> || over the truncated lattice."""
    z = _shift_weight(state)
    xi = LogComplex.from_complex(state.point.xi)
    diff_logs = []
    for j in set(z.coeffs) | set(state.coeffs):
        d = log_complex_sum([z.coeffs.get(j, ZERO),
                             -(xi * state.coeffs.get(j, ZERO))])
        diff_logs.append(d.abs_sq_log())
    num = log_sum_exp(diff_logs)
    if num == -math.inf:
        return 0.0
    return math.exp(0.5 * (num - state.log_norm_sq()))


def _moment_logs(state: CircleState):
    """Weights |c_j|^2 rescaled by the peak, as (j, w_j) pairs."""
    logs = {j: c.abs_sq_log() for j, c in state.coeffs.items()}
    m = max(logs.values())
    return [(j, math.exp(v - m)) for j, v in logs.items()]


def circle_expect_J(p: CirclePhasePoint, j_cut: int | None = None) -> float:
    """<J> in the normalized coherent state.

    Equals l exactly (up to roundoff) when 2l is an integer; otherwise it
    oscillates around l with unit period and amplitude a few parts in 1e4.
    """
    w = _moment_logs(circle_coherent(p, j_cut))
    den = math.fsum(v for _, v in w)
    num = math.fsum(j * v for j, v in w)
    return num / den


def circle_expect_U(p: CirclePhasePoint, j_cut: int | None = None) -> complex:
    """<U>: argument is exactly phi, modulus close to e^{-1/4}."""
    state = circle_coherent(p, j_cut)
    logs = []
    for j, c in state.coeffs.items():
        nxt = state.coeffs.get(j + 1)
        if nxt is not None:
            logs.append(nxt.conj() * c)
    num = log_complex_sum(logs)
    return num.scaled_log(-state.log_norm_sq()).to_complex()


def circle_relative_U(p: CirclePhasePoint, reference: CirclePhasePoint,
                      j_cut: int | None = None) -> complex:
    """<U>_p / <U>_ref; with reference (0, l) this is e^{i phi} to roundoff."""
    if j_cut is None:
        j_cut = max(default_j_cut(p.l), default_j_cut(reference.l))
    ref = circle_expect_U(reference, j_cut)
    if ref == 0:
        raise ZeroDivisionError("reference state has vanishing <U>")
    return circle_expect_U(p, j_cut) / ref


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


def circle_uncertainty_report(p: CirclePhasePoint,
                              j_cut: int | None = None) -> CircleUncertainty:
    """(Delta J)^2, its <U>-controlled lower bound, and <U^2>/<U>^2.

    For angular-momentum eigenstates both sides degenerate to 0 = 0; on the
    coherent family the variance sits strictly above the bound and is flat
    in l to better than a percent.
    """
    state = circle_coherent(p, j_cut)
    w = _moment_logs(state)
    den = math.fsum(v for _, v in w)
    m1 = math.fsum(j * v for j, v in w) / den
    m2 = math.fsum(j * j * v for j, v in w) / den
    var_j = m2 - m1 * m1
    exp_u = circle_expect_U(p, j_cut)
    logs = []
    for j, c in state.coeffs.items():
        nxt = state.coeffs.get(j + 2)
        if nxt is not None:
            logs.append(nxt.conj() * c)
    exp_u2 = log_complex_sum(logs).scaled_log(-state.log_norm_sq()).to_complex()
    ratio = exp_u2 / exp_u ** 2
    return uncertainty_from_moments(var_j, exp_u, ratio)
