"""Coherent states for a quantum particle on the sphere.

A classical phase point (x, l) with x on the sphere of radius r and l
tangent to it is mapped to a complex label z with z.z = 1 through
cosh/sinh weights; the coherent state is the joint eigenvector of the three
commuting generators Z_i with eigenvalues z_i.  Three independent
constructions are provided:

  * closed form: a single Gegenbauer-polynomial expression per amplitude
    (the production path, fully log-domain);
  * triple sum: the raw expansion of the group-element generation;
  * ladder generation: exponentials of J+/J3/J- applied to the rest state
    at the north pole.

Agreement of the three routes, the eigenvalue residual, and the expectation
values of J and X against the classical labels are the module's testable
claims.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .repspace import (StateVector, expectation, grid, operator_table,
                       polar_array, rect_array, residual_norm, state_scale,
                       state_sum)
from .specfun import gegenbauer_column, log_factorial

__all__ = [
    "ConstraintError",
    "SpherePhasePoint",
    "ZLabel",
    "phase_to_z",
    "axis_reference_label",
    "north_pole_state",
    "coherent_closed_form",
    "coherent_triple_sum",
    "coherent_ladder_generated",
    "coherent_state",
    "default_j_cut",
    "generation_params",
    "eigen_residual",
    "expect_J",
    "expect_X",
    "relative_X",
    "uncertainty_J",
    "SphereUncertainty",
    "apply_rotation",
    "max_amplitude_rel_diff",
]

TANGENCY_TOL = 1e-9
RADIUS_REPAIR_LIMIT = 1e-2
LABEL_TOL = 1e-9
# The label's squared Hermitian size sum |z_i|^2 is cosh(2|l|), and the
# bilinear check squares components of size cosh|l|: both are finite doubles
# only up to |l| of about 355.2.
L_NORM_MAX = 355.0


class ConstraintError(ValueError):
    """A phase point violates the sphere or tangency constraints."""


def _vec(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SpherePhasePoint:
    """Classical phase point: position x with |x| = r and tangent momentum l.

    Positions off the sphere by up to 1% (typical of values quoted to a few
    decimals) are rescaled onto it at construction, so the stored x always
    satisfies the radius constraint to machine precision.  Tangency is only
    repaired on request via project_tangent, since projecting l genuinely
    changes the label.  Non-finite input, a radius below the smallest
    normal double and |l| above L_NORM_MAX are rejected.
    """

    x: np.ndarray
    l: np.ndarray
    r: float = 1.0

    def __init__(self, x, l, r: float = 1.0, project_tangent: bool = False):
        x = _vec(x)
        l = _vec(l)
        for name, v in (("x", x), ("l", l), ("r", r)):
            if not np.isfinite(v).all():
                raise ConstraintError(f"{name} must be finite, got {v}")
        if not r >= np.finfo(float).tiny:
            raise ConstraintError(
                f"radius must be a positive normal double, got {r}")
        # in units of r, u = x/r, no square over- or underflows for a point
        # near the sphere; far off it one leaves an inf or a NaN: reject
        with np.errstate(over="ignore", invalid="ignore"):
            u = x / r
            dev = abs(u @ u - 1.0)
            if not dev <= RADIUS_REPAIR_LIMIT:
                raise ConstraintError(
                    f"|x|/r = {math.sqrt(u @ u):.6g} is too far from 1")
            if dev > 0:
                x = x * (1.0 / math.sqrt(u @ u))
                u = x / r
            lnorm = math.sqrt(l @ l)
            if lnorm > 0:
                tang = abs(l @ u) / lnorm
                if tang > TANGENCY_TOL:
                    if not project_tangent:
                        raise ConstraintError(
                            f"l.x/(|l| r) = {tang:.3g} exceeds "
                            f"{TANGENCY_TOL}; pass project_tangent=True to "
                            "project l onto the tangent plane")
                    l = l - (l @ u) * u
            if not math.sqrt(l @ l) <= L_NORM_MAX:
                raise ConstraintError(
                    f"|l| = {math.sqrt(l @ l):.6g} is above the supported "
                    f"{L_NORM_MAX:g}, where cosh(2|l|) overflows a double")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r", float(r))

    @property
    def l_norm(self) -> float:
        return math.sqrt(self.l @ self.l)


@dataclass(frozen=True)
class ZLabel:
    """Complex 3-vector label with the bilinear constraint z.z = 1.

    The constraint check is relative to the Hermitian size sum |z_i|^2: the
    bilinear sum cancels terms of order cosh^2|l| down to 1, so an absolute
    comparison would reject exact labels on roundoff alone once |l| exceeds
    about 8.
    """

    z: np.ndarray
    checked: bool = True

    def __init__(self, z, *, check: bool = True):
        z = np.asarray(z, dtype=complex)
        if z.shape != (3,):
            raise ValueError(f"expected a complex 3-vector, got {z.shape}")
        if check:
            with np.errstate(over="ignore", invalid="ignore"):
                scale = max(1.0, float(np.sum(np.abs(z) ** 2)))
                dev = abs(z @ z - 1.0) / scale
            if not dev <= LABEL_TOL:    # an overflow leaves a NaN: reject
                raise ConstraintError(
                    f"|z.z - 1| = {dev:.3g} of the label size exceeds {LABEL_TOL}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "checked", bool(check))

    @classmethod
    def unchecked(cls, z) -> "ZLabel":
        """Bypass the bilinear check (used for axis reference labels only)."""
        return cls(z, check=False)


def _sinhc(t: float) -> float:
    return math.sinh(t) / t if t != 0.0 else 1.0


def phase_to_z(p: SpherePhasePoint) -> ZLabel:
    """z = cosh|l| x/r + i (sinh|l|/|l|) (l cross x)/r; z.z = 1 exactly."""
    ln = p.l_norm
    real = math.cosh(ln) * p.x / p.r
    imag = _sinhc(ln) * np.cross(p.l, p.x) / p.r
    return ZLabel(real + 1j * imag)


def axis_reference_label(l, k: int) -> ZLabel:
    """Label built from the k-th coordinate axis with an arbitrary l.

    Used for relative position averages.  Since l is generally not tangent
    to the axis vector, the bilinear constraint fails by sinh^2|l| (l.n_k)^2
    / |l|^2; the label is therefore constructed unchecked and the caller is
    expected to treat the resulting state as a reference, not as a proper
    coherent state.
    """
    l = _vec(l)
    n = np.zeros(3)
    n[k] = 1.0
    ln = math.sqrt(l @ l)
    z = math.cosh(ln) * n + 1j * _sinhc(ln) * np.cross(l, n)
    return ZLabel.unchecked(z)


def default_j_cut(l_norm: float) -> int:
    """Coefficients peak near j = |l| and die off super-exponentially."""
    return max(math.ceil(2.0 * l_norm) + 20, 40)


def north_pole_state(j_cut: int) -> StateVector:
    """Rest state at the north pole: sum_j e^{-j(j+1)/2} sqrt(2j+1) |j, 0>."""
    if j_cut < 10:
        raise ValueError(f"j_cut={j_cut} too small for a faithful rest state")
    j, m = grid(j_cut)
    lm = np.where(m == 0, -0.5 * j * (j + 1) + 0.5 * np.log(2 * j + 1),
                  -math.inf)
    return StateVector(lm, np.zeros(lm.size), j_cut)


def coherent_closed_form(zl: ZLabel, j_cut: int) -> StateVector:
    """Amplitudes from the single-sum Gegenbauer expression.

    <j, m| state> combines e^{-j(j+1)/2} sqrt(2j+1), a factorial weight in
    |m|, the |m|-th power of (-sign(m) z1 + i z2)/2, and the Gegenbauer
    polynomial of degree j - |m| with parameter |m| + 1/2 at z3.  The whole
    (j, m) grid is assembled at once in the log domain, its polynomial
    values from one recurrence sweep over every parameter |m| + 1/2.
    """
    z1, z2, z3 = zl.z
    j, m = grid(j_cut)
    am = np.abs(m)
    lf = np.array([log_factorial(n) for n in range(2 * j_cut + 1)])
    g_lm, g_ph = gegenbauer_column(j_cut, np.arange(j_cut + 1) + 0.5, z3)
    lm = (-0.5 * j * (j + 1) + 0.5 * np.log(2 * j + 1) + lf[2 * am] - lf[am]
          + 0.5 * (lf[j - am] - lf[j + am]) + g_lm[j - am, am])
    ph = g_ph[j - am, am]
    for w, side in (((-z1 + 1j * z2) / 2.0, m > 0),
                    ((z1 + 1j * z2) / 2.0, m < 0)):
        # |m| arg(w) for a quadrant angle arg(w) is reduced mod 2 pi first,
        # so that real and imaginary amplitudes keep exact quadrant phases
        q = cmath.phase(w) / (0.5 * math.pi)
        w_ph = (am * q % 4 * (0.5 * math.pi) if q == round(q)
                else am * cmath.phase(w))
        lm = lm + np.where(side, _log_power(w, am), 0.0)
        ph = ph + np.where(side, w_ph, 0.0)
    return StateVector(lm, ph, j_cut)


def generation_params(zl: ZLabel) -> tuple[complex, complex, complex]:
    """(mu, nu, gamma) of the lowering/diagonal/raising generation product.

    Singular exactly at z3 = -1 (the antipodal coordinate singularity of the
    parametrization); callers must reject that configuration rather than
    pick an arbitrary branch around it.
    """
    z1, z2, z3 = zl.z
    if abs(1.0 + z3) < 1e-12:
        raise ConstraintError("generation parameters are singular at z3 = -1")
    mu = (z1 + 1j * z2) / (1.0 + z3)
    nu = (-z1 + 1j * z2) / (1.0 + z3)
    gamma = cmath.log((1.0 + z3) / 2.0)
    return mu, nu, gamma


def coherent_triple_sum(zl: ZLabel, j_cut: int) -> StateVector:
    """Raw expansion over (j, m, k); agrees with the closed form.

    Kept as an independent verification path: it shares no code with the
    Gegenbauer route beyond the log-domain carrier.  For each j the (m, k)
    terms form an array with one column per target m - k, each column summed
    around its largest term.
    """
    mu, nu, gamma = generation_params(zl)
    lf = np.array([log_factorial(n) for n in range(2 * j_cut + 1)])
    lm = np.full((j_cut + 1) ** 2, -math.inf)
    ph = np.zeros(lm.size)
    for j in range(j_cut + 1):
        m = np.arange(j + 1)[:, None]
        k = m - np.arange(-j, j + 1)[None, :]
        ok = k >= 0
        k = np.where(ok, k, 0)
        lg = (-0.5 * j * (j + 1) + 0.5 * math.log(2 * j + 1)
              + _log_power(nu, m) + m * gamma.real
              - lf[m] + lf[j + m] - lf[j - m]
              + _log_power(mu, k) - lf[k]
              + 0.5 * (lf[j - m + k] - lf[j + m - k]))
        lg = np.where(ok, lg, -math.inf)
        phase = m * (cmath.phase(nu) + gamma.imag) + k * cmath.phase(mu)
        top = np.nan_to_num(lg.max(axis=0), neginf=0.0)
        acc = rect_array(lg - top, phase).sum(axis=0)
        lm[j * j:(j + 1) ** 2], ph[j * j:(j + 1) ** 2] = polar_array(top, acc)
    return StateVector(lm, ph, j_cut)


def _log_power(w: complex, n: np.ndarray) -> np.ndarray:
    """n log|w|, with w^0 = 1 also for w = 0."""
    if w == 0:
        return np.where(n == 0, 0.0, -math.inf)
    return n * math.log(abs(w))


def _exp_ladder(which: str, coef: complex, lm: np.ndarray, ph: np.ndarray,
                j_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(coef * Jpm) as the ladder series, on the state arrays (lm, ph).

    Jpm is nilpotent inside each multiplet, so the series is an exact finite
    sum that terminates on its own by 2 j_cut + 1 applications.  No
    norm-based early cut is applied: a later diagonal stage can reweight
    amplitudes by factors as large as e^{|Re gamma| j_cut}, which would turn
    any "negligible now" judgement into a real error downstream.  Each term
    shifts the previous one by one step in m; the terms are added into a
    running sum rescaled to its largest log-magnitude per amplitude.
    """
    if coef == 0:
        return lm, ph
    (((_, dm, _), c),) = operator_table(which, j_cut).bands.items()
    with np.errstate(divide="ignore"):
        lc = np.log(c) + math.log(abs(coef))
    top, t_lm, t_ph = lm, lm, ph
    acc = np.where(lm > -math.inf, rect_array(np.zeros(lm.size), ph), 0)
    for k in range(1, 2 * j_cut + 3):
        # the flat index moves with m; the coefficient is 0 at m = +-j, so
        # nothing crosses into the next multiplet or wraps around
        t_lm = np.roll(t_lm + lc, dm) - math.log(k)
        if t_lm.max() == -math.inf:
            break
        t_ph = np.roll(t_ph, dm) + cmath.phase(coef)
        new_top = np.maximum(top, t_lm)
        shift = np.nan_to_num(new_top, neginf=0.0)
        acc = acc * np.exp(top - shift) + rect_array(t_lm - shift, t_ph)
        top = new_top
    else:
        raise RuntimeError("ladder series failed to terminate")
    return polar_array(top, acc)


def _ladder_product(s: StateVector, lower: complex, diag: complex,
                    upper: complex) -> StateVector:
    """exp(lower J-) exp(diag J3) exp(upper J+) |s>."""
    lm, ph = _exp_ladder("Jplus", upper, s.log_mag, s.phase, s.j_cut)
    _, m = grid(s.j_cut)
    lm, ph = _exp_ladder("Jminus", lower, lm + m * diag.real,
                         ph + m * diag.imag, s.j_cut)
    return StateVector(lm, ph, s.j_cut, s.lost_log)


def coherent_ladder_generated(zl: ZLabel, j_cut: int) -> StateVector:
    """Generate from the north-pole rest state by ladder exponentials."""
    mu, nu, gamma = generation_params(zl)
    return _ladder_product(north_pole_state(j_cut), mu, gamma, nu)


def apply_rotation(s: StateVector, axis, angle: float) -> StateVector:
    """Unitary rotation exp(-i angle axis.J) via its Gauss decomposition.

    The 2x2 spin matrix [[alpha, beta], [gamma, .]] of the rotation factors
    as exp(a J-) exp(b J3) exp(c J+) with a = gamma/alpha, b = 2 log alpha
    and c = beta/alpha, and the same parameters implement the rotation in
    every multiplet, which lets the ladder-series machinery be reused
    verbatim.  Fails when the matrix corner alpha vanishes (rotation by pi
    about an equatorial axis); tests avoid that measure-zero set.
    """
    n = _vec(axis)
    n = n / math.sqrt(n @ n)
    ch, sh = math.cos(angle / 2.0), math.sin(angle / 2.0)
    alpha = complex(ch, -n[2] * sh)
    beta = complex(-n[1] * sh, -n[0] * sh)
    gamma_e = complex(n[1] * sh, -n[0] * sh)
    if abs(alpha) < 1e-12:
        raise ValueError("rotation is singular for this decomposition")
    return _ladder_product(s, gamma_e / alpha, 2.0 * cmath.log(alpha),
                           beta / alpha)


def coherent_state(p: SpherePhasePoint,
                   j_cut: int | str = "auto") -> StateVector:
    """Closed-form coherent state, truncated at j_cut or, for 'auto', at
    default_j_cut(|l|).

    The squared norm in level j is e^{-j(j+1)} sinh((2j+1)|l|) up to a
    factor growing like sqrt(j): a Gaussian e^{-(j + 1/2 - |l|)^2} about its
    peak.  At the default cut the top two levels therefore hold about
    e^{-(j_cut - 1/2 - |l|)^2} <= e^{-870} (the least at |l| = 10) of it,
    below the e^-745 underflow of a double, so tail_fraction is exactly 0.
    """
    cut = default_j_cut(p.l_norm) if j_cut == "auto" else int(j_cut)
    return coherent_closed_form(phase_to_z(p), cut)


def eigen_residual(s: StateVector, zl: ZLabel) -> float:
    """max_i ||(Z_i - z_i)|s>|| on the truncation interior, |s> normalized."""
    return float(np.max([residual_norm(which, s, complex(zi), s.j_cut - 2)
                         for which, zi in zip(("Z1", "Z2", "Z3"), zl.z)]))


def _expect_pair(plus: str, minus: str, s: StateVector) -> tuple[float, float]:
    """Real (1st, 2nd) Cartesian components from a ladder pair of operators."""
    ep = expectation(plus, s)
    em = expectation(minus, s)
    herm = abs(em - ep.conjugate())
    scale = max(1.0, abs(ep))
    if herm > 1e-9 * scale:
        raise AssertionError(f"hermiticity residue {herm} too large")
    c1 = (ep + em) / 2.0
    c2 = (ep - em) / 2j
    return c1.real, c2.real


def _assert_real(v: complex) -> float:
    if abs(v.imag) > 1e-9 * max(1.0, abs(v)):
        raise AssertionError(f"expected a real expectation, got {v}")
    return v.real


def expect_J(s: StateVector) -> np.ndarray:
    """Componentwise <J>; tracks the classical l up to a 1/(2|l|) deficit."""
    j1, j2 = _expect_pair("Jplus", "Jminus", s)
    j3 = _assert_real(expectation("J3", s))
    return np.array([j1, j2, j3])


def expect_X(s: StateVector) -> np.ndarray:
    """Componentwise <X>/r, the position average on the unit sphere; tracks
    e^{-1/4} x/r at large |l|.  No amplitude depends on r."""
    x1, x2 = _expect_pair("Xplus", "Xminus", s)
    x3 = _assert_real(expectation("X3", s))
    return np.array([x1, x2, x3])


def relative_X(s: StateVector, p: SpherePhasePoint) -> np.ndarray:
    """<X_k> normalized by the same average in the k-axis reference state.

    The ratio cancels the universal e^{-1/4} contraction and lands near the
    classical x.  Components whose reference average is below 1e-6 of the
    radius are reported as NaN (undefined), never as a huge ratio.
    """
    num = expect_X(s)
    out = np.empty(3)
    for k in range(3):
        ref_label = axis_reference_label(p.l, k)
        ref_state = coherent_closed_form(ref_label, s.j_cut)
        den = expect_X(ref_state)[k]
        out[k] = num[k] / den if abs(den) >= 1e-6 else math.nan
    return out


@dataclass(frozen=True, slots=True)
class SphereUncertainty:
    var_j: float
    bound: float


def uncertainty_J(s: StateVector) -> SphereUncertainty:
    """(Delta J)^2 against its position-controlled lower bound.

    The bound is T/2 / (1 - T) with T = |<X>/r|^2, the spinor-trace form
    of the position average; it degenerates to 0 >= 0 on basis states.
    """
    ej = expect_J(s)
    jsq = _assert_real(expectation("Jsq", s))
    var_j = jsq - float(ej @ ej)
    ex = expect_X(s)
    t = float(ex @ ex)
    bound = 0.5 * t / (1.0 - t) if t < 1.0 else math.inf
    if not var_j >= bound - 1e-9 * max(1.0, abs(bound)):
        raise AssertionError(
            f"uncertainty bound violated: var={var_j} < bound={bound}")
    return SphereUncertainty(var_j, bound)


def max_amplitude_rel_diff(a: StateVector, b: StateVector) -> float:
    """max_k |a_k - b_k| over max_k |a_k|, computed in the log domain.

    The scale is taken from `a` (the reference construction); a global
    normalization mismatch between the two states shows up rather than
    cancelling.  Each difference is taken around the larger of its two
    amplitudes, as state_sum does.
    """
    if a.is_zero():
        raise ValueError("reference state has no amplitudes")
    d = state_sum([a, state_scale(b, -1.0)])
    return math.exp(d.log_mag.max() - a.log_mag.max())
