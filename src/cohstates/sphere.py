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

from .errors import ConstraintError
from .logdomain import peak_sum, polar_array, rect_array, wrap_phase
from .repspace import (_LADDER_PAIR, StateVector, _dense_branches,
                       _expect_stack, expectation, grid, residual_norm,
                       state_scale, state_sum)
from .specfun import gegenbauer_column, log_factorial_table

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
    "max_amplitude_rel_diff",
    "path_disagreement",
]

TANGENCY_TOL = 1e-9
RADIUS_REPAIR_LIMIT = 1e-2
LABEL_TOL = 1e-9
# The label's squared Hermitian size sum |z_i|^2 is cosh(2|l|), and the
# bilinear check squares components of size cosh|l|: both are finite doubles
# only up to |l| of about 355.2.
L_NORM_MAX = 355.0


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
            # in units of its largest component, l's square cannot underflow
            if (big := np.abs(l).max()) > 0:
                v = l / big
                tang = abs(v @ u) / math.sqrt(v @ v)
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

    The constraint is checked on deviation(), relative to the Hermitian size
    sum |z_i|^2: the bilinear sum cancels terms of order cosh^2|l| down to 1,
    so an absolute comparison would reject exact labels on roundoff alone
    once |l| exceeds about 8.  check=False builds a label off the quadric.
    """

    z: np.ndarray

    def __init__(self, z, *, check: bool = True):
        z = np.asarray(z, dtype=complex)
        if z.shape != (3,):
            raise ValueError(f"expected a complex 3-vector, got {z.shape}")
        object.__setattr__(self, "z", z)
        # an overflow leaves a NaN deviation, which fails the check
        if check and not (dev := self.deviation()) <= LABEL_TOL:
            raise ConstraintError(
                f"|z.z - 1| = {dev:.3g} of the label size exceeds {LABEL_TOL}")

    def _size_sq(self) -> float:
        return float(np.sum(np.abs(self.z) ** 2))

    def size(self) -> float:
        """sqrt(sum |z_i|^2), sqrt(cosh 2|l|) for a phase point's label."""
        return math.sqrt(self._size_sq())

    def deviation(self) -> float:
        """|z.z - 1| / max(1, sum |z_i|^2); NaN where a square overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return abs(self.z @ self.z - 1.0) / max(1.0, self._size_sq())


def _label_on(u: np.ndarray, l: np.ndarray) -> np.ndarray:
    """cosh|l| u + i (sinh|l|/|l|) (l cross u) for a unit vector u."""
    ln = math.sqrt(l @ l)
    sinhc = math.sinh(ln) / ln if ln != 0.0 else 1.0
    # l cross u as np.cross rounds it, without its cost on two 3-vectors
    (l1, l2, l3), (u1, u2, u3) = l.tolist(), u.tolist()
    cross = np.array([l2 * u3 - l3 * u2, l3 * u1 - l1 * u3, l1 * u2 - l2 * u1])
    return math.cosh(ln) * u + 1j * sinhc * cross


def phase_to_z(p: SpherePhasePoint) -> ZLabel:
    """z = cosh|l| x/r + i (sinh|l|/|l|) (l cross x)/r; z.z = 1 exactly.

    _label_on builds it on u = x/r, never forming cosh|l| x, so the label
    depends on x/r alone, bit for bit, at every radius."""
    return ZLabel(_label_on(p.x / p.r, p.l))


def axis_reference_label(l, k: int) -> ZLabel:
    """Label built by _label_on from the k-th coordinate axis e_k and an
    arbitrary l, for relative position averages.

    Since l is generally not tangent to e_k, the bilinear constraint fails
    by sinh^2|l| (l.e_k)^2 / |l|^2; the label is therefore built with
    check=False, and the caller is expected to treat the resulting state as
    a reference, not as a proper coherent state.

    Its size, sum |z_i|^2 = cosh^2|l| + sinh^2|l| sin^2(angle(l, e_k)), is
    at most cosh 2|l|, the size of a phase point's own label.  So the level
    norms of its closed-form state fall off as a Gaussian about |l|, as the
    coherent state's do, and relative_X builds it only up to
    min(j_cut, ceil(|l|) + 10).
    """
    return ZLabel(_label_on(np.eye(3)[k], _vec(l)), check=False)


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
    lf = log_factorial_table(2 * j_cut)
    g_lm, g_ph = gegenbauer_column(j_cut, z3)
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
    Gegenbauer route beyond the log-domain carrier.  Term (j, m, k) lands on
    the target t = m - k, and its factor (j - t)!/(j + t)! depends on t
    only, while mu^k / k! and its phase depend on k = m - t only.  So two
    tables over m in [0, j_cut] and t in [-j_cut, j_cut] are built once:
    the log of mu^k / k! (-inf for k < 0) and the unit phase factor of
    nu^m e^{m gamma} mu^k.  Level j reads the slice m <= j, |t| <= j of
    both, adds its m- and t-dependent logs, and sums each column t around
    its largest term.
    """
    mu, nu, gamma = generation_params(zl)
    lf = log_factorial_table(2 * j_cut)
    m = np.arange(j_cut + 1)
    k = m[:, None] - np.arange(-j_cut, j_cut + 1)[None, :]
    ok = k >= 0
    k = np.where(ok, k, 0)
    log_mu = np.where(ok, _log_power(mu, k) - lf[k], -math.inf)
    unit_m = rect_array(0.0, wrap_phase(m * (cmath.phase(nu) + gamma.imag)))
    unit_k = rect_array(0.0, wrap_phase(np.arange(2 * j_cut + 1)
                                        * cmath.phase(mu)))
    unit = unit_m[:, None] * unit_k[k]
    log_nu = _log_power(nu, m) + m * gamma.real - lf[m]
    levels = []
    for j in range(j_cut + 1):
        rows, cols = slice(j + 1), slice(j_cut - j, j_cut + j + 1)
        t = np.arange(-j, j + 1)
        m_part = (-0.5 * j * (j + 1) + 0.5 * math.log(2 * j + 1)
                  + log_nu[rows] + lf[j + m[rows]] - lf[j - m[rows]])
        t_part = 0.5 * (lf[j - t] - lf[j + t])
        lg = log_mu[rows, cols] + m_part[:, None] + t_part
        levels.append(peak_sum(lg, unit[rows, cols]))
    top, acc = map(np.concatenate, zip(*levels))
    return StateVector(*polar_array(top, acc), j_cut)


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
    shifts the previous one by one step in m; it is carried as a log scale
    and a complex unit mantissa, which each step multiplies by
    e^{i arg coef}, exactly 1, i, -1 or -i for a quadrant coef, so quadrant
    phases stay exact.  The terms are added into a running sum rescaled to
    its largest log-magnitude per amplitude; it is not peak_sum, so that it
    stays bit for bit the dense loop of the tests and stacks nothing per
    step.  Only the live terms are carried, by flat index: the term from
    |j, m> reaches m = dm j after j - dm m steps and then meets a zero
    coefficient, so nothing crosses into the next multiplet.  With the terms
    sorted by that life, longest first, the live ones at every step are a
    prefix, and the loop ends with the longest life.
    """
    if coef == 0:
        return lm, ph
    ((_, dm, c, _),) = _dense_branches(which, *grid(j_cut))
    with np.errstate(divide="ignore"):
        lc = np.log(c()) + math.log(abs(coef))
    turn = complex(coef) / abs(coef)    # exact on the axes, unlike numpy's
    top, unit = lm.copy(), rect_array(0.0, ph)
    acc = np.where(lm > -math.inf, unit, 0)
    j, m = grid(j_cut)
    idx = np.flatnonzero(lm > -math.inf)
    life = (j - dm * m)[idx]
    idx = idx[np.argsort(-life)]
    # live[k]: the number of terms that take a k-th step
    live = np.cumsum(np.bincount(life)[::-1])[::-1]
    t_lm, t_u = lm[idx], unit[idx]
    for k in range(1, live.size):
        n = live[k]
        t_lm = t_lm[:n] + lc[idx[:n]] - math.log(k)
        t_u = t_u[:n] * turn
        idx = idx[:n] + dm
        # every live term is finite, so its target's new top is too
        old = top[idx]
        new_top = np.maximum(old, t_lm)
        acc[idx] = (acc[idx] * np.exp(old - new_top)
                    + np.exp(t_lm - new_top) * t_u)
        top[idx] = new_top
    return polar_array(top, acc)


def _ladder_product(s: StateVector, lower: complex, diag: complex,
                    upper: complex) -> StateVector:
    """exp(lower J-) exp(diag J3) exp(upper J+) |s>."""
    lm, ph = _exp_ladder("Jplus", upper, s.log_mag, s.phase, s.j_cut)
    _, m = grid(s.j_cut)
    lm, ph = _exp_ladder("Jminus", lower, lm + m * diag.real,
                         ph + m * diag.imag, s.j_cut)
    return StateVector(lm, ph, s.j_cut)


def coherent_ladder_generated(zl: ZLabel, j_cut: int) -> StateVector:
    """Generate from the north-pole rest state by ladder exponentials."""
    mu, nu, gamma = generation_params(zl)
    return _ladder_product(north_pole_state(j_cut), mu, gamma, nu)


def coherent_state(p: SpherePhasePoint,
                   j_cut: int | None = None) -> StateVector:
    """Closed-form coherent state, truncated at j_cut or, for None, at
    default_j_cut(|l|).

    The squared norm in level j is e^{-j(j+1)} sinh((2j+1)|l|) up to a
    factor growing like sqrt(j): a Gaussian e^{-(j + 1/2 - |l|)^2} about its
    peak.  At the default cut the top two levels therefore hold about
    e^{-(j_cut - 1/2 - |l|)^2} <= e^{-870} (the least at |l| = 10) of it,
    below the e^-745 underflow of a double, so tail_fraction is exactly 0.
    """
    cut = default_j_cut(p.l_norm) if j_cut is None else int(j_cut)
    return coherent_closed_form(phase_to_z(p), cut)


def eigen_residual(s: StateVector, zl: ZLabel) -> float:
    """max_i ||(Z_i - z_i)|s>|| over j <= j_cut - 2, for |s> normalized."""
    return float(np.max([residual_norm(which, s, complex(zi))
                         for which, zi in zip(("Z1", "Z2", "Z3"), zl.z)]))


def _assert_real(v: complex) -> float:
    if abs(v.imag) > 1e-9 * max(1.0, abs(v)):
        raise AssertionError(f"expected a real expectation, got {v}")
    return v.real


def _expect_vector(name: str, s: StateVector) -> np.ndarray:
    """Real Cartesian <A> of the vector operator A = J or X: A1 and A2 from
    the ladder pair A+, A-, which must be each other's adjoint, and A3."""
    ep, em, a3 = (expectation(name + k, s) for k in ("plus", "minus", "3"))
    herm = abs(em - ep.conjugate())
    if herm > 1e-9 * max(1.0, abs(ep)):
        raise AssertionError(f"hermiticity residue {herm} too large")
    a1, a2 = ((fp * ep + fm * em).real for fp, fm in _LADDER_PAIR.values())
    return np.array([a1, a2, _assert_real(a3)])


def expect_J(s: StateVector) -> np.ndarray:
    """Componentwise <J>; tracks the classical l up to a 1/(2|l|) deficit."""
    return _expect_vector("J", s)


def expect_X(s: StateVector) -> np.ndarray:
    """Componentwise <X>/r, the position average on the unit sphere; tracks
    e^{-1/4} x/r at large |l|.  No amplitude depends on r."""
    return _expect_vector("X", s)


def relative_X(s: StateVector, p: SpherePhasePoint) -> np.ndarray:
    """<X_k> normalized by the same average in the k-axis reference state.

    The ratio cancels the universal e^{-1/4} contraction and lands near the
    classical x.  Components whose reference average is below 1e-6 of the
    radius are reported as NaN (undefined), never as a huge ratio.

    The references are built at cut min(s.j_cut, ceil(|l|) + 10): no
    reference label is larger than the state's (axis_reference_label), so
    the levels above that cut hold below 1e-56 of a full-cut reference's
    squared norm (sampled over |l| from 0 to 355, most at |l| = 0), and the
    ratio moves by ~1e-14 of itself at most.  A starved explicit cut keeps
    s.j_cut.  Each X label is averaged in one call for all three, its
    branches walked once.
    """
    ref_cut = min(s.j_cut, math.ceil(p.l_norm) + 10)
    refs = [coherent_closed_form(axis_reference_label(p.l, k), ref_cut)
            for k in range(3)]
    for which in ("Xplus", "Xminus", "X3"):
        _expect_stack(refs, which)
    dens = [expect_X(ref)[k] for k, ref in enumerate(refs)]
    return np.array([a / d if abs(d) >= 1e-6 else math.nan
                     for a, d in zip(expect_X(s), dens)])


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
    amplitudes, as state_sum does.  A ratio past the double range is inf.
    """
    top = a.log_mag.max()
    if top == -math.inf:
        raise ValueError("reference state has no amplitudes")
    d = state_sum([a, state_scale(b, -1.0)])
    try:
        return math.exp(d.log_mag.max() - top)
    except OverflowError:
        return math.inf


def path_disagreement(s: StateVector, zl: ZLabel) -> float:
    """The worst max_amplitude_rel_diff against s of the triple sum and of
    the ladder route, each built from zl at the cut of s; inf where their
    parametrization is singular (z3 = -1) or their difference overflows."""
    try:
        return max(max_amplitude_rel_diff(s, route(zl, s.j_cut)) for route
                   in (coherent_triple_sum, coherent_ladder_generated))
    except ConstraintError:
        return math.inf
