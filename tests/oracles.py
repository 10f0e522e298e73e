"""Reference implementations kept for the tests.

The library applies operators as shifted slices of a padded (j, m) array,
evaluates identities on banded tables and builds its states on dense
arrays.  The per-amplitude references here are its earlier loops, written
from the scalar matrix elements on one plain state type, a dict
{(j, m): value}, a spinor being a pair (up, down) of them: the J, X and Z
actions, the spinor operators, the J^2-function route, the identity sweeps
of `cohstates verify`, and the closed-form, triple-sum and ladder
constructions.  The loops are generic in the number type.  They run on
Python complex where every value of a case is a normal double; a
normalized quantity is read off the state scaled to its peak or to unit
norm, where what falls below the smallest double drops out at a relative
cost under 1e-300.  The three constructions at their default cuts and the
Z image at cut 720 run on mpmath.mpc at `DPS` digits: their values leave
the double range (e^{-j(j+1)/2} underflows near j = 38, and Z's weight
e^{j} overflows past j = 709).  Z's weights and the J^2-function scalars
stay logs until they meet an amplitude, in its number type.  `to_dict` and
`from_dict` convert at the boundary, from a StateVector and back.

Then come the array references: inner products, the projection onto
j <= j_max, the relative residual, and the banded-table kernel with the
shifted slices' references `table_expectation` and `table_residual_norm`;
the ladder's loop over every array entry, which the library must match bit
for bit; the Fraction-sum series oracles of `cohstates verify`; the exact
moments of a sphere state as level series; the report's relative position
with its axis references at full cut; and the CLI's first report writer.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np

from cohstates import __version__, checks, specfun, sphere
from cohstates.checks import CheckResult, _Worst
from cohstates.logdomain import polar_array, rect_array, wrap_phase
from cohstates.repspace import (BandTable, StateVector, grid, operator_table,
                                state_scale, state_sum)
from cohstates.sphere import generation_params, north_pole_state
from cohstates.spinor import _entry

_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
_JN = ("J1", "J2", "J3")
_XN = ("X1", "X2", "X3")
_ZN = ("Z1", "Z2", "Z3")

DPS = 30    # decimal digits of the mpmath references


# -- the boundary: log-polar pairs and states to values and dicts -------------

# rect_array's exact units at the quadrant phases of (-pi, pi]
_QUADRANT = {0.0: 1, math.pi: -1, 0.5 * math.pi: 1j, -0.5 * math.pi: -1j}


def value(pair) -> complex:
    """The complex value of a (log-magnitude, phase) pair."""
    return complex(rect_array(*pair))


def mp_value(log_mag: float, phase: float) -> mpmath.mpc:
    """exp(log_mag) e^{i phase} in mpmath at its working precision, the
    quadrant phases exactly 1, -1 and +-i, as rect_array has them."""
    unit = _QUADRANT.get(phase)
    unit = (mpmath.expj(mpmath.mpf(phase)) if unit is None
            else mpmath.mpc(unit))
    return mpmath.exp(mpmath.mpf(log_mag)) * unit


def mp_label(p) -> list:
    """z = cosh|l| x + i (sinh|l|/|l|) l cross x from the double inputs."""
    x = [mpmath.mpf(float(c)) for c in p.x]
    l = [mpmath.mpf(float(c)) for c in p.l]
    ln = mpmath.sqrt(sum(c * c for c in l))
    sinhc = mpmath.sinh(ln) / ln if ln else mpmath.mpf(1)
    cross = [l[1] * x[2] - l[2] * x[1], l[2] * x[0] - l[0] * x[2],
             l[0] * x[1] - l[1] * x[0]]
    return [mpmath.cosh(ln) * x[i] + 1j * sinhc * cross[i] for i in range(3)]


def to_dict(s: StateVector, shift: float = 0.0, mp: bool = False) -> dict:
    """{(j, m): e^{-shift} amplitude} over the nonzero amplitudes of s, as
    Python complex, where what underflows drops out, or with mp as
    mpmath.mpc at the working precision."""
    j, m, lm, ph = s.nonzero()
    if mp:
        vals = [mp_value(a - shift, p)
                for a, p in zip(lm.tolist(), ph.tolist())]
    else:
        vals = rect_array(lm - shift, ph).tolist()
    return {k: v for k, v in zip(zip(j.tolist(), m.tolist()), vals) if v}


def _log_polar(v) -> tuple:
    """(log|v|, arg v) as doubles; an mpmath value is scaled into the double
    range by a power of two 2^e first, and e ln 2 added back."""
    lm = 0.0
    if isinstance(v, mpmath.mpc):
        e = mpmath.mag(v)
        lm = float(e * mpmath.ln2)
        v = complex(float(mpmath.ldexp(v.real, -e)),
                    float(mpmath.ldexp(v.imag, -e)))
    return lm + math.log(abs(v)), math.atan2(v.imag, v.real)


def from_dict(d: dict, j_cut: int) -> StateVector:
    """The state d at cut j_cut; a zero value is an exact zero."""
    lm = np.full((j_cut + 1) ** 2, -math.inf)
    ph = np.zeros(lm.size)
    for (j, m), v in d.items():
        if not (0 <= j <= j_cut and abs(m) <= j):
            raise ValueError(f"invalid basis index (j={j}, m={m})")
        if v:
            lm[j * j + j + m], ph[j * j + j + m] = _log_polar(v)
    return StateVector(lm, ph, j_cut)


# -- inner products, projections and residuals on the array states -----------

def inner_log(a: StateVector, b: StateVector) -> tuple[float, float]:
    """<a|b> (conjugation on a) as a (log-magnitude, phase) pair."""
    n = min(a.log_mag.size, b.log_mag.size)
    lg = a.log_mag[:n] + b.log_mag[:n]
    top = float(np.nan_to_num(lg.max(), neginf=0.0))
    acc = np.sum(rect_array(lg - top, wrap_phase(b.phase[:n] - a.phase[:n])))
    lm, ph = polar_array(top, acc)
    return float(lm), float(ph)


def inner(a: StateVector, b: StateVector) -> complex:
    return complex(rect_array(*inner_log(a, b)))


def restricted(s: StateVector, j_max: int) -> StateVector:
    """s with every amplitude above j = j_max dropped (a plain projection)."""
    lm = s.log_mag.copy()
    lm[max(j_max + 1, 0) ** 2:] = -math.inf
    return replace(s, log_mag=lm)


def relative_residual(lhs: StateVector, rhs: StateVector,
                      *scales: StateVector) -> float:
    """Norm of (lhs - rhs) relative to the largest participating scale.

    Identities built from exponentially weighted operators can have
    intermediate norms as large as e^{2 j_cut}; the honest error measure for
    "lhs equals rhs" is the difference normalized by the biggest operand.
    """
    diff = state_sum([lhs, state_scale(rhs, complex(-1.0))])
    ref = max([lhs.log_norm_sq(), rhs.log_norm_sq()]
              + [x.log_norm_sq() for x in scales])
    d = diff.log_norm_sq()
    return 0.0 if d == -math.inf else math.exp(0.5 * (d - ref))


def _table_image(t: BandTable, lm: np.ndarray, ph: np.ndarray) -> tuple:
    """The one-component table's image of the arrays (lm, ph), as (top, acc):
    the image is e^{top} acc, each amplitude summed around its largest term,
    and terms raised past j_cut are dropped."""
    top = np.full(lm.size, -math.inf)
    terms = []
    j, m = grid(t.j_cut)
    for (dj, dm, _, _), coef in t.bands.items():
        jt, mt = j + dj, m + dm
        ok = (jt >= 0) & (jt <= t.j_cut) & (np.abs(mt) <= jt)
        src = np.flatnonzero(ok & (coef != 0) & (lm > -math.inf))
        tgt = (jt * (jt + 1) + mt)[src]
        c, mag = coef[src], np.abs(coef[src])
        lg = lm[src] + np.log(mag)
        # each band maps distinct sources to distinct targets
        top[tgt] = np.maximum(top[tgt], lg)
        # unit phases by real division: a complex division by a subnormal
        # magnitude overflows
        terms.append((tgt, lg, ph[src], c.real / mag + 1j * (c.imag / mag)))
    acc = np.zeros(lm.size, dtype=complex)
    for tgt, lg, phase, unit in terms:
        acc[tgt] += unit * rect_array(lg - top[tgt], phase)
    return top, acc


def apply_table(t: BandTable, s: StateVector) -> StateVector:
    """The one-component table's operator applied to the state s."""
    return StateVector(*polar_array(*_table_image(t, s.log_mag, s.phase)),
                       t.j_cut)


def _table_unit_image(which: str, s: StateVector) -> tuple:
    """The log-magnitudes lm of s scaled to unit norm, and the operator
    table's image e^{top} acc of (lm, s.phase), as (lm, top, acc)."""
    if s.log_norm_sq() == -math.inf:
        raise ValueError("expectation value or residual of the zero state")
    lm = s.log_mag - 0.5 * s.log_norm_sq()
    return (lm, *_table_image(operator_table(which, s.j_cut), lm, s.phase))


def table_expectation(which: str, s: StateVector) -> complex:
    """<s|O|s> / <s|s> through the operator's banded table: the library's
    expectation before it read the state as shifted slices."""
    lm, top, acc = _table_unit_image(which, s)
    t = max(top.max(), 0.0)    # at least the state's own scale, so finite
    a = rect_array(lm, s.phase)
    v = acc * np.exp(top - t)
    return complex(np.vdot(a, v) / np.vdot(a, a).real) * math.exp(t)


def table_residual_norm(which: str, s: StateVector, value: complex,
                        j_max: int) -> float:
    """||(O - value)|s>|| / ||s|| over the levels j <= j_max, through the
    operator's banded table."""
    lm, top, acc = _table_unit_image(which, s)
    value = complex(value)
    lv = math.log(abs(value)) if value != 0 else -math.inf
    t = max(top.max(), lm.max() + lv)
    if t == -math.inf:
        return 0.0
    d = (acc * np.exp(top - t)
         - value * rect_array(lm - t, s.phase))[:max(j_max + 1, 0) ** 2]
    sq = float(np.vdot(d, d).real)
    return 0.0 if sq == 0 else math.exp(t + 0.5 * math.log(sq))


def apply_spinor_table(t: BandTable, sp: tuple) -> tuple:
    """A two-component table applied to the spinor sp, a pair (up, down) of
    dict states, one block at a time.

    Output component `row` is the sum over `col` of block (row, col) applied
    to component `col`.
    """
    comps = [from_dict(c, t.j_cut) for c in sp]
    return tuple(to_dict(state_sum([apply_table(_entry(t, row, col),
                                                comps[col])
                                    for col in (0, 1)])) for row in (0, 1))


# -- the dict states: sums, inner products and residuals ---------------------
#
# A state is a dict {(j, m): value}, a spinor a pair (up, down) of them; the
# functions below take either and act on a spinor component by component.

def _add(out: dict, key, v):
    out[key] = out.get(key, 0) + v


def combine(*terms):
    """The sum of c s over the (c, s) pairs."""
    if isinstance(terms[0][1], tuple):
        return tuple(combine(*((c, s[i]) for c, s in terms)) for i in (0, 1))
    out: dict = {}
    for c, s in terms:
        for key, v in s.items():
            _add(out, key, c * v)
    return out


def dict_dot(a, b):
    """<a|b>, conjugation on a."""
    if isinstance(a, tuple):
        return dict_dot(a[0], b[0]) + dict_dot(a[1], b[1])
    return sum(v.conjugate() * b[k] for k, v in a.items() if k in b)


def dict_norm_sq(s, j_max: float = math.inf):
    """The squared norm of s over the levels j <= j_max."""
    if isinstance(s, tuple):
        return dict_norm_sq(s[0], j_max) + dict_norm_sq(s[1], j_max)
    return sum(abs(v) ** 2 for (j, _), v in s.items() if j <= j_max)


def dict_residual(lhs, rhs, *scales, j_max: float = math.inf) -> float:
    """relative_residual on dict states: the norm of lhs - rhs over the
    levels j <= j_max relative to the largest participating norm, lhs and
    rhs over those levels, the scales whole."""
    d = dict_norm_sq(combine((1, lhs), (-1, rhs)), j_max)
    ref = max([dict_norm_sq(lhs, j_max), dict_norm_sq(rhs, j_max)]
              + [dict_norm_sq(x) for x in scales])
    return 0.0 if d == 0 else float((d / ref) ** 0.5)


def _times_exp(v, lw: float):
    """v e^{lw}, the weight formed in v's number type: a weight past the
    double range meets an mpmath amplitude, not a float."""
    return v * (mpmath.exp(lw) if isinstance(v, mpmath.mpc) else math.exp(lw))


# -- the operator actions, one amplitude at a time ---------------------------

def jplus_coef(j: int, m: int) -> float:
    return math.sqrt((j - m) * (j + m + 1))


def jminus_coef(j: int, m: int) -> float:
    return math.sqrt((j + m) * (j - m + 1))


def apply_J(which: str, s: dict) -> dict:
    """Exact action of J3, J+/-, or J^2 (ladder shifts never change j)."""
    out = {}
    for (j, m), a in s.items():
        if which == "J3":
            key, c = (j, m), m
        elif which == "Jsq":
            key, c = (j, m), j * (j + 1)
        elif which == "Jplus":
            key, c = (j, m + 1), jplus_coef(j, m)
        elif which == "Jminus":
            key, c = (j, m - 1), jminus_coef(j, m)
        else:
            raise ValueError(f"unknown J operator {which!r}")
        if c:
            out[key] = a * c
    return out


def x_terms(which: str, j: int, m: int, r: float):
    """Matrix elements of the position operators at zero twist.

    Each is tridiagonal in j with no diagonal term (the twist-proportional
    middle term vanishes identically), so the action strictly changes j.
    The j -> j-1 coefficients vanish for every state they could act on at
    j = 0, hence the plain j >= 1 guard.
    """
    up = math.sqrt((2 * j + 1) * (2 * j + 3))
    if which == "X3":
        yield (j + 1, m), r * math.sqrt((j - m + 1) * (j + m + 1)) / up
        if j >= 1:
            dn = math.sqrt((2 * j - 1) * (2 * j + 1))
            yield (j - 1, m), r * math.sqrt((j - m) * (j + m)) / dn
    elif which == "Xplus":
        yield (j + 1, m + 1), -r * math.sqrt((j + m + 1) * (j + m + 2)) / up
        if j >= 1:
            dn = math.sqrt((2 * j - 1) * (2 * j + 1))
            yield (j - 1, m + 1), r * math.sqrt((j - m - 1) * (j - m)) / dn
    elif which == "Xminus":
        yield (j + 1, m - 1), r * math.sqrt((j - m + 1) * (j - m + 2)) / up
        if j >= 1:
            dn = math.sqrt((2 * j - 1) * (2 * j + 1))
            yield (j - 1, m - 1), -r * math.sqrt((j + m - 1) * (j + m)) / dn
    else:
        raise ValueError(f"unknown X operator {which!r}")


def apply_X(which: str, s: dict, j_cut: int) -> dict:
    """Position-operator action at unit radius, dropping j > j_cut; X1, X2
    are the Hermitian ladder combinations."""
    if which == "X1":
        return combine((0.5, apply_X("Xplus", s, j_cut)),
                       (0.5, apply_X("Xminus", s, j_cut)))
    if which == "X2":
        return combine((-0.5j, apply_X("Xplus", s, j_cut)),
                       (0.5j, apply_X("Xminus", s, j_cut)))
    out: dict = {}
    for (j, m), a in s.items():
        for key, coef in x_terms(which, j, m, 1.0):
            if coef != 0.0 and key[0] <= j_cut:
                _add(out, key, a * coef)
    return out


def z_terms(which: str, j: int, m: int):
    """Coherent-state generator matrix elements, as (target, coef,
    log_weight) for the element coef e^{log_weight}.

    Same selection rules as X/r but with the raising branch weighted by
    e^{-j-1} and the lowering branch by e^{j}; the weights stay logs until
    they meet an amplitude, so arbitrarily large j never overflows.
    """
    up = -(j + 1.0)          # log weight of the j -> j+1 branch
    dn = float(j)            # log weight of the j -> j-1 branch
    nup = math.sqrt((2 * j + 1) * (2 * j + 3))
    ndn = math.sqrt((2 * j - 1) * (2 * j + 1)) if j >= 1 else 1.0
    if which == "Z3":
        plan = [((j - m + 1) * (j + m + 1), 1.0, up, nup, (j + 1, m)),
                ((j - m) * (j + m),         1.0, dn, ndn, (j - 1, m))]
    elif which == "Z1":
        plan = [((j + m + 1) * (j + m + 2), -0.5, up, nup, (j + 1, m + 1)),
                ((j - m - 1) * (j - m),     0.5,  dn, ndn, (j - 1, m + 1)),
                ((j - m + 1) * (j - m + 2), 0.5,  up, nup, (j + 1, m - 1)),
                ((j + m - 1) * (j + m),     -0.5, dn, ndn, (j - 1, m - 1))]
    elif which == "Z2":
        plan = [((j + m + 1) * (j + m + 2), 0.5j,  up, nup, (j + 1, m + 1)),
                ((j - m - 1) * (j - m),     -0.5j, dn, ndn, (j - 1, m + 1)),
                ((j - m + 1) * (j - m + 2), 0.5j,  up, nup, (j + 1, m - 1)),
                ((j + m - 1) * (j + m),     -0.5j, dn, ndn, (j - 1, m - 1))]
    else:
        raise ValueError(f"unknown Z operator {which!r}")
    for sq, unit, lw, norm, (jj, mm) in plan:
        if jj >= 0 and abs(mm) <= jj and sq > 0:
            yield (jj, mm), unit * math.sqrt(sq) / norm, lw


def apply_Z(which: str, s: dict, j_cut: int) -> dict:
    """Coherent-state generator action from its explicit matrix elements,
    dropping j > j_cut."""
    out: dict = {}
    for (j, m), a in s.items():
        for key, coef, lw in z_terms(which, j, m):
            if key[0] <= j_cut:
                _add(out, key, _times_exp(a * coef, lw))
    return out


_J_LABELS = {"J3", "Jplus", "Jminus", "Jsq"}
_X_LABELS = {"X1", "X2", "X3", "Xplus", "Xminus"}


def apply_operator(which: str, s: dict, j_cut: int) -> dict:
    if which in _J_LABELS:
        return apply_J(which, s)
    if which in _X_LABELS:
        return apply_X(which, s, j_cut)
    return apply_Z(which, s, j_cut)


def sparse_apply(which: str, s: StateVector, mp: bool = False) -> StateVector:
    """The operator applied to the state s one amplitude at a time, on
    mpmath.mpc values with mp."""
    with mpmath.workdps(DPS):
        return from_dict(apply_operator(which, to_dict(s, mp=mp), s.j_cut),
                         s.j_cut)


def sparse_expectation(which: str, s: StateVector) -> complex:
    """<s|O|s> / <s|s> through the per-amplitude action, on s scaled to its
    largest amplitude."""
    d = to_dict(s, float(s.log_mag.max()))
    return dict_dot(d, apply_operator(which, d, s.j_cut)) / dict_dot(d, d)


def sparse_residual_norm(which: str, s: StateVector, value: complex,
                         j_max: int, mp: bool = False) -> float:
    """||(O - value)|s>|| / ||s|| over the levels j <= j_max through the
    per-amplitude action, on s scaled to unit norm, on mpmath.mpc values
    with mp."""
    with mpmath.workdps(DPS):
        d = to_dict(s, 0.5 * s.log_norm_sq(), mp)
        diff = combine((1, apply_operator(which, d, s.j_cut)), (-value, d))
        return float(dict_norm_sq(diff, j_max) ** 0.5)


# -- Cartesian components and the J^2-function route ------------------------

def cart(which: str, s: dict, j_cut: int) -> dict:
    if not which.startswith("J"):
        return apply_X(which, s, j_cut)
    if which == "J3":
        return apply_J("J3", s)
    p, m = apply_J("Jplus", s), apply_J("Jminus", s)
    if which == "J1":
        return combine((0.5, p), (0.5, m))
    return combine((-0.5j, p), (0.5j, m))


def jsq_scalar_logs(j: int) -> tuple[float, float]:
    sv = 2.0 * j + 1.0
    es = math.exp(-sv)
    logf = 0.5 + sv / 2 - math.log(2.0) + math.log((1 - es) / sv + 1 + es)
    logg = 0.5 + sv / 2 + math.log1p(-es) - math.log(sv)
    return logf, logg


def diag_mul_logs(s: dict, log_by_j) -> dict:
    return {k: _times_exp(a, log_by_j(k[0])) for k, a in s.items()}


def apply_Z_vector_form(which: str, s: dict, j_cut: int) -> dict:
    idx = _ZN.index(which)
    t1 = diag_mul_logs(apply_X(_XN[idx], s, j_cut),
                       lambda j: jsq_scalar_logs(j)[0])
    jn, kn = (idx + 1) % 3, (idx + 2) % 3
    cross = combine(
        (1, cart(_JN[jn], apply_X(_XN[kn], s, j_cut), j_cut)),
        (-1, cart(_JN[kn], apply_X(_XN[jn], s, j_cut), j_cut)))
    t2 = diag_mul_logs(cross, lambda j: jsq_scalar_logs(j)[1])
    return combine((1, t1), (1j, t2))


# -- spinor operators --------------------------------------------------------

def spinor_basis(j: int, m: int, component: str = "up") -> tuple:
    e = {(j, m): 1 + 0j}
    return (e, {}) if component == "up" else ({}, e)


def apply_V(sp: tuple, j_cut: int) -> tuple:
    """V = sigma.X / r, with X at unit radius."""
    up, down = sp
    return (combine((1, apply_X("X3", up, j_cut)),
                    (1, apply_X("Xminus", down, j_cut))),
            combine((1, apply_X("Xplus", up, j_cut)),
                    (-1, apply_X("X3", down, j_cut))))


def apply_sigma_dot_J(sp: tuple) -> tuple:
    up, down = sp
    return (combine((1, apply_J("J3", up)), (1, apply_J("Jminus", down))),
            combine((1, apply_J("Jplus", up)), (-1, apply_J("J3", down))))


def apply_K(sp: tuple) -> tuple:
    return combine((-1, apply_sigma_dot_J(sp)), (-1, sp))


def expk_entries(j: int, mu: int) -> tuple:
    """(uu, ud, dd) of e^{-K}'s block at label mu of level j, as doubles,
    finite up to j = 708."""
    den = 2 * j + 1

    def entry(w_plus: float, w_minus: float) -> float:
        return (w_plus / den * math.exp(j + 1.0)
                + w_minus / den * math.exp(-float(j)))

    c = math.sqrt((j - mu) * (j + mu + 1))
    return entry(j + 1 + mu, j - mu), entry(c, -c), entry(j - mu, j + 1 + mu)


def apply_exp_minus_K(sp: tuple) -> tuple:
    up, down = {}, {}
    for (j, m), a in sp[0].items():
        e_uu, e_ud, _ = expk_entries(j, m)
        _add(up, (j, m), a * e_uu)
        if m + 1 <= j:
            _add(down, (j, m + 1), a * e_ud)
    for (j, m), a in sp[1].items():
        mu = m - 1
        _, e_ud, e_dd = expk_entries(j, mu)
        _add(down, (j, m), a * e_dd)
        if mu >= -j:
            _add(up, (j, mu), a * e_ud)
    return up, down


def apply_Z_matrix(sp: tuple, j_cut: int) -> tuple:
    return apply_exp_minus_K(apply_V(sp, j_cut))


def z_columns(phi: dict, j_cut: int) -> tuple:
    """The columns ((a, c), (b, d)) of e^{-K} V applied to phi: the spinors
    (phi, 0) and (0, phi) mapped."""
    return (apply_Z_matrix((phi, {}), j_cut),
            apply_Z_matrix(({}, phi), j_cut))


def apply_Z_from_matrix(which: str, columns: tuple) -> dict:
    """Z_i from the 2x2 generator matrix [[a, b], [c, d]] of z_columns."""
    (a, c), (b, d) = columns
    if which == "Z1":
        return combine((0.5, b), (0.5, c))
    if which == "Z2":
        return combine((0.5j, b), (-0.5j, c))
    return combine((0.5, a), (-0.5, d))


# -- the identity sweeps, one basis vector at a time -------------------------

def _interior_vectors(j_cut: int):
    for j in range(0, j_cut - 1):
        for m in range(-j, j + 1):
            yield {(j, m): 1 + 0j}


def _spinor_vectors(j_cut: int):
    for j in range(0, j_cut - 1):
        for m in range(-j, j + 1):
            for comp in ("up", "down"):
                yield spinor_basis(j, m, comp)


def e3_commutators(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0

    def c(which, s):
        return cart(which, s, j_cut)

    for s in _interior_vectors(j_cut):
        for i, k in itertools.combinations(range(3), 2):
            for fam_a, fam_b, fam_rhs in ((_JN, _JN, _JN), (_JN, _XN, _XN)):
                ab = c(fam_a[i], c(fam_b[k], s))
                lhs = combine((1, ab), (-1, c(fam_b[k], c(fam_a[i], s))))
                l = 3 - i - k
                rhs = combine((1j * _EPS[(i, k, l)], c(fam_rhs[l], s)))
                worst = max(worst, dict_residual(lhs, rhs, s, ab,
                                                 j_max=interior))
            ab = c(_XN[i], c(_XN[k], s))
            lhs = combine((1, ab), (-1, c(_XN[k], c(_XN[i], s))))
            worst = max(worst, dict_residual(lhs, {}, s, ab, j_max=interior))
        for i in range(3):
            ab = c(_JN[i], c(_XN[i], s))
            lhs = combine((1, ab), (-1, c(_XN[i], c(_JN[i], s))))
            worst = max(worst, dict_residual(lhs, {}, s, ab, j_max=interior))
    return worst


def casimirs(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for s in _interior_vectors(j_cut):
        parts = [cart(x, cart(x, s, j_cut), j_cut) for x in _XN]
        worst = max(worst, dict_residual(
            combine(*((1, p) for p in parts)), s, s, *parts, j_max=interior))
        parts = [cart(_JN[i], cart(_XN[i], s, j_cut), j_cut)
                 for i in range(3)]
        worst = max(worst, dict_residual(
            combine(*((1, p) for p in parts)), {}, s, *parts,
            j_max=interior))
    return worst


def v_squared(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for sp in _spinor_vectors(j_cut):
        v2 = apply_V(apply_V(sp, j_cut), j_cut)
        worst = max(worst, dict_residual(v2, sp, sp, j_max=interior))
    return worst


def kv_anticommutator(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for sp in _spinor_vectors(j_cut):
        kv = apply_K(apply_V(sp, j_cut))
        acom = combine((1, kv), (1, apply_V(apply_K(sp), j_cut)))
        worst = max(worst, dict_residual(acom, ({}, {}), sp, kv,
                                         j_max=interior))
    return worst


def z_commutativity(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for s in _interior_vectors(j_cut):
        for i, k in itertools.combinations(range(3), 2):
            ab = apply_Z(_ZN[i], apply_Z(_ZN[k], s, j_cut), j_cut)
            lhs = combine((1, ab), (-1, apply_Z(
                _ZN[k], apply_Z(_ZN[i], s, j_cut), j_cut)))
            worst = max(worst, dict_residual(lhs, {}, s, ab, j_max=interior))
    return worst


def z_normalization(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for s in _interior_vectors(j_cut):
        parts = [apply_Z(z, apply_Z(z, s, j_cut), j_cut) for z in _ZN]
        worst = max(worst, dict_residual(
            combine(*((1, p) for p in parts)), s, s, *parts, j_max=interior))
    return worst


def z_route_equality(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for s in _interior_vectors(j_cut):
        cols = z_columns(s, j_cut)
        for idx, z in enumerate(_ZN):
            a = apply_Z(z, s, j_cut)
            b = apply_Z_vector_form(z, s, j_cut)
            t1 = diag_mul_logs(apply_X(_XN[idx], s, j_cut),
                               lambda jj: jsq_scalar_logs(jj)[0])
            worst = max(worst, dict_residual(a, b, s, t1, j_max=interior))
            c = apply_Z_from_matrix(z, cols)
            worst = max(worst, dict_residual(a, c, s, *cols[0], *cols[1],
                                             j_max=interior))
    return worst


IDENTITY_SWEEPS = {
    "e3_commutators": e3_commutators,
    "casimirs": casimirs,
    "v_squared": v_squared,
    "kv_anticommutator": kv_anticommutator,
    "z_commutativity": z_commutativity,
    "z_normalization": z_normalization,
    "z_route_equality": z_route_equality,
}


# -- the three sphere constructions, on mpmath values ------------------------
#
# Each builds the state's amplitudes as mpmath.mpc at DPS digits from
# per-level tables of factorials, powers and level weights, sums with
# mpmath.fdot, and converts once at the end.

def _tables(n: int) -> tuple:
    """k! and sqrt(k!) for k = 0 .. n."""
    fact = [mpmath.factorial(k) for k in range(n + 1)]
    return fact, [mpmath.sqrt(f) for f in fact]


def _level_weight(j: int):
    """e^{-j(j+1)/2} sqrt(2j + 1)."""
    return mpmath.exp(-mpmath.mpf(j * (j + 1)) / 2) * mpmath.sqrt(2 * j + 1)


def gegenbauer_column(n_max: int, alpha: float, x) -> list:
    """C_0^alpha(x) .. C_{n_max}^alpha(x) by the ascending recurrence, in
    x's number type."""
    col = [type(x)(1)]
    if n_max >= 1:
        col.append(2.0 * alpha * x)
    for n in range(2, n_max + 1):
        col.append((2.0 * (n + alpha - 1) / n) * x * col[n - 1]
                   - ((n + 2.0 * alpha - 2.0) / n) * col[n - 2])
    return col


def coherent_closed_form(zl, j_cut: int) -> StateVector:
    """<j, m| state> = e^{-j(j+1)/2} sqrt(2j+1) (2|m|)!/|m|!
    sqrt((j-|m|)!/(j+|m|)!) w^|m| C_{j-|m|}^{|m|+1/2}(z3), with
    w = (-sign(m) z1 + i z2)/2."""
    with mpmath.workdps(DPS):
        z1, z2, z3 = (mpmath.mpc(complex(c)) for c in zl.z)
        fact, sqrt_fact = _tables(2 * j_cut)
        weight = [_level_weight(j) for j in range(j_cut + 1)]
        amps = {}
        for am in range(j_cut + 1):
            col = gegenbauer_column(j_cut - am, am + 0.5, z3)
            powers = {m: w ** am for m, w in ((am, (-z1 + 1j * z2) / 2),
                                              (-am, (z1 + 1j * z2) / 2))}
            head = fact[2 * am] / fact[am]
            for j in range(am, j_cut + 1):
                mag = weight[j] * head * sqrt_fact[j - am] / sqrt_fact[j + am]
                for m, power in powers.items():
                    amps[(j, m)] = mag * power * col[j - am]
        return from_dict(amps, j_cut)


def coherent_triple_sum(zl, j_cut: int) -> StateVector:
    """The sum over 0 <= m <= j and 0 <= k <= j + m of
    e^{-j(j+1)/2} sqrt(2j+1) nu^m e^{m gamma} (j+m)!/(m! (j-m)!)
    mu^k/k! sqrt((j-m+k)!/(j+m-k)!), landing on t = m - k.  The last
    factor is sqrt((j-t)!/(j+t)!), so each target sums over m first."""
    with mpmath.workdps(DPS):
        mu, nu, gamma = (mpmath.mpc(v) for v in generation_params(zl))
        fact, sqrt_fact = _tables(2 * j_cut)
        mu_k = [mu ** k / fact[k] for k in range(2 * j_cut + 1)]
        nu_m = [nu ** m * mpmath.exp(m * gamma) / fact[m]
                for m in range(j_cut + 1)]
        amps = {}
        for j in range(j_cut + 1):
            f_m = [fact[j + m] / fact[j - m] * nu_m[m] for m in range(j + 1)]
            weight = _level_weight(j)
            for t in range(-j, j + 1):
                lo = max(t, 0)
                amps[(j, t)] = (weight * sqrt_fact[j - t] / sqrt_fact[j + t]
                                * mpmath.fdot(f_m[lo:],
                                              mu_k[lo - t:j + 1 - t]))
        return from_dict(amps, j_cut)


def exp_ladder(which: str, coef, s: dict) -> dict:
    """exp(coef J) s for J = J+ or J-, its series term by term until every
    term has run off its level.  J keeps j, so each level runs on its own:
    step k multiplies the live entries of the last term by coef times their
    ladder coefficient, and each target sums its terms times 1/k! at the
    end."""
    if coef == 0:
        return s
    dm, ladder = (1, jplus_coef) if which == "Jplus" else (-1, jminus_coef)
    levels: dict = {}
    for (j, m), v in s.items():
        levels.setdefault(j, {})[m] = v
    inv_fact = [1 / mpmath.factorial(k) for k in range(2 * max(levels) + 2)]
    out = {}
    for j, term in levels.items():
        step = {m: coef * ladder(j, m) for m in range(-j, j + 1)
                if ladder(j, m)}
        series = {m: [(v, 1)] for m, v in term.items()}
        k = 0
        while term:
            k += 1
            term = {m + dm: v * step[m] for m, v in term.items() if m in step}
            for m, v in term.items():
                series.setdefault(m, []).append((v, inv_fact[k]))
        for m, pairs in series.items():
            out[(j, m)] = mpmath.fdot(pairs)
    return out


def diag_exp_J3(gamma, s: dict) -> dict:
    e = {m: mpmath.exp(m * gamma) for m in {m for _, m in s}}
    return {(j, m): a * e[m] for (j, m), a in s.items()}


def coherent_ladder_generated(zl, j_cut: int) -> StateVector:
    """exp(mu J-) exp(gamma J3) exp(nu J+) applied to the north-pole
    state."""
    with mpmath.workdps(DPS):
        mu, nu, gamma = (mpmath.mpc(v) for v in generation_params(zl))
        s = to_dict(north_pole_state(j_cut), mp=True)
        s = exp_ladder("Jplus", nu, s)
        s = diag_exp_J3(gamma, s)
        return from_dict(exp_ladder("Jminus", mu, s), j_cut)


# -- the ladder's loop over every array entry --------------------------------

def exp_ladder_dense(which: str, coef: complex, lm: np.ndarray,
                     ph: np.ndarray, j_cut: int) -> tuple:
    """The ladder series on every entry of the state arrays at every step,
    live or not, for a fixed number of steps: the loop that
    sphere._exp_ladder must match bit for bit."""
    if coef == 0:
        return lm, ph
    (((_, dm, _, _), c),) = operator_table(which, j_cut).bands.items()
    with np.errstate(divide="ignore"):
        lc = np.log(c) + math.log(abs(coef))
    turn = complex(coef) / abs(coef)
    j, m = grid(j_cut)
    # the term from |j, m> reaches m = dm j after j - dm m steps and then
    # vanishes: the coefficient is 0 at m = +-j
    steps = int(np.max(j - dm * m, where=lm > -math.inf, initial=0))
    lc = np.roll(lc, dm)    # the coefficient of the step into each index
    top, t_lm, t_u = lm, lm, rect_array(0.0, ph)
    acc = np.where(lm > -math.inf, t_u, 0)
    for k in range(1, steps + 1):
        t_lm = np.concatenate((t_lm[-dm:], t_lm[:-dm])) + lc - math.log(k)
        t_u = np.concatenate((t_u[-dm:], t_u[:-dm])) * turn
        new_top = np.maximum(top, t_lm)
        shift = np.where(new_top > -math.inf, new_top, 0.0)
        acc = acc * np.exp(top - shift) + np.exp(t_lm - shift) * t_u
        top = new_top
    return polar_array(top, acc)


# -- the exact-rational series oracles of `cohstates verify` -----------------

class _QC:
    """Gaussian-rational complex: exact add/mul over Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def from_complex(cls, z: complex) -> "_QC":
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, o: "_QC") -> "_QC":
        return _QC(self.re + o.re, self.im + o.im)

    def __mul__(self, o: "_QC") -> "_QC":
        return _QC(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def hyp2f1_identity() -> CheckResult:
    """check_hyp2f1_identity with the factorial sum summed term by term in
    Fractions."""
    worst = _Worst()
    for n in range(0, 9):
        for k in range(0, 9):
            for m in range(0, 9):
                for z in (-0.5, 0.7, 1 + 1j):
                    zq = _QC.from_complex(z)
                    lhs = _QC(0)
                    zpow = _QC(1)
                    term_scale = 0.0
                    for s_ in range(n + 1):
                        coef = Fraction(
                            math.factorial(s_ + k),
                            math.factorial(s_ + m) * math.factorial(s_)
                            * math.factorial(n - s_))
                        t = _QC(coef) * zpow
                        term_scale = max(term_scale, abs(t.to_complex()))
                        lhs = lhs + t
                        zpow = zpow * zq
                    rhs = (math.factorial(k)
                           / (math.factorial(m) * math.factorial(n))
                           * specfun.hyp2f1_terminating(n, k + 1.0, m + 1.0,
                                                        -z))
                    lhs_c = lhs.to_complex()
                    scale = max(abs(lhs_c), abs(rhs), term_scale)
                    worst.add(abs(lhs_c - rhs) / scale,
                              {"n": n, "k": k, "m": m,
                               "z": [complex(z).real, complex(z).imag]})
    return worst.result("hyp2f1_identity_grid", checks.IDENTITY_TOL)


def gegenbauer_recurrence() -> CheckResult:
    """check_gegenbauer_recurrence with one sweep per entry [n, k], to
    n + k, and the series summed term by term in Fractions."""
    worst = _Worst()
    for n in range(0, 21):
        for k in (0, 1, 4):
            two_a, c_int = 2 * k + 1, k + 1  # alpha = k + 1/2
            for x in (0.3, 1.0, 2 + 5j):
                lm, ph = specfun.gegenbauer_column(n + k, x)
                rec = cmath.rect(math.exp(lm[n, k]), ph[n, k])
                wq = _QC.from_complex((1 - complex(x)) / 2)
                acc = _QC(0)
                term = _QC(Fraction(
                    math.factorial(n + two_a - 1),
                    math.factorial(n) * math.factorial(two_a - 1)))
                for s_ in range(n + 1):
                    acc = acc + term
                    ratio = Fraction((-n + s_) * (n + two_a + s_),
                                     (c_int + s_) * (s_ + 1))
                    term = term * _QC(ratio) * wq
                ser = acc.to_complex()
                worst.add(abs(rec - ser) / abs(ser),
                          {"n": n, "alpha": k + 0.5,
                           "x": [complex(x).real, complex(x).imag]})
    return worst.result("gegenbauer_recurrence_vs_series", checks.SERIES_TOL)


# -- the exact moments of a sphere state --------------------------------------

def moment_series(l_norm: float, j_cut: int) -> tuple:
    """The moments of the coherent state at |l| = l_norm and cut j_cut, as
    one-dimensional sums over its levels, in mpmath at 40 digits.

    With c = cosh 2|l| and w_j = (2j+1) e^{-j(j+1)}, level j holds squared
    norm in proportion to w_j P_j(c): the addition theorem
    sum_m |Y_jm(z)|^2 = (2j+1)/(4 pi) P_j(conj(z).z), continued to the
    complex label.  Then, with N = sum_j w_j P_j(c),
        <J>   = l/|l| sinh(2|l|) sum_j w_j P_j'(c) / N,
        <J^2> = sum_j j(j+1) w_j P_j(c) / N,
        <X>/r = x/r sum_j (j+1) e^{-(j+1)^2} (P_j(c) + P_{j+1}(c))
                / (cosh|l| N),
    the last over the level pairs j, j+1 inside the cut.  P_j(c) comes from
    the Legendre recurrence and P_j'(c) from
    (c^2 - 1) P_j' = j (c P_j - P_{j-1}).  Returns |<J>|, <J^2>,
    var_J = <J^2> - |<J>|^2 (taken before rounding) and |<X>|/r as floats.
    """
    with mpmath.workdps(40):
        ln = mpmath.mpf(l_norm)
        c = mpmath.cosh(2 * ln)
        p = [mpmath.mpf(1), c]                   # P_0(c), P_1(c), ...
        for j in range(1, j_cut + 1):
            p.append(((2 * j + 1) * c * p[j] - j * p[j - 1]) / (j + 1))
        dp = [0] + [j * (c * p[j] - p[j - 1]) / (c * c - 1)
                    for j in range(1, j_cut + 1)]
        w = [(2 * j + 1) * mpmath.exp(-j * (j + 1)) for j in range(j_cut + 1)]
        levels = range(j_cut + 1)
        norm = mpmath.fsum(w[j] * p[j] for j in levels)
        j_mag = (mpmath.sinh(2 * ln)
                 * mpmath.fsum(w[j] * dp[j] for j in levels) / norm)
        jsq = mpmath.fsum(j * (j + 1) * w[j] * p[j] for j in levels) / norm
        x_ratio = (mpmath.fsum((j + 1) * mpmath.exp(-(j + 1) ** 2)
                               * (p[j] + p[j + 1]) for j in range(j_cut))
                   / (mpmath.cosh(ln) * norm))
        return tuple(map(float, (j_mag, jsq, jsq - j_mag ** 2, x_ratio)))


# -- the sphere report's relative position at full cut ----------------------

def relative_X_full_cut(s: StateVector, p) -> np.ndarray:
    """`sphere.relative_X` with each k-axis reference state built at the
    full cut s.j_cut: <X_k> over the same average in the reference, NaN
    where that is below 1e-6."""
    num = sphere.expect_X(s)
    out = np.empty(3)
    for k in range(3):
        ref = sphere.coherent_closed_form(sphere.axis_reference_label(p.l, k),
                                          s.j_cut)
        den = sphere.expect_X(ref)[k]
        out[k] = num[k] / den if abs(den) >= 1e-6 else math.nan
    return out


# -- the CLI's first report writer ---------------------------------------------

def emit(args, payload: dict, table: dict, json_key=None) -> None:
    """`cli._emit` as first written, a drop-in for it: the rows of the
    table, {field: column}, as one dict each in the payload under json_key
    and the whole text from `json.dumps`, or as dicts through
    `csv.DictWriter`, which writes a float as its repr."""
    fields = list(table)
    rows = zip(*(np.asarray(col).tolist() for col in table.values()))
    if args.format == "json":
        payload = {"command": args.command, "version": __version__, **payload}
        if json_key is not None:
            payload[json_key] = [dict(zip(fields, row)) for row in rows]
        text = json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(dict(zip(fields, row)) for row in rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
