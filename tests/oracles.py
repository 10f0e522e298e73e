"""Reference implementations kept for the tests.

The library applies operators as shifted slices of a padded (j, m) array,
evaluates operator identities on banded coefficient tables, and builds the
triple-sum and ladder states on dense arrays.  `LogComplex` below is the
scalar log-domain carrier the library was first written on, kept here as
the reference, with its (j, m) label `BasisIndex`.  The loops after it are
the earlier per-amplitude versions, written on that sparse carrier from the
scalar matrix elements: the J, X and Z actions, every spinor operator, the
J^2-function generator route, the per-basis-vector identity sweeps of
`cohstates verify`, and the two sphere construction routes, followed by the
ladder's earlier loop over every array entry at every step.  The tests hold
the production code equal to them.  They read states through `amplitudes`
and build them back with `state_from_amplitudes`.  Inner products, the
projection onto the levels j <= j_max and the relative residual of an
identity act on the array states.  `apply_table` applies a one-component
table to a state, as the library did before it read operator images off the
padded array, and `table_expectation` and `table_residual_norm` are the
slices' references.  The spinor tests get their two-component states here:
`SpinorState`, `spinor_basis`, the application of a spinor table block by
block, and spinor sums, scalings, inner products and residuals.  Then come
the Fraction-sum series oracles of `cohstates verify`, which the integer
sums must match bit for bit, and the exact moments of a sphere state as
one-dimensional series over its levels.  `relative_X_full_cut` is the
sphere report's relative position with every axis reference state built at
the state's own cut, as it was first defined.  Last is the CLI's first report
writer, one dict per row through `json.dumps` and `csv.DictWriter`, which
the chunked writer must match byte for byte.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, NamedTuple

import mpmath
import numpy as np

from cohstates import __version__, checks, specfun, sphere
from cohstates.checks import CheckResult, _Worst
from cohstates.logdomain import (log_sum_exp, polar_array, rect_array,
                                 wrap_phase)
from cohstates.repspace import (BandTable, StateVector, basis_state, grid,
                                operator_table, state_scale, state_sum)
from cohstates.specfun import log_factorial
from cohstates.sphere import generation_params, north_pole_state
from cohstates.spinor import _entry

_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
_JN = ("J1", "J2", "J3")
_XN = ("X1", "X2", "X3")
_ZN = ("Z1", "Z2", "Z3")


# -- the scalar reference carrier ---------------------------------------------

class BasisIndex(NamedTuple):
    """Angular-momentum basis label (j, m); equal to, and hashed like, the
    plain (j, m) keys of StateVector.amplitudes."""

    j: int
    m: int


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
    if phase == 0.5 * math.pi:
        return complex(0.0, mag)
    if phase == -0.5 * math.pi:
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


ZERO = LogComplex(-math.inf, 0.0)
ONE = LogComplex(0.0, 0.0)


def value(pair) -> complex:
    """The complex value of a (log-magnitude, phase) pair."""
    return LogComplex(*pair).to_complex()


def amplitudes(s: StateVector) -> dict:
    """{BasisIndex: LogComplex} of the nonzero amplitudes of s."""
    return {BasisIndex(*k): LogComplex(*v) for k, v in s.amplitudes.items()}


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


def state_from_amplitudes(amps: dict, j_cut: int) -> StateVector:
    """The state with the {(j, m): LogComplex} amplitudes `amps`."""
    lm = np.full((j_cut + 1) ** 2, -math.inf)
    ph = np.zeros(lm.size)
    for (j, m), a in amps.items():
        if not (0 <= j <= j_cut and abs(m) <= j):
            raise ValueError(f"invalid basis index (j={j}, m={m})")
        lm[j * j + j + m], ph[j * j + j + m] = a.log_mag, a.phase
    return StateVector(lm, ph, j_cut)


def with_amplitudes(s: StateVector, amps: dict) -> StateVector:
    """s with its amplitudes replaced."""
    return state_from_amplitudes(amps, s.j_cut)


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


# -- spinor states and their arithmetic --------------------------------------

@dataclass(frozen=True)
class SpinorState:
    """Pair of representation-space components against auxiliary spin
    up/down."""

    up: StateVector
    down: StateVector

    def __post_init__(self):
        if self.up.j_cut != self.down.j_cut:
            raise ValueError("spinor components must share j_cut")

    def log_norm_sq(self) -> float:
        return log_sum_exp([self.up.log_norm_sq(), self.down.log_norm_sq()])


def spinor_basis(j: int, m: int, j_cut: int,
                 component: str = "up") -> SpinorState:
    full = basis_state(j, m, j_cut)
    empty = state_scale(full, 0)
    if component == "up":
        return SpinorState(full, empty)
    return SpinorState(empty, full)


def apply_spinor_table(t: BandTable, s: SpinorState) -> SpinorState:
    """A two-component table applied to s, one block at a time.

    Output component `row` is the sum over `col` of block (row, col) applied
    to component `col`.
    """
    comps = (s.up, s.down)
    return SpinorState(*(
        state_sum([apply_table(_entry(t, row, col), comps[col])
                   for col in (0, 1)]) for row in (0, 1)))


def spinor_inner(a: SpinorState, b: SpinorState) -> complex:
    return inner(a.up, b.up) + inner(a.down, b.down)


def spinor_sum(states: list[SpinorState]) -> SpinorState:
    return SpinorState(state_sum([s.up for s in states]),
                       state_sum([s.down for s in states]))


def spinor_scale(s: SpinorState, c: complex) -> SpinorState:
    return SpinorState(state_scale(s.up, c), state_scale(s.down, c))


def spinor_relative_residual(lhs: SpinorState, rhs: SpinorState,
                             *scales: SpinorState) -> float:
    """Norm of (lhs - rhs) over the largest participating spinor norm."""
    d = spinor_sum([lhs, spinor_scale(rhs, -1.0)]).log_norm_sq()
    ref = max(x.log_norm_sq() for x in (lhs, rhs, *scales))
    return 0.0 if d == -math.inf else math.exp(0.5 * (d - ref))


# -- the sparse operator actions, one amplitude at a time -------------------

def _emit(contribs: list, key: BasisIndex, amp: LogComplex):
    if not amp.is_zero:
        contribs.append((key, amp))


def _collect(contribs: Iterable, s: StateVector) -> StateVector:
    """Combine per-index contributions, dropping j > j_cut."""
    buckets: dict = {}
    for key, amp in contribs:
        if key.j <= s.j_cut:
            buckets.setdefault(key, []).append(amp)
    amps = {}
    for key, terms in buckets.items():
        total = terms[0] if len(terms) == 1 else log_complex_sum(terms)
        if not total.is_zero:
            amps[key] = total
    return with_amplitudes(s, amps)


def jplus_coef(j: int, m: int) -> float:
    return math.sqrt((j - m) * (j + m + 1))


def jminus_coef(j: int, m: int) -> float:
    return math.sqrt((j + m) * (j - m + 1))


def apply_J(which: str, s: StateVector) -> StateVector:
    """Exact action of J3, J+/-, or J^2 (ladder shifts never change j)."""
    contribs: list = []
    for (j, m), a in amplitudes(s).items():
        if which == "J3":
            _emit(contribs, BasisIndex(j, m), a * LogComplex.from_real(m))
        elif which == "Jsq":
            _emit(contribs, BasisIndex(j, m),
                  a * LogComplex.from_real(j * (j + 1)))
        elif which == "Jplus":
            if m < j:
                _emit(contribs, BasisIndex(j, m + 1),
                      a * LogComplex.from_real(jplus_coef(j, m)))
        elif which == "Jminus":
            if m > -j:
                _emit(contribs, BasisIndex(j, m - 1),
                      a * LogComplex.from_real(jminus_coef(j, m)))
        else:
            raise ValueError(f"unknown J operator {which!r}")
    return _collect(contribs, s)


def x_terms(which: str, j: int, m: int, r: float):
    """Matrix elements of the position operators at zero twist.

    Each is tridiagonal in j with no diagonal term (the twist-proportional
    middle term vanishes identically), so the action strictly changes j.
    The j -> j-1 coefficients vanish for every state they could act on at
    j = 0, hence the plain j >= 1 guard.
    """
    up = math.sqrt((2 * j + 1) * (2 * j + 3))
    if which == "X3":
        yield BasisIndex(j + 1, m), r * math.sqrt((j - m + 1) * (j + m + 1)) / up
        if j >= 1:
            dn = math.sqrt((2 * j - 1) * (2 * j + 1))
            yield BasisIndex(j - 1, m), r * math.sqrt((j - m) * (j + m)) / dn
    elif which == "Xplus":
        yield BasisIndex(j + 1, m + 1), -r * math.sqrt((j + m + 1) * (j + m + 2)) / up
        if j >= 1:
            dn = math.sqrt((2 * j - 1) * (2 * j + 1))
            yield BasisIndex(j - 1, m + 1), r * math.sqrt((j - m - 1) * (j - m)) / dn
    elif which == "Xminus":
        yield BasisIndex(j + 1, m - 1), r * math.sqrt((j - m + 1) * (j - m + 2)) / up
        if j >= 1:
            dn = math.sqrt((2 * j - 1) * (2 * j + 1))
            yield BasisIndex(j - 1, m - 1), -r * math.sqrt((j + m - 1) * (j + m)) / dn
    else:
        raise ValueError(f"unknown X operator {which!r}")


def apply_X(which: str, s: StateVector) -> StateVector:
    """Position-operator action at unit radius; X1, X2 are the Hermitian
    ladder combinations."""
    if which == "X1":
        return state_sum([state_scale(apply_X("Xplus", s), complex(0.5)),
                          state_scale(apply_X("Xminus", s), complex(0.5))])
    if which == "X2":
        return state_sum([state_scale(apply_X("Xplus", s), complex(0, -0.5)),
                          state_scale(apply_X("Xminus", s), complex(0, 0.5))])
    contribs: list = []
    for (j, m), a in amplitudes(s).items():
        for key, coef in x_terms(which, j, m, 1.0):
            if coef != 0.0:
                _emit(contribs, key, a * LogComplex.from_real(coef))
    return _collect(contribs, s)


def z_terms(which: str, j: int, m: int):
    """Coherent-state generator matrix elements.

    Same selection rules as X/r but with the raising branch weighted by
    e^{-j-1} and the lowering branch by e^{j}; the weights are carried in
    log form so arbitrarily large j never overflows.
    """
    up = -(j + 1.0)          # log weight of the j -> j+1 branch
    dn = float(j)            # log weight of the j -> j-1 branch
    lup = math.log((2 * j + 1) * (2 * j + 3)) / 2
    ldn = math.log((2 * j - 1) * (2 * j + 1)) / 2 if j >= 1 else 0.0

    def branch(sq: float, sign: float, phase_i: bool, lw: float, key):
        if sq <= 0:
            return None
        lm = 0.5 * math.log(sq) + lw
        ph = math.pi / 2 if phase_i else 0.0
        if sign < 0:
            ph += math.pi
        return key, LogComplex.from_polar(lm, ph)

    if which == "Z3":
        t = branch((j - m + 1) * (j + m + 1), +1, False, up - lup,
                   BasisIndex(j + 1, m))
        if t:
            yield t
        if j >= 1:
            t = branch((j - m) * (j + m), +1, False, dn - ldn,
                       BasisIndex(j - 1, m))
            if t:
                yield t
        return
    half = math.log(0.5)
    if which == "Z1":
        plan = [((j + m + 1) * (j + m + 2), -1, False, up - lup + half, (j + 1, m + 1)),
                ((j - m - 1) * (j - m),     +1, False, dn - ldn + half, (j - 1, m + 1)),
                ((j - m + 1) * (j - m + 2), +1, False, up - lup + half, (j + 1, m - 1)),
                ((j + m - 1) * (j + m),     -1, False, dn - ldn + half, (j - 1, m - 1))]
    elif which == "Z2":
        plan = [((j + m + 1) * (j + m + 2), +1, True, up - lup + half, (j + 1, m + 1)),
                ((j - m - 1) * (j - m),     -1, True, dn - ldn + half, (j - 1, m + 1)),
                ((j - m + 1) * (j - m + 2), +1, True, up - lup + half, (j + 1, m - 1)),
                ((j + m - 1) * (j + m),     -1, True, dn - ldn + half, (j - 1, m - 1))]
    else:
        raise ValueError(f"unknown Z operator {which!r}")
    for sq, sign, phase_i, lw, (jj, mm) in plan:
        if jj < 0 or abs(mm) > jj:
            continue
        t = branch(sq, sign, phase_i, lw, BasisIndex(jj, mm))
        if t:
            yield t


def apply_Z(which: str, s: StateVector) -> StateVector:
    """Coherent-state generator action from its explicit matrix elements."""
    contribs: list = []
    for (j, m), a in amplitudes(s).items():
        for key, coef in z_terms(which, j, m):
            _emit(contribs, key, a * coef)
    return _collect(contribs, s)


_J_LABELS = {"J3", "Jplus", "Jminus", "Jsq"}
_X_LABELS = {"X1", "X2", "X3", "Xplus", "Xminus"}


def apply_operator(which: str, s: StateVector) -> StateVector:
    if which in _J_LABELS:
        return apply_J(which, s)
    if which in _X_LABELS:
        return apply_X(which, s)
    return apply_Z(which, s)


# -- Cartesian components and the J^2-function route ------------------------

def cart(which: str, s: StateVector) -> StateVector:
    if not which.startswith("J"):
        return apply_X(which, s)
    if which == "J3":
        return apply_J("J3", s)
    p, m = apply_J("Jplus", s), apply_J("Jminus", s)
    if which == "J1":
        return state_sum([state_scale(p, 0.5 + 0j), state_scale(m, 0.5 + 0j)])
    return state_sum([state_scale(p, -0.5j), state_scale(m, 0.5j)])


def jsq_scalar_logs(j: int) -> tuple[float, float]:
    sv = 2.0 * j + 1.0
    es = math.exp(-sv)
    logf = 0.5 + sv / 2 - math.log(2.0) + math.log((1 - es) / sv + 1 + es)
    logg = 0.5 + sv / 2 + math.log1p(-es) - math.log(sv)
    return logf, logg


def diag_mul_logs(s: StateVector, log_by_j) -> StateVector:
    amps = {k: a.scaled_log(log_by_j(k.j)) for k, a in amplitudes(s).items()}
    return with_amplitudes(s, amps)


def apply_Z_vector_form(which: str, s: StateVector) -> StateVector:
    idx = _ZN.index(which)
    t1 = diag_mul_logs(apply_X(_XN[idx], s), lambda j: jsq_scalar_logs(j)[0])
    jn, kn = (idx + 1) % 3, (idx + 2) % 3
    cross = state_sum([
        cart(_JN[jn], apply_X(_XN[kn], s)),
        state_scale(cart(_JN[kn], apply_X(_XN[jn], s)), complex(-1.0)),
    ])
    t2 = state_scale(diag_mul_logs(cross, lambda j: jsq_scalar_logs(j)[1]),
                     complex(0, 1))
    return state_sum([t1, t2])


# -- spinor operators --------------------------------------------------------

def apply_V(s: SpinorState) -> SpinorState:
    """V = sigma.X / r, with X at unit radius."""
    up = state_sum([apply_X("X3", s.up), apply_X("Xminus", s.down)])
    down = state_sum([apply_X("Xplus", s.up),
                      state_scale(apply_X("X3", s.down), -1 + 0j)])
    return SpinorState(up, down)


def apply_sigma_dot_J(s: SpinorState) -> SpinorState:
    up = state_sum([apply_J("J3", s.up), apply_J("Jminus", s.down)])
    down = state_sum([apply_J("Jplus", s.up),
                      state_scale(apply_J("J3", s.down), -1 + 0j)])
    return SpinorState(up, down)


def apply_K(s: SpinorState) -> SpinorState:
    sj = apply_sigma_dot_J(s)
    up = state_scale(state_sum([sj.up, s.up]), -1 + 0j)
    down = state_scale(state_sum([sj.down, s.down]), -1 + 0j)
    return SpinorState(up, down)


def expk_entries(j: int, mu: int) -> tuple:
    den = 2 * j + 1

    def entry(w_plus: float, w_minus: float) -> LogComplex:
        terms = []
        if w_plus != 0.0:
            terms.append(LogComplex.from_real(w_plus / den).scaled_log(j + 1.0))
        if w_minus != 0.0:
            terms.append(LogComplex.from_real(w_minus / den).scaled_log(-float(j)))
        return log_complex_sum(terms)

    c = math.sqrt((j - mu) * (j + mu + 1))
    return entry(j + 1 + mu, j - mu), entry(c, -c), entry(j - mu, j + 1 + mu)


def apply_exp_minus_K(s: SpinorState) -> SpinorState:
    up_contribs: list = []
    down_contribs: list = []
    for (j, m), a in amplitudes(s.up).items():
        e_uu, e_ud, _ = expk_entries(j, m)
        up_contribs.append((BasisIndex(j, m), a * e_uu))
        if m + 1 <= j:
            down_contribs.append((BasisIndex(j, m + 1), a * e_ud))
    for (j, m), a in amplitudes(s.down).items():
        mu = m - 1
        _, e_ud, e_dd = expk_entries(j, mu)
        down_contribs.append((BasisIndex(j, m), a * e_dd))
        if mu >= -j:
            up_contribs.append((BasisIndex(j, mu), a * e_ud))

    def build(contribs, template: StateVector) -> StateVector:
        buckets: dict = {}
        for key, amp in contribs:
            if not amp.is_zero:
                buckets.setdefault(key, []).append(amp)
        amps = {k: (v[0] if len(v) == 1 else log_complex_sum(v))
                for k, v in buckets.items()}
        amps = {k: v for k, v in amps.items() if not v.is_zero}
        return with_amplitudes(template, amps)

    return SpinorState(build(up_contribs, s.up), build(down_contribs, s.down))


def apply_Z_matrix(s: SpinorState) -> SpinorState:
    return apply_exp_minus_K(apply_V(s))


def apply_Z_from_matrix(which: str, phi: StateVector) -> StateVector:
    empty = with_amplitudes(phi, {})
    col_up = apply_Z_matrix(SpinorState(phi, empty))
    col_down = apply_Z_matrix(SpinorState(empty, phi))
    a, c = col_up.up, col_up.down
    b, d = col_down.up, col_down.down
    if which == "Z1":
        return state_scale(state_sum([b, c]), complex(0.5))
    if which == "Z2":
        return state_scale(state_sum([b, state_scale(c, -1 + 0j)]),
                           complex(0, 0.5))
    return state_scale(state_sum([a, state_scale(d, -1 + 0j)]), complex(0.5))


# -- the identity sweeps, one basis vector at a time -------------------------

def _interior_vectors(j_cut: int):
    for j in range(0, j_cut - 1):
        for m in range(-j, j + 1):
            yield basis_state(j, m, j_cut)


def _spinor_vectors(j_cut: int):
    for j in range(0, j_cut - 1):
        for m in range(-j, j + 1):
            for comp in ("up", "down"):
                yield spinor_basis(j, m, j_cut, comp)


def _spinor_restrict(sp: SpinorState, j_max: int) -> SpinorState:
    return SpinorState(restricted(sp.up, j_max), restricted(sp.down, j_max))


def _commutator(a: StateVector, b: StateVector) -> StateVector:
    return state_sum([a, state_scale(b, -1 + 0j)])


def e3_commutators(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for s in _interior_vectors(j_cut):
        for i, k in itertools.combinations(range(3), 2):
            for fam_a, fam_b, fam_rhs in ((_JN, _JN, _JN), (_JN, _XN, _XN)):
                ab = cart(fam_a[i], cart(fam_b[k], s))
                lhs = _commutator(ab, cart(fam_b[k], cart(fam_a[i], s)))
                l = 3 - i - k
                rhs = state_scale(cart(fam_rhs[l], s),
                                  complex(0, _EPS[(i, k, l)]))
                worst = max(worst, relative_residual(
                    restricted(lhs, interior), restricted(rhs, interior), s,
                    ab))
            ab = cart(_XN[i], cart(_XN[k], s))
            lhs = _commutator(ab, cart(_XN[k], cart(_XN[i], s)))
            worst = max(worst, relative_residual(
                restricted(lhs, interior), state_scale(s, 0j), s, ab))
        for i in range(3):
            ab = cart(_JN[i], cart(_XN[i], s))
            lhs = _commutator(ab, cart(_XN[i], cart(_JN[i], s)))
            worst = max(worst, relative_residual(
                restricted(lhs, interior), state_scale(s, 0j), s, ab))
    return worst


def casimirs(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for s in _interior_vectors(j_cut):
        parts = [cart(x, cart(x, s)) for x in _XN]
        worst = max(worst, relative_residual(
            restricted(state_sum(parts), interior), s, s, *parts))
        parts = [cart(_JN[i], cart(_XN[i], s)) for i in range(3)]
        worst = max(worst, relative_residual(
            restricted(state_sum(parts), interior), state_scale(s, 0j), s,
            *parts))
    return worst


def v_squared(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for sp in _spinor_vectors(j_cut):
        v2 = apply_V(apply_V(sp))
        worst = max(worst, spinor_relative_residual(
            _spinor_restrict(v2, interior), _spinor_restrict(sp, interior), sp))
    return worst


def kv_anticommutator(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for sp in _spinor_vectors(j_cut):
        kv = apply_K(apply_V(sp))
        acom = spinor_sum([kv, apply_V(apply_K(sp))])
        worst = max(worst, spinor_relative_residual(
            _spinor_restrict(acom, interior), spinor_scale(sp, 0j), sp, kv))
    return worst


def z_commutativity(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for s in _interior_vectors(j_cut):
        for i, k in itertools.combinations(range(3), 2):
            ab = apply_Z(_ZN[i], apply_Z(_ZN[k], s))
            lhs = _commutator(ab, apply_Z(_ZN[k], apply_Z(_ZN[i], s)))
            worst = max(worst, relative_residual(
                restricted(lhs, interior), state_scale(s, 0j), s, ab))
    return worst


def z_normalization(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for s in _interior_vectors(j_cut):
        parts = [apply_Z(z, apply_Z(z, s)) for z in _ZN]
        worst = max(worst, relative_residual(
            restricted(state_sum(parts), interior), s, s, *parts))
    return worst


def z_route_equality(j_cut: int) -> float:
    interior = j_cut - 2
    worst = 0.0
    for s in _interior_vectors(j_cut):
        empty = with_amplitudes(s, {})
        col_u = apply_Z_matrix(SpinorState(s, empty))
        col_d = apply_Z_matrix(SpinorState(empty, s))
        for idx, z in enumerate(_ZN):
            a = apply_Z(z, s)
            b = apply_Z_vector_form(z, s)
            t1 = diag_mul_logs(apply_X(_XN[idx], s),
                               lambda jj: jsq_scalar_logs(jj)[0])
            worst = max(worst, relative_residual(
                restricted(a, interior), restricted(b, interior), s, t1))
            c = apply_Z_from_matrix(z, s)
            worst = max(worst, relative_residual(
                restricted(a, interior), restricted(c, interior), s,
                col_u.up, col_u.down, col_d.up, col_d.down))
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


# -- the triple-sum and ladder constructions ---------------------------------

def coherent_triple_sum(zl, j_cut: int) -> StateVector:
    mu, nu, gamma = generation_params(zl)
    mu_l = LogComplex.from_complex(mu)
    nu_l = LogComplex.from_complex(nu)
    contribs: dict = {}
    for j in range(j_cut + 1):
        base = LogComplex.from_polar(-0.5 * j * (j + 1)
                                     + 0.5 * math.log(2 * j + 1))
        for m in range(0, j + 1):
            fm = (base * (nu_l ** m)
                  * LogComplex.from_polar(-log_factorial(m)
                                          + log_factorial(j + m)
                                          - log_factorial(j - m))
                  * LogComplex.from_polar(m * gamma.real, m * gamma.imag))
            if fm.is_zero:
                continue
            for k in range(0, j + m + 1):
                mk = m - k
                if abs(mk) > j:
                    continue
                term = (fm * (mu_l ** k)
                        * LogComplex.from_polar(
                            -log_factorial(k)
                            + 0.5 * (log_factorial(j - m + k)
                                     - log_factorial(j + m - k))))
                if not term.is_zero:
                    contribs.setdefault(BasisIndex(j, mk), []).append(term)
    amps = {}
    for key, terms in contribs.items():
        t = log_complex_sum(terms)
        if not t.is_zero:
            amps[key] = t
    return state_from_amplitudes(amps, j_cut)


def exp_ladder(which: str, coef: complex, s: StateVector) -> StateVector:
    if coef == 0:
        return s
    terms = [s]
    term = s
    k = 0
    while True:
        k += 1
        term = state_scale(apply_J(which, term), coef / k)
        if term.is_zero():
            break
        terms.append(term)
    return state_sum(terms)


def diag_exp_J3(gamma: complex, s: StateVector) -> StateVector:
    amps = {k: (a * LogComplex.from_polar(k.m * gamma.real, k.m * gamma.imag))
            for k, a in amplitudes(s).items()}
    return with_amplitudes(s, amps)


def coherent_ladder_generated(zl, j_cut: int) -> StateVector:
    mu, nu, gamma = generation_params(zl)
    s = north_pole_state(j_cut)
    s = exp_ladder("Jplus", nu, s)
    s = diag_exp_J3(gamma, s)
    return exp_ladder("Jminus", mu, s)


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


# -- the closed form, one amplitude at a time --------------------------------

def gegenbauer_column(n_max: int, alpha: float, x: complex) -> list:
    """C_0^alpha(x) .. C_{n_max}^alpha(x) by the ascending recurrence, every
    value a LogComplex."""
    xl = LogComplex.from_complex(x)
    col = [LogComplex(0.0)]
    if n_max >= 1:
        col.append(LogComplex.from_real(2.0 * alpha) * xl)
    for n in range(2, n_max + 1):
        t1 = LogComplex.from_real(2.0 * (n + alpha - 1) / n) * xl * col[n - 1]
        t2 = LogComplex.from_real(-(n + 2.0 * alpha - 2.0) / n) * col[n - 2]
        col.append(log_complex_sum([t1, t2]))
    return col


def coherent_closed_form(zl, j_cut: int) -> StateVector:
    z1, z2, z3 = zl.z
    cols = [gegenbauer_column(j_cut - am, am + 0.5, z3)
            for am in range(j_cut + 1)]
    w_pos = LogComplex.from_complex((-z1 + 1j * z2) / 2.0)
    w_neg = LogComplex.from_complex((z1 + 1j * z2) / 2.0)
    amps = {}
    for j in range(j_cut + 1):
        for m in range(-j, j + 1):
            am = abs(m)
            lmag = (-0.5 * j * (j + 1) + 0.5 * math.log(2 * j + 1)
                    + log_factorial(2 * am) - log_factorial(am)
                    + 0.5 * (log_factorial(j - am) - log_factorial(j + am)))
            w = w_pos if m > 0 else w_neg
            val = (LogComplex.from_polar(lmag) * (w ** am)
                   * cols[am][j - am])
            if not val.is_zero:
                amps[BasisIndex(j, m)] = val
    return state_from_amplitudes(amps, j_cut)


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
    """check_gegenbauer_recurrence with one recurrence per degree and the
    series summed term by term in Fractions."""
    worst = _Worst()
    for n in range(0, 21):
        for alpha in (0.5, 1.5, 4.5):
            two_a = int(round(2 * alpha))
            c_int = (two_a + 1) // 2  # alpha + 1/2 is an integer on this grid
            for x in (0.3, 1.0, 2 + 5j):
                lm, ph = specfun.gegenbauer_column(n, alpha, x)
                rec = cmath.rect(math.exp(lm[n]), ph[n])
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
                          {"n": n, "alpha": alpha,
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

def emit(args, payload: dict, fields: list[str], csv_row: str, rows,
         amplitudes=None) -> None:
    """`cli._emit` as first written, a drop-in for it: the amplitudes as one
    dict each in the payload and the whole text from `json.dumps`, or the
    rows as dicts through `csv.DictWriter`, which writes a float as its
    repr.  `csv_row` is not used."""
    if args.format == "json":
        payload = {"command": args.command, "version": __version__, **payload}
        if amplitudes is not None:
            payload["amplitudes"] = [
                {"j": j, "m": m, "log_mag": lg, "phase": ph}
                for j, lg, m, ph in amplitudes]
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
