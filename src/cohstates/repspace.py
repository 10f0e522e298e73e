"""Truncated zero-twist unitary irrep of the Euclidean algebra e(3).

Basis vectors |j, m> are joint eigenvectors of J^2 and J3 with integer j >= 0
and |m| <= j (the twist, i.e. the J.X/r Casimir, is fixed at zero, which
forces the minimal j to be 0 and all labels integer).  States are sparse maps
from (j, m) to log-domain amplitudes; operators act exactly through their
known matrix elements, and anything raised past the truncation level j_cut is
dropped into a loss counter instead of vanishing silently.  Expectation
values and eigen-residuals are evaluated on a dense view of the state instead
(see the section on dense evaluation below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

import numpy as np

from .logdomain import LogComplex, ONE, log_complex_sum, log_sum_exp

__all__ = [
    "BasisIndex",
    "RepParams",
    "StateVector",
    "basis_state",
    "apply_operator",
    "apply_J",
    "apply_X",
    "apply_Z",
    "apply_Z_vector_form",
    "state_sum",
    "state_scale",
    "inner_log",
    "inner",
    "expectation",
    "relative_residual",
    "residual_norm",
]


class BasisIndex(NamedTuple):
    """Angular-momentum basis label (j, m)."""

    j: int
    m: int


@dataclass(frozen=True, slots=True)
class RepParams:
    """Representation labels: sphere radius r (X^2 = r^2) and twist 0."""

    r: float = 1.0
    zeta: float = 0.0

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"radius must be positive, got {self.r}")
        if self.zeta != 0.0:
            raise ValueError("only the zero-twist representation is supported")


@dataclass(frozen=True)
class StateVector:
    """Sparse expansion over |j, m> with LogComplex amplitudes.

    lost_log tracks the log of the total squared magnitude dropped by
    operators that tried to raise past j_cut, so truncation adequacy is
    always auditable.  Treated as an immutable value: operations return
    fresh instances.
    """

    amplitudes: dict
    j_cut: int
    rep: RepParams = field(default_factory=RepParams)
    lost_log: float = -math.inf

    def __post_init__(self):
        for (j, m) in self.amplitudes:
            if j < 0 or abs(m) > j:
                raise ValueError(f"invalid basis index (j={j}, m={m})")
            if j > self.j_cut:
                raise ValueError(f"index j={j} above truncation {self.j_cut}")

    def log_norm_sq(self) -> float:
        return log_sum_exp(a.abs_sq_log() for a in self.amplitudes.values())

    def norm(self) -> float:
        return math.exp(0.5 * self.log_norm_sq())

    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.amplitudes.values())

    def normalized(self) -> "StateVector":
        ln2 = self.log_norm_sq()
        if ln2 == -math.inf:
            raise ValueError("cannot normalize the zero state")
        amps = {k: a.scaled_log(-0.5 * ln2) for k, a in self.amplitudes.items()}
        return replace(self, amplitudes=amps, lost_log=self.lost_log - ln2)

    def tail_fraction(self, bands: int = 2) -> float:
        """Fraction of squared norm carried by the top `bands` j levels."""
        total = self.log_norm_sq()
        if total == -math.inf:
            return 0.0
        tail = log_sum_exp(a.abs_sq_log()
                           for (j, _), a in self.amplitudes.items()
                           if j > self.j_cut - bands)
        return math.exp(tail - total) if tail != -math.inf else 0.0

    def lost_fraction(self) -> float:
        """Dropped squared magnitude relative to the current squared norm."""
        total = self.log_norm_sq()
        if self.lost_log == -math.inf:
            return 0.0
        return math.exp(self.lost_log - total)

    def restricted(self, j_max: int) -> "StateVector":
        """Drop every amplitude with j above j_max (a plain projection)."""
        amps = {k: a for k, a in self.amplitudes.items() if k.j <= j_max}
        return replace(self, amplitudes=amps)


def basis_state(j: int, m: int, j_cut: int,
                rep: RepParams | None = None) -> StateVector:
    return StateVector({BasisIndex(j, m): ONE}, j_cut=j_cut,
                       rep=rep or RepParams())


# ---------------------------------------------------------------------------
# operator actions
# ---------------------------------------------------------------------------

def _emit(contribs: list, key: BasisIndex, amp: LogComplex):
    if not amp.is_zero:
        contribs.append((key, amp))


def _collect(contribs: Iterable, s: StateVector) -> StateVector:
    """Combine per-index contributions, dropping (and counting) j > j_cut."""
    buckets: dict = {}
    lost = [s.lost_log]
    for key, amp in contribs:
        if key.j > s.j_cut:
            lost.append(amp.abs_sq_log())
            continue
        buckets.setdefault(key, []).append(amp)
    amps = {}
    for key, terms in buckets.items():
        total = terms[0] if len(terms) == 1 else log_complex_sum(terms)
        if not total.is_zero:
            amps[key] = total
    return replace(s, amplitudes=amps, lost_log=log_sum_exp(lost))


def _jplus_coef(j: int, m: int) -> float:
    return math.sqrt((j - m) * (j + m + 1))


def _jminus_coef(j: int, m: int) -> float:
    return math.sqrt((j + m) * (j - m + 1))


def apply_J(which: str, s: StateVector) -> StateVector:
    """Exact action of J3, J+/-, or J^2 (ladder shifts never change j)."""
    contribs: list = []
    for (j, m), a in s.amplitudes.items():
        if which == "J3":
            _emit(contribs, BasisIndex(j, m), a * LogComplex.from_real(m))
        elif which == "Jsq":
            _emit(contribs, BasisIndex(j, m),
                  a * LogComplex.from_real(j * (j + 1)))
        elif which == "Jplus":
            if m < j:
                _emit(contribs, BasisIndex(j, m + 1),
                      a * LogComplex.from_real(_jplus_coef(j, m)))
        elif which == "Jminus":
            if m > -j:
                _emit(contribs, BasisIndex(j, m - 1),
                      a * LogComplex.from_real(_jminus_coef(j, m)))
        else:
            raise ValueError(f"unknown J operator {which!r}")
    return _collect(contribs, s)


def _x_terms(which: str, j: int, m: int, r: float):
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
    """Position-operator action; X1, X2 are the Hermitian ladder combinations."""
    r = s.rep.r
    if which == "X1":
        return state_sum([state_scale(apply_X("Xplus", s), complex(0.5)),
                          state_scale(apply_X("Xminus", s), complex(0.5))])
    if which == "X2":
        return state_sum([state_scale(apply_X("Xplus", s), complex(0, -0.5)),
                          state_scale(apply_X("Xminus", s), complex(0, 0.5))])
    contribs: list = []
    for (j, m), a in s.amplitudes.items():
        for key, coef in _x_terms(which, j, m, r):
            if coef != 0.0:
                _emit(contribs, key, a * LogComplex.from_real(coef))
    return _collect(contribs, s)


def _z_terms(which: str, j: int, m: int):
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
    for (j, m), a in s.amplitudes.items():
        for key, coef in _z_terms(which, j, m):
            _emit(contribs, key, a * coef)
    return _collect(contribs, s)


def _jsq_scalar_logs(j: int) -> tuple[float, float]:
    """Log values of the two scalar J^2 functions entering the generator.

    With s = sqrt(1 + 4 j(j+1)) = 2j + 1:
        f(j) = e^{1/2} (sinh(s/2)/s + cosh(s/2))
        g(j) = 2 e^{1/2} sinh(s/2)/s
    Rewritten around e^{s/2} so they stay finite in log form for any j.
    """
    sv = 2.0 * j + 1.0
    es = math.exp(-sv)
    logf = 0.5 + sv / 2 - math.log(2.0) + math.log((1 - es) / sv + 1 + es)
    logg = 0.5 + sv / 2 + math.log1p(-es) - math.log(sv)
    return logf, logg


def _diag_mul_logs(s: StateVector, log_by_j) -> StateVector:
    amps = {k: a.scaled_log(log_by_j(k.j)) for k, a in s.amplitudes.items()}
    return replace(s, amplitudes=amps)


def apply_Z_vector_form(which: str, s: StateVector) -> StateVector:
    """Generator built from scalar functions of J^2, X and the J x X product.

    Independent route to the same operators: f(J^2) X_i / r plus
    i g(J^2) (J x X)_i / r with J kept to the left of X and both scalar
    functions applied after the vector part (they are diagonal in j).
    Serves as a cross-check oracle for apply_Z.
    """
    idx = {"Z1": 0, "Z2": 1, "Z3": 2}[which]
    xs = ("X1", "X2", "X3")
    js = ("J1", "J2", "J3")
    r = s.rep.r

    def apply_j_cart(k: str, st: StateVector) -> StateVector:
        if k == "J3":
            return apply_J("J3", st)
        if k == "J1":
            return state_sum([state_scale(apply_J("Jplus", st), complex(0.5)),
                              state_scale(apply_J("Jminus", st), complex(0.5))])
        return state_sum([state_scale(apply_J("Jplus", st), complex(0, -0.5)),
                          state_scale(apply_J("Jminus", st), complex(0, 0.5))])

    t1 = _diag_mul_logs(apply_X(xs[idx], s), lambda j: _jsq_scalar_logs(j)[0])

    jn, kn = (idx + 1) % 3, (idx + 2) % 3
    cross = state_sum([
        apply_j_cart(js[jn], apply_X(xs[kn], s)),
        state_scale(apply_j_cart(js[kn], apply_X(xs[jn], s)), complex(-1.0)),
    ])
    t2 = state_scale(
        _diag_mul_logs(cross, lambda j: _jsq_scalar_logs(j)[1]), complex(0, 1))

    return state_scale(state_sum([t1, t2]), complex(1.0 / r))


_J_LABELS = {"J3", "Jplus", "Jminus", "Jsq"}
_X_LABELS = {"X1", "X2", "X3", "Xplus", "Xminus"}
_Z_LABELS = {"Z1", "Z2", "Z3"}


def apply_operator(which: str, s: StateVector) -> StateVector:
    if which in _J_LABELS:
        return apply_J(which, s)
    if which in _X_LABELS:
        return apply_X(which, s)
    if which in _Z_LABELS:
        return apply_Z(which, s)
    raise ValueError(f"unknown operator label {which!r}")


# ---------------------------------------------------------------------------
# linear structure and brackets
# ---------------------------------------------------------------------------

def state_scale(s: StateVector, c: complex) -> StateVector:
    cl = LogComplex.from_complex(c)
    if cl.is_zero:
        return replace(s, amplitudes={})
    amps = {k: a * cl for k, a in s.amplitudes.items()}
    return replace(s, amplitudes=amps,
                   lost_log=s.lost_log + cl.abs_sq_log())


def state_sum(states: list[StateVector]) -> StateVector:
    """Sum of states sharing rep and j_cut, amplitude-wise in log domain."""
    first = states[0]
    for st in states[1:]:
        if st.rep != first.rep or st.j_cut != first.j_cut:
            raise ValueError("states to sum must share rep params and j_cut")
    buckets: dict = {}
    for st in states:
        for k, a in st.amplitudes.items():
            buckets.setdefault(k, []).append(a)
    amps = {}
    for k, terms in buckets.items():
        t = terms[0] if len(terms) == 1 else log_complex_sum(terms)
        if not t.is_zero:
            amps[k] = t
    return replace(first, amplitudes=amps,
                   lost_log=log_sum_exp(st.lost_log for st in states))


def inner_log(a: StateVector, b: StateVector) -> LogComplex:
    """<a|b> (conjugation on a) as a LogComplex."""
    if a.rep != b.rep:
        raise ValueError("inner product across different rep params")
    small, other, conj_small = ((a, b, True) if len(a.amplitudes) <= len(b.amplitudes)
                                else (b, a, False))
    terms = []
    for k, va in small.amplitudes.items():
        vb = other.amplitudes.get(k)
        if vb is None:
            continue
        terms.append((va.conj() * vb) if conj_small else (vb.conj() * va))
    return log_complex_sum(terms)


def inner(a: StateVector, b: StateVector) -> complex:
    return inner_log(a, b).to_complex()


# ---------------------------------------------------------------------------
# dense evaluation of expectation values and eigen-residuals
# ---------------------------------------------------------------------------
#
# A bilinear form <s|O|s> needs O|s> only as an intermediate, so it is
# evaluated on a dense view of s instead of through a sparse StateVector of
# LogComplex values: log-magnitude and phase arrays over the flat index
# j*j + j + m.  Every operator is a few branches |j, m> -> |j + dj, m + dm>
# whose coefficients are computed per call from the (j, m) grid.  The largest
# log-magnitude is subtracted before exponentiating, so nothing overflows and
# terms below e^-745 of the largest underflow to zero, as in log_complex_sum.

def _dense_view(s: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """(log-magnitude, phase) of s over the flat index j*j + j + m."""
    n = (s.j_cut + 1) ** 2
    lm = np.full(n, -math.inf)
    ph = np.zeros(n)
    for (j, m), a in s.amplitudes.items():
        k = j * j + j + m
        lm[k] = a.log_mag
        ph[k] = a.phase
    return lm, ph


def _rect_array(lm: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """exp(lm) e^{i ph}; quadrant phases stay exact, as in logdomain._rect."""
    mag = np.exp(lm)
    re = mag * np.cos(ph)
    im = mag * np.sin(ph)
    re[np.abs(ph) == 0.5 * math.pi] = 0.0
    im[ph == math.pi] = 0.0
    return re + 1j * im


def _grid(j_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """j and m at every flat index up to j_cut."""
    j = np.repeat(np.arange(j_cut + 1), 2 * np.arange(j_cut + 1) + 1)
    return j, np.arange(j.size) - j * (j + 1)


def _dense_branches(which: str, j: np.ndarray, m: np.ndarray,
                    r: float) -> list:
    """Branches (dj, dm, coef, log_weight) of an operator over the (j, m) grid.

    O|j, m> = sum over branches of coef e^{log_weight} |j + dj, m + dm>, and
    each coefficient vanishes wherever its target is not a basis index.
    These are vectorised copies of _jplus_coef, _jminus_coef, _x_terms and
    _z_terms (the tests hold them equal); the Z weights e^{-j-1} and e^{j}
    stay in log form.
    """
    if which in _Z_LABELS:
        weight = {1: -(j + 1.0), -1: j.astype(float)}
        return [(dj, dm, c, weight[dj])
                for dj, dm, c, _ in _dense_branches("X" + which[1], j, m, 1.0)]
    w0 = np.zeros(j.size)    # no log weight
    if which == "J3":
        return [(0, 0, m.astype(float), w0)]
    if which == "Jsq":
        return [(0, 0, (j * (j + 1)).astype(float), w0)]
    if which == "Jplus":
        return [(0, 1, np.sqrt((j - m) * (j + m + 1)), w0)]
    if which == "Jminus":
        return [(0, -1, np.sqrt((j + m) * (j - m + 1)), w0)]
    if which in ("X1", "X2"):
        fp, fm = (0.5, 0.5) if which == "X1" else (-0.5j, 0.5j)
        return ([(dj, dm, fp * c, w)
                 for dj, dm, c, w in _dense_branches("Xplus", j, m, r)]
                + [(dj, dm, fm * c, w)
                   for dj, dm, c, w in _dense_branches("Xminus", j, m, r)])
    up = np.sqrt((2 * j + 1) * (2 * j + 3))
    # j = 0 has no lowering branch: its numerators below vanish there
    dn = np.sqrt(np.maximum((2 * j - 1) * (2 * j + 1), 1))
    if which == "X3":
        return [(1, 0, r * np.sqrt((j - m + 1) * (j + m + 1)) / up, w0),
                (-1, 0, r * np.sqrt((j - m) * (j + m)) / dn, w0)]
    if which == "Xplus":
        return [(1, 1, -r * np.sqrt((j + m + 1) * (j + m + 2)) / up, w0),
                (-1, 1, r * np.sqrt((j - m - 1) * (j - m)) / dn, w0)]
    if which == "Xminus":
        return [(1, -1, r * np.sqrt((j - m + 1) * (j - m + 2)) / up, w0),
                (-1, -1, -r * np.sqrt((j + m - 1) * (j + m)) / dn, w0)]
    raise ValueError(f"unknown operator label {which!r}")


def _dense_apply(which: str, s: StateVector, lm: np.ndarray, ph: np.ndarray,
                 floor: float = -math.inf) -> tuple[float, np.ndarray]:
    """O|s> = e^top v on the flat grid, from the dense view (lm, ph) of s.

    top is the largest source log-magnitude plus branch weight, or `floor`
    if that is larger; raising past j_cut drops the term.
    """
    j, m = _grid(s.j_cut)
    terms = []
    for dj, dm, coef, weight in _dense_branches(which, j, m, s.rep.r):
        src = np.flatnonzero((coef != 0) & (lm > -math.inf)
                             & (j + dj <= s.j_cut))
        jt = j[src] + dj
        terms.append((jt * (jt + 1) + m[src] + dm, coef[src],
                      lm[src] + weight[src], ph[src]))
    top = max([floor] + [lg.max() for _, _, lg, _ in terms if lg.size])
    v = np.zeros(lm.size, dtype=complex)
    for tgt, coef, lg, phase in terms:
        # each branch maps distinct sources to distinct targets
        v[tgt] += coef * _rect_array(lg - top, phase)
    return top, v


def expectation(which: str, s: StateVector) -> complex:
    """<s|O|s> / <s|s> for any label apply_operator accepts.

    Evaluated on the dense view with the largest amplitude scaled to 1.
    """
    lm, ph = _dense_view(s)
    peak = lm.max()
    if peak == -math.inf:
        raise ValueError("expectation value in a zero-norm state")
    top, v = _dense_apply(which, s, lm, ph)
    a = _rect_array(lm - peak, ph)
    return complex(np.vdot(a, v) / np.vdot(a, a).real) * math.exp(top - peak)


def residual_norm(which: str, s: StateVector, value: complex,
                  j_max: int) -> float:
    """||(O - value)|s>|| / ||s||, counting only the levels j <= j_max."""
    lm, ph = _dense_view(s)
    peak = lm.max()
    if peak == -math.inf:
        raise ValueError("cannot normalize the zero state")
    lm = lm - peak - 0.5 * math.log(float(np.sum(np.exp(2 * (lm - peak)))))
    value = complex(value)
    lv = math.log(abs(value)) if value != 0 else -math.inf
    top, v = _dense_apply(which, s, lm, ph, floor=lm.max() + lv)
    if top == -math.inf:
        return 0.0
    d = (v - value * _rect_array(lm - top, ph))[:max(j_max + 1, 0) ** 2]
    sq = float(np.vdot(d, d).real)
    return math.exp(top + 0.5 * math.log(sq)) if sq > 0 else 0.0


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
    if d == -math.inf:
        return 0.0
    if ref == -math.inf:
        return math.inf
    return math.exp(0.5 * (d - ref))
