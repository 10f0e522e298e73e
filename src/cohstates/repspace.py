"""Truncated zero-twist unitary irrep of the Euclidean algebra e(3).

Basis vectors |j, m> are joint eigenvectors of J^2 and J3 with integer j >= 0
and |m| <= j (the twist, i.e. the J.X/r Casimir, is fixed at zero, which
forces the minimal j to be 0 and all labels integer).  States are sparse maps
from (j, m) to log-domain amplitudes; operators act exactly through their
known matrix elements, and anything raised past the truncation level j_cut is
dropped into a loss counter instead of vanishing silently.  Expectation
values and eigen-residuals are evaluated on a dense view of the state, and
operators are held as tables of their action on every basis vector at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .logdomain import LogComplex, ONE, log_complex_sum, log_sum_exp

__all__ = [
    "BasisIndex",
    "RepParams",
    "StateVector",
    "basis_state",
    "apply_J",
    "apply_X",
    "apply_Z",
    "apply_table",
    "BandTable",
    "operator_table",
    "identity_table",
    "jsq_tables",
    "z_vector_form_table",
    "state_sum",
    "state_scale",
    "inner_log",
    "inner",
    "expectation",
    "relative_residual",
    "residual_norm",
    "grid",
    "rect_array",
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

    @cached_property
    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(log-magnitude, phase) arrays over the flat index j*j + j + m,
        built once per state and read-only."""
        n = (self.j_cut + 1) ** 2
        lm = np.full(n, -math.inf)
        ph = np.zeros(n)
        for (j, m), a in self.amplitudes.items():
            k = j * j + j + m
            lm[k] = a.log_mag
            ph[k] = a.phase
        lm.flags.writeable = ph.flags.writeable = False
        return lm, ph

    @classmethod
    def from_dense(cls, lm: np.ndarray, ph: np.ndarray, j_cut: int,
                   rep: RepParams, lost_log: float = -math.inf
                   ) -> "StateVector":
        """The state with the amplitudes exp(lm) e^{i ph} on the flat grid;
        entries with lm = -inf are left out."""
        j, m = grid(j_cut)
        k = np.flatnonzero(lm > -math.inf)
        amps = {BasisIndex(jj, mm): LogComplex.from_polar(lg, p)
                for jj, mm, lg, p in zip(j[k].tolist(), m[k].tolist(),
                                         lm[k].tolist(), ph[k].tolist())}
        return cls(amps, j_cut=j_cut, rep=rep, lost_log=lost_log)


def basis_state(j: int, m: int, j_cut: int,
                rep: RepParams | None = None) -> StateVector:
    return StateVector({BasisIndex(j, m): ONE}, j_cut=j_cut,
                       rep=rep or RepParams())


# ---------------------------------------------------------------------------
# operator actions
# ---------------------------------------------------------------------------

_J_LABELS = {"J3", "Jplus", "Jminus", "Jsq"}
_X_LABELS = {"X1", "X2", "X3", "Xplus", "Xminus"}
_Z_LABELS = {"Z1", "Z2", "Z3"}


def _label_table(which: str, s: StateVector,
                 labels: set = _J_LABELS | _X_LABELS | _Z_LABELS) -> BandTable:
    if which not in labels:
        raise ValueError(f"unknown operator label {which!r}")
    return operator_table(which, s.j_cut, s.rep.r)


def apply_J(which: str, s: StateVector) -> StateVector:
    """Exact action of J3, J+/-, or J^2 (ladder shifts never change j)."""
    return apply_table(_label_table(which, s, _J_LABELS), s)[0]


def apply_X(which: str, s: StateVector) -> StateVector:
    """Position-operator action; X1, X2 are the Hermitian ladder combinations."""
    if which == "X1":
        return state_sum([state_scale(apply_X("Xplus", s), complex(0.5)),
                          state_scale(apply_X("Xminus", s), complex(0.5))])
    if which == "X2":
        return state_sum([state_scale(apply_X("Xplus", s), complex(0, -0.5)),
                          state_scale(apply_X("Xminus", s), complex(0, 0.5))])
    return apply_table(_label_table(which, s, _X_LABELS), s)[0]


def apply_Z(which: str, s: StateVector) -> StateVector:
    """Coherent-state generator action from its explicit matrix elements."""
    return apply_table(_label_table(which, s, _Z_LABELS), s)[0]


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
# j*j + j + m (laid out by grid(), turned into values by rect_array()).
# O|s> comes from the operator's table (below).  The largest log-magnitude
# is subtracted before exponentiating, so nothing overflows and terms below
# e^-745 of the largest underflow to zero, as in log_complex_sum.

def rect_array(lm: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """exp(lm) e^{i ph} of a dense view; quadrant phases stay exact, as in
    logdomain._rect."""
    mag = np.exp(lm)
    re = mag * np.cos(ph)
    im = mag * np.sin(ph)
    re[np.abs(ph) == 0.5 * math.pi] = 0.0
    im[ph == math.pi] = 0.0
    return re + 1j * im


def grid(j_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """j and m at every flat index j*j + j + m up to j_cut."""
    j = np.repeat(np.arange(j_cut + 1), 2 * np.arange(j_cut + 1) + 1)
    return j, np.arange(j.size) - j * (j + 1)


def _dense_branches(which: str, j: np.ndarray, m: np.ndarray,
                    r: float) -> list:
    """Branches (dj, dm, coef, log_weight) of an operator over the (j, m) grid.

    O|j, m> = sum over branches of coef e^{log_weight} |j + dj, m + dm>, and
    each coefficient vanishes wherever its target is not a basis index.
    This is the one place the matrix elements are written down (the tests
    hold them equal to the scalar formulas).  The position operators at zero
    twist are tridiagonal in j with no diagonal term, so X strictly changes
    j.  Z has the selection rules of X/r with the raising branch weighted by
    e^{-j-1} and the lowering branch by e^{j}, kept in log form.
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
    if which in ("J1", "J2", "X1", "X2"):
        # the Hermitian combinations of a ladder pair, for J and X alike
        factors = (0.5, 0.5) if which[1] == "1" else (-0.5j, 0.5j)
        return [(dj, dm, f * c, w)
                for f, side in zip(factors, ("plus", "minus"))
                for dj, dm, c, w in _dense_branches(which[0] + side, j, m, r)]
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


def expectation(which: str, s: StateVector) -> complex:
    """<s|O|s> / <s|s> for any label apply_J, apply_X or apply_Z accepts.

    Evaluated on the dense view with the largest amplitude scaled to 1.
    """
    lm, ph = s.dense
    peak = lm.max()
    if peak == -math.inf:
        raise ValueError("expectation value in a zero-norm state")
    lm = lm - peak
    top, acc, _ = _table_image(_label_table(which, s), lm, ph)
    t = max(top.max(), 0.0)    # at least the state's own peak, so finite
    a = rect_array(lm, ph)
    v = acc * np.exp(top - t)
    return complex(np.vdot(a, v) / np.vdot(a, a).real) * math.exp(t)


def residual_norm(which: str, s: StateVector, value: complex,
                  j_max: int) -> float:
    """||(O - value)|s>|| / ||s||, counting only the levels j <= j_max."""
    lm, ph = s.dense
    peak = lm.max()
    if peak == -math.inf:
        raise ValueError("cannot normalize the zero state")
    lm = lm - peak - 0.5 * math.log(float(np.sum(np.exp(2 * (lm - peak)))))
    value = complex(value)
    lv = math.log(abs(value)) if value != 0 else -math.inf
    top, acc, _ = _table_image(_label_table(which, s), lm, ph)
    t = max(top.max(), lm.max() + lv)
    if t == -math.inf:
        return 0.0
    d = (acc * np.exp(top - t)
         - value * rect_array(lm - t, ph))[:max(j_max + 1, 0) ** 2]
    sq = float(np.vdot(d, d).real)
    return math.exp(t + 0.5 * math.log(sq)) if sq > 0 else 0.0


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


# ---------------------------------------------------------------------------
# operators on every basis vector at once: banded coefficient tables
# ---------------------------------------------------------------------------
#
# An operator identity that holds on every basis vector is one identity
# between tables.  A table stores the image of every basis vector in diagonal
# form: a few bands (dj, dm, dc), each a coefficient array over the source
# columns.  Column c*n + j*j + j + m, with n = (j_cut + 1)^2, is |j, m> in
# component c: one-component tables act on the representation space,
# two-component ones on spinors.  Every column carries its own log scale, so
# the e^{j} weights of Z and e^{-K} cannot overflow.  A product gathers one
# table at the other's targets, O(bands^2 n), and drops targets past j_cut
# between the factors, as the sparse operator actions do.

@dataclass(frozen=True)
class BandTable:
    """Operator on every column at once.

    Column k is sent to sum over bands (dj, dm, dc) of
    e^{log_scale[k]} bands[(dj, dm, dc)][k] |j + dj, m + dm> in component
    c + dc, where (c, j, m) is the column's basis index.  Targets past j_cut
    may carry coefficients; products, norms and applications drop them.
    """

    bands: dict
    log_scale: np.ndarray
    j_cut: int

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Component, j and m of every column."""
        n = (self.j_cut + 1) ** 2
        comps = self.log_scale.size // n
        j, m = grid(self.j_cut)
        return (np.repeat(np.arange(comps), n), np.tile(j, comps),
                np.tile(m, comps))

    def _targets(self, key: tuple, j_max: int) -> tuple:
        """Target column of every column under band `key`, and whether it
        is a basis index with j <= j_max (the target is 0 where it is not)."""
        n = (self.j_cut + 1) ** 2
        c, j, m = self.columns
        ct, jt, mt = c + key[2], j + key[0], m + key[1]
        ok = ((jt >= 0) & (jt <= j_max) & (np.abs(mt) <= jt)
              & (ct >= 0) & (ct * n < self.log_scale.size))
        return np.where(ok, ct * n + jt * (jt + 1) + mt, 0), ok

    def _check_shape(self, other: "BandTable") -> None:
        if other.log_scale.shape != self.log_scale.shape:
            raise ValueError("tables must share j_cut and components")

    def __matmul__(self, other: "BandTable") -> "BandTable":
        """The product self other, in which other acts first."""
        self._check_shape(other)
        gathered = []
        for key, coef in other.bands.items():
            tgt, ok = other._targets(key, self.j_cut)
            scale = np.where(ok & (coef != 0), self.log_scale[tgt], -math.inf)
            gathered.append((key, coef, tgt, scale))
        top = np.nan_to_num(np.max([g[3] for g in gathered], axis=0,
                                   initial=-math.inf), neginf=0.0)
        bands: dict = {}
        for kb, cb, tgt, scale in gathered:
            w = cb * np.exp(scale - top)
            for ka, ca in self.bands.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                bands[key] = bands.get(key, 0) + ca[tgt] * w
        return BandTable(bands, other.log_scale + top, self.j_cut)

    def __add__(self, other: "BandTable") -> "BandTable":
        self._check_shape(other)
        top = np.maximum(self.log_scale, other.log_scale)
        bands: dict = {}
        for t in (self, other):
            f = np.exp(t.log_scale - top)
            for key, coef in t.bands.items():
                bands[key] = bands.get(key, 0) + coef * f
        return BandTable(bands, top, self.j_cut)

    def __rmul__(self, c: complex) -> "BandTable":
        return BandTable({k: c * v for k, v in self.bands.items()},
                         self.log_scale, self.j_cut)

    def __sub__(self, other: "BandTable") -> "BandTable":
        return self + (-1.0) * other

    def column_log_norms(self, j_max: int | None = None) -> np.ndarray:
        """log of the norm of every column's image over the targets with
        j <= j_max (default j_cut); -inf where that image is zero."""
        j_max = self.j_cut if j_max is None else j_max
        sq = np.zeros(self.log_scale.size)
        for key, coef in self.bands.items():
            sq += np.abs(coef) ** 2 * self._targets(key, j_max)[1]
        with np.errstate(divide="ignore"):
            return self.log_scale + 0.5 * np.log(sq)


def operator_table(which: str, j_cut: int, r: float = 1.0) -> BandTable:
    """Table of J1, J2 or any label apply_J, apply_X or apply_Z accepts: one
    band per dense branch, each column scaled to its largest branch weight."""
    branches = _dense_branches(which, *grid(j_cut), r)
    top = np.max([w for *_, w in branches], axis=0)
    return BandTable({(dj, dm, 0): c * np.exp(w - top)
                      for dj, dm, c, w in branches}, top, j_cut)


def identity_table(j_cut: int, components: int = 1) -> BandTable:
    n = components * (j_cut + 1) ** 2
    return BandTable({(0, 0, 0): np.ones(n)}, np.zeros(n), j_cut)


def _jsq_scalar_logs(j):
    """Log values of the two scalar J^2 functions entering the generator.

    With s = sqrt(1 + 4 j(j+1)) = 2j + 1:
        f(j) = e^{1/2} (sinh(s/2)/s + cosh(s/2))
        g(j) = 2 e^{1/2} sinh(s/2)/s
    Rewritten around e^{s/2} so they stay finite in log form for any j.
    """
    sv = 2.0 * j + 1.0
    es = np.exp(-sv)
    logf = 0.5 + sv / 2 - math.log(2.0) + np.log((1 - es) / sv + 1 + es)
    logg = 0.5 + sv / 2 + np.log1p(-es) - np.log(sv)
    return logf, logg


def jsq_tables(j_cut: int) -> tuple[BandTable, BandTable]:
    """The diagonal tables of f(J^2) and g(J^2)."""
    j, _ = grid(j_cut)
    return tuple(BandTable({(0, 0, 0): np.ones(j.size)}, logs, j_cut)
                 for logs in _jsq_scalar_logs(j))


def z_vector_form_table(which: str, j_cut: int) -> BandTable:
    """Generator built from scalar functions of J^2, X/r and the J x X product.

    Independent route to the same operators: f(J^2) X_i / r plus
    i g(J^2) (J x X)_i / r with J kept to the left of X and both scalar
    functions applied after the vector part (they are diagonal in j).  X/r
    is the position operator at r = 1, so the route does not depend on r.
    """
    idx = ("Z1", "Z2", "Z3").index(which)
    js = [operator_table(f"J{i}", j_cut) for i in (1, 2, 3)]
    xs = [operator_table(f"X{i}", j_cut) for i in (1, 2, 3)]
    f, g = jsq_tables(j_cut)
    jn, kn = (idx + 1) % 3, (idx + 2) % 3
    cross = js[jn] @ xs[kn] - js[kn] @ xs[jn]
    return f @ xs[idx] + 1j * (g @ cross)


def _table_image(t: BandTable, lm: np.ndarray, ph: np.ndarray) -> tuple:
    """The table's image of the dense view (lm, ph) over its columns.

    Returns (top, acc, lost): the image is e^{top} acc, each amplitude
    summed around its largest term as in log_complex_sum, and lost holds,
    per component, the log of the squared magnitude raised past j_cut.
    """
    n = (t.j_cut + 1) ** 2
    lm = lm + t.log_scale
    top = np.full(lm.size, -math.inf)
    lost = np.full(lm.size // n, -math.inf)
    terms = []
    for key, coef in t.bands.items():
        tgt, ok = t._targets(key, t.j_cut)
        live = (coef != 0) & (lm > -math.inf)
        with np.errstate(divide="ignore"):
            lg = lm + np.log(np.abs(coef))
        src = np.flatnonzero(live & ok)
        # each band maps distinct sources to distinct targets
        top[tgt[src]] = np.maximum(top[tgt[src]], lg[src])
        terms.append((tgt[src], lg[src], ph[src],
                      coef[src] / np.abs(coef[src])))
        gone = np.flatnonzero(live & ~ok)
        np.logaddexp.at(lost, gone // n + key[2], 2 * lg[gone])
    acc = np.zeros(lm.size, dtype=complex)
    for tgt, lg, phase, unit in terms:
        acc[tgt] += unit * rect_array(lg - top[tgt], phase)
    return top, acc, lost


def apply_table(t: BandTable, *components: StateVector) -> tuple:
    """The table's operator applied to a state given by its components.

    Each amplitude is summed around its largest contribution, as in
    log_complex_sum.  Terms raised past j_cut are dropped, and their squared
    magnitude is added to the lost_log of the component they would reach.
    """
    n = (t.j_cut + 1) ** 2
    if (any(s.j_cut != t.j_cut for s in components)
            or len(components) * n != t.log_scale.size):
        raise ValueError("states must match the table's j_cut and components")
    lm, ph = map(np.concatenate, zip(*(s.dense for s in components)))
    top, acc, lost = _table_image(t, lm, ph)
    with np.errstate(divide="ignore"):
        out_lm = top + np.log(np.abs(acc))
    out_ph = np.angle(acc)
    return tuple(
        StateVector.from_dense(out_lm[c * n:(c + 1) * n],
                               out_ph[c * n:(c + 1) * n], t.j_cut, s.rep,
                               float(np.logaddexp(s.lost_log, lost[c])))
        for c, s in enumerate(components))
