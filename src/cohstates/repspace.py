"""Truncated zero-twist unitary irrep of the Euclidean algebra e(3).

Basis vectors |j, m> are joint eigenvectors of J^2 and J3 with integer j >= 0
and |m| <= j (the twist, i.e. the J.X/r Casimir, is fixed at zero, which
forces the minimal j to be 0 and all labels integer).  A state is a pair of
log-magnitude and phase arrays over every (j, m) up to the truncation level
j_cut.  Each operator's matrix elements are written down once, as a list
of branches that shift (j, m) by at most one step in each index and form
their coefficients on call.  On the state laid out on a padded (j, m)
array every branch is a shifted slice: the image (O - value)|s>, which
the eigen-residuals and apply_* read, adds them up, and an expectation
value sums each branch's share of <s|O|s> without forming the image.
The identity sweeps act through banded tables built from the same list.
What an operator raises past j_cut is dropped, and tail_fraction guards
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .logdomain import (log_sum_exp, peak_sum, polar_array, rect_array,
                        wrap_phase)

__all__ = [
    "StateVector",
    "basis_state",
    "apply_J",
    "apply_X",
    "apply_Z",
    "BandTable",
    "operator_table",
    "identity_table",
    "jsq_tables",
    "z_vector_form_tables",
    "state_sum",
    "state_scale",
    "expectation",
    "residual_norm",
    "grid",
]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes exp(log_mag) e^{i phase} over the flat index j*j + j + m.

    Both arrays hold (j_cut + 1)^2 entries and are read-only: operations
    return fresh instances.  log_mag = -inf is an exact zero (stored with
    phase 0), and phases are kept in (-pi, pi] so quadrant phases stay exact.
    """

    log_mag: np.ndarray
    phase: np.ndarray
    j_cut: int

    def __post_init__(self):
        n = (self.j_cut + 1) ** 2
        lm = np.array(self.log_mag, dtype=float)
        ph = np.asarray(self.phase, dtype=float)
        if lm.shape != (n,) or ph.shape != (n,):
            raise ValueError(f"j_cut={self.j_cut} needs {n} log-magnitudes "
                             f"and phases, got {lm.shape} and {ph.shape}")
        ph = np.where(lm > -math.inf, wrap_phase(ph), 0.0)
        lm.flags.writeable = ph.flags.writeable = False
        object.__setattr__(self, "log_mag", lm)
        object.__setattr__(self, "phase", ph)

    def nonzero(self) -> tuple[np.ndarray, ...]:
        """j, m, log-magnitude and phase of every nonzero amplitude, as
        arrays in (j, m) order; j is read off the flat index."""
        k = np.flatnonzero(self.log_mag > -math.inf)
        j = np.sqrt(k).astype(int)      # j*j <= k = j*j + j + m < (j + 1)^2
        return j, k - j * (j + 1), self.log_mag[k], self.phase[k]

    @cached_property
    def amplitudes(self) -> MappingProxyType:
        """Read-only {(j, m): (log_mag, phase)} view of the nonzero
        amplitudes, built on first use for tests and tracing; the library
        reads the arrays."""
        j, m, lm, ph = (x.tolist() for x in self.nonzero())
        return MappingProxyType(dict(zip(zip(j, m), zip(lm, ph))))

    # The memo, three entries read off the read-only arrays on first use and
    # kept as long as the state: the log squared norm, the unit-norm rows and
    # the expectation values.  Like `amplitudes`, it lives in the instance's
    # own dict, so every new state, replace() included, starts without it.

    @cached_property
    def _log_norm_sq(self) -> float:
        return log_sum_exp(2 * self.log_mag)

    @cached_property
    def _unit_rows(self) -> tuple:
        """The unit-norm state on the padded grid [j, m + j_cut], zero where
        |m| > j, as (top, rows, norm_sq): top[j] is the largest unit-norm
        log-magnitude of level j (-inf for an empty one), rows[j] the level
        scaled by e^{-top[j]}, and norm_sq the squared norm they add up to.
        Callers check first that the state is nonzero."""
        lm, n = self.log_mag - 0.5 * self._log_norm_sq, self.j_cut + 1
        starts = np.arange(n) ** 2
        top = np.maximum.reduceat(lm, starts)
        j, m = grid(self.j_cut)
        vals = rect_array(lm - np.where(top > -math.inf, top, 0.0)[j],
                          self.phase)
        rows = np.zeros((n, 2 * n - 1), dtype=complex)
        rows[j, m + self.j_cut] = vals
        v = vals.view(float).reshape(-1, 2)
        norm_sq = np.exp(2 * top) @ np.add.reduceat(
            np.einsum("ij,ij->i", v, v), starts)
        return top, rows, norm_sq

    @cached_property
    def _expectations(self) -> dict:
        """{operator label: expectation value}, filled by expectation()."""
        return {}

    def log_norm_sq(self) -> float:
        return self._log_norm_sq

    def tail_fraction(self) -> float:
        """Fraction of squared norm carried by the top two j levels."""
        total = self.log_norm_sq()
        if total == -math.inf:
            return 0.0
        top = self.log_mag[max(self.j_cut - 1, 0) ** 2:]
        return math.exp(log_sum_exp(2 * top) - total)


def basis_state(j: int, m: int, j_cut: int) -> StateVector:
    if not (0 <= j <= j_cut and abs(m) <= j):
        raise ValueError(
            f"invalid basis index (j={j}, m={m}) at j_cut={j_cut}")
    lm = np.full((j_cut + 1) ** 2, -math.inf)
    lm[j * j + j + m] = 0.0
    return StateVector(lm, np.zeros(lm.size), j_cut)


# ---------------------------------------------------------------------------
# operator actions
# ---------------------------------------------------------------------------

_J_LABELS = {"J3", "Jplus", "Jminus", "Jsq"}
_X_LABELS = {"X1", "X2", "X3", "Xplus", "Xminus"}
_Z_LABELS = {"Z1", "Z2", "Z3"}
# A1 = fp A+ + fm A- for the factors (fp, fm) under "1", and A2 under "2":
# the Hermitian Cartesian components of a ladder pair, for J and X alike
_LADDER_PAIR = {"1": (0.5, 0.5), "2": (-0.5j, 0.5j)}


def _apply(which: str, s: StateVector, labels: set) -> StateVector:
    """O|s>, read off the image of the unit-norm state and scaled back by
    the norm of s; what O raises past j_cut is dropped."""
    if which not in labels:
        raise ValueError(f"unknown operator label {which!r}")
    if s.log_norm_sq() == -math.inf:
        return s
    shift, d = _image(which, s, 0)
    j, m = grid(s.j_cut)
    return StateVector(*polar_array(shift[j] + 0.5 * s.log_norm_sq(),
                                    d[j, m + s.j_cut]), s.j_cut)


def apply_J(which: str, s: StateVector) -> StateVector:
    """Exact action of J3, J+/-, or J^2 (ladder shifts never change j)."""
    return _apply(which, s, _J_LABELS)


def apply_X(which: str, s: StateVector) -> StateVector:
    """Position-operator action; X1, X2 are the Hermitian ladder combinations."""
    if which in ("X1", "X2"):
        fp, fm = _LADDER_PAIR[which[1]]
        return state_sum([state_scale(apply_X("Xplus", s), fp),
                          state_scale(apply_X("Xminus", s), fm)])
    return _apply(which, s, _X_LABELS)


def apply_Z(which: str, s: StateVector) -> StateVector:
    """Coherent-state generator action from its explicit matrix elements."""
    return _apply(which, s, _Z_LABELS)


# ---------------------------------------------------------------------------
# linear structure
# ---------------------------------------------------------------------------

def state_scale(s: StateVector, c: complex) -> StateVector:
    c = complex(c)
    lc = math.log(abs(c)) if c else -math.inf
    return replace(s, log_mag=s.log_mag + lc,
                   phase=s.phase + math.atan2(c.imag, c.real))


def state_sum(states: list[StateVector]) -> StateVector:
    """Sum of states sharing j_cut, each amplitude summed around its largest
    term."""
    first = states[0]
    if any(s.j_cut != first.j_cut for s in states):
        raise ValueError("states to sum must share j_cut")
    shift, acc = peak_sum(np.array([s.log_mag for s in states]),
                          rect_array(0.0, np.array([s.phase for s in states])))
    return StateVector(*polar_array(shift, acc), first.j_cut)


# ---------------------------------------------------------------------------
# expectation values and eigen-residuals on the state's arrays
# ---------------------------------------------------------------------------
#
# The flat index j*j + j + m is laid out by grid(); logdomain's rect_array()
# turns (log-magnitude, phase) arrays into values and polar_array() back.
# An operator acts on a state through one branch list, _dense_branches,
# read on the padded (j_cut + 1) x (2 j_cut + 1) grid [j, m + j_cut], zero
# where |m| > j.  Every branch moves (j, m) by at most one step in each
# index, so on that grid it is a shifted slice: its coefficients times the
# source slice land on the target slice, and what it would raise past
# j_cut falls off the edge.  _image adds the branches into (O - value)|s>,
# which the residual and apply_* read; expectation sums each branch's
# share of <s|O|s> row by row, without forming the image.  Each row j is
# held relative to its own largest log-magnitude, and the row scales, the
# branch weights e^{j} and e^{-j-1} of Z among them, are combined as logs,
# so nothing overflows; terms below e^-745 of the largest in their row
# underflow to zero.  The sums over rows are logdomain.peak_sum.

def grid(j_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """j and m at every flat index j*j + j + m up to j_cut."""
    j = np.repeat(np.arange(j_cut + 1), 2 * np.arange(j_cut + 1) + 1)
    return j, np.arange(j.size) - j * (j + 1)


def _root(x):
    """sqrt(x) for a product that is >= 0 at every basis index; 0 off the
    basis, where the padded grid evaluates it too.  x is a fresh integer
    array, clipped in place."""
    return np.sqrt(np.maximum(x, 0, out=x))


def _diagonal(j: np.ndarray, m: np.ndarray, f) -> np.ndarray:
    """f(k) at k = j + m, gathered from a table of f over -J <= k <= 2 J
    for J the largest j: a coefficient on one diagonal of either grid, where
    |m| <= J."""
    jmax = j.max()
    return f(np.arange(-jmax, 2 * jmax + 1)).take((j + jmax) + m)


def _dense_branches(which: str, j: np.ndarray, m: np.ndarray) -> list:
    """Branches (dj, dm, coef, log_weight) of an operator over the (j, m) grid,
    as a list in which coef() forms the branch's coefficient array.

    O|j, m> = sum over branches of coef() e^{log_weight} |j + dj, m + dm>,
    and each coefficient vanishes wherever its target is not a basis index.
    j and m are the flat grid(), or a j column and an m row, which give
    arrays that broadcast over the padded grid (0 off the basis).  A log
    weight depends on j only, so the shifts and weights are read with no
    coefficient formed, and a caller that calls coef() where it uses it
    holds no coefficient past its branch.  This is the one place the matrix
    elements are written down (the tests hold them equal to the scalar
    formulas).  The position operators at zero twist are tridiagonal in j
    with no diagonal term, so X strictly changes j.  X is the position
    operator at unit radius: the radius r only scales <X>, which the sphere
    reports multiply by r.  Z has the selection rules of X with the raising
    branch weighted by e^{-j-1} and the lowering branch by e^{j}, kept in
    log form.  A radicand on one diagonal of the grid is read off a table
    over that diagonal; every radicand is the integer of the product of
    the matrix element's two factors, so the roots are those of the
    product.
    """
    if which in _Z_LABELS:
        weight = {1: -(j + 1.0), -1: j.astype(float)}
        return [(dj, dm, c, weight[dj])
                for dj, dm, c, _ in _dense_branches("X" + which[1], j, m)]
    w0 = np.zeros(j.shape)    # no log weight
    if which == "J3":
        return [(0, 0, lambda: m.astype(float), w0)]
    if which == "Jsq":
        return [(0, 0, lambda: (j * (j + 1)).astype(float), w0)]
    if which == "Jplus":
        return [(0, 1, lambda: _root(j * (j + 1) - m * (m + 1)), w0)]
    if which == "Jminus":
        return [(0, -1, lambda: _root(j * (j + 1) - m * (m - 1)), w0)]
    if which in ("J1", "J2", "X1", "X2"):
        return [(dj, dm, lambda f=f, c=c: f * c(), w)
                for f, side in zip(_LADDER_PAIR[which[1]], ("plus", "minus"))
                for dj, dm, c, w in _dense_branches(which[0] + side, j, m)]
    if which not in ("X3", "Xplus", "Xminus"):
        raise ValueError(f"unknown operator label {which!r}")
    up = np.sqrt((2 * j + 1) * (2 * j + 3))
    # j = 0 has no lowering branch: its numerators below vanish there
    dn = np.sqrt(np.maximum((2 * j - 1) * (2 * j + 1), 1))
    if which == "X3":
        def x3(k, den):     # divided in place: forming it holds one grid
            c = _root(k ** 2 - m ** 2)
            c /= den
            return c
        return [(1, 0, lambda: x3(j + 1, up), w0),
                (-1, 0, lambda: x3(j, dn), w0)]
    # the raising radicand on the diagonal k = j + dm m, the lowering one on
    # k = j - dm m
    dm = 1 if which == "Xplus" else -1
    return [(1, dm, lambda: _diagonal(j, dm * m, lambda k: -dm * _root(
                (k + 1) * (k + 2))) / up, w0),
            (-1, dm, lambda: _diagonal(j, -dm * m, lambda k: dm * _root(
                (k - 1) * k)) / dn, w0)]


def _shift(d: int, n: int) -> tuple[slice, slice]:
    """Source and target slices of an axis of length n shifted by d."""
    return slice(max(-d, 0), n - max(d, 0)), slice(max(d, 0), n + min(d, 0))


def _padded(which: str, s: StateVector) -> tuple:
    """(top, rows, norm_sq) of s._unit_rows, with the padded grid's j column
    and m row, for a label apply_J, apply_X or apply_Z accepts and a
    nonzero s."""
    if s.log_norm_sq() == -math.inf:
        raise ValueError("expectation value or residual of the zero state")
    if which not in _J_LABELS | _X_LABELS | _Z_LABELS:
        raise ValueError(f"unknown operator label {which!r}")
    n = s.j_cut + 1
    return (*s._unit_rows, np.arange(n)[:, None], np.arange(1 - n, n)[None])


def _image(which: str, s: StateVector, value: complex) -> tuple:
    """(O - value)|s> for the unit-norm s on the padded grid, as (shift, d):
    row j of the image is e^{shift[j]} d[j].

    Each target row is summed relative to the largest source row scale plus
    weight among its terms, read first off the branches' shifts and log
    weights.  Each branch's coefficient is then formed inside the sum that
    adds it, so one is held at a time, where peak_sum's stacked form would
    hold one full array per branch.  A coefficient spans each axis its
    branch shifts along, so it slices as the source."""
    top, rows, _, j, m = _padded(which, s)
    n = s.j_cut + 1
    # -value is one more branch, taken first, and only when it is nonzero
    branches = [(0, 0, lambda: np.full((1, 1), -value / abs(value)),
                 np.full((n, 1), math.log(abs(value))))] if value else []
    branches += _dense_branches(which, j, m)
    scale = np.full(n, -math.inf)
    for dj, _, _, w in branches:
        sr, tr = _shift(dj, n)
        scale[tr] = np.maximum(scale[tr], top[sr] + w[sr, 0])
    shift = np.where(scale > -math.inf, scale, 0.0)
    d = np.zeros(rows.shape, dtype=complex)
    for dj, dm, coef, w in branches:
        (sr, tr), (sc, tc) = _shift(dj, n), _shift(dm, 2 * n - 1)
        d[tr, tc] += (coef()[sr, sc]
                      * np.exp(top[sr] + w[sr, 0] - shift[tr])[:, None]
                      * rows[sr, sc])
    return shift, d


def _expect_stack(states: list, which: str) -> None:
    """Fill the memos of states sharing j_cut that lack the label: its
    branches are walked once for all of them, each coefficient formed once
    and read against every state's own rows in place, and peak_sum adds one
    state's terms e^{top_j + weight_j + top_t} sum_m conj(rows_t) coef
    rows_j, per branch from row j to t.  A state holding the label passed
    the checks the others get first."""
    todo = [s for s in states if which not in s._expectations]
    if not todo:
        return
    *_, j, m = [_padded(which, s) for s in todo][-1]
    terms = [([], []) for _ in todo]
    for dj, dm, coef, w in _dense_branches(which, j, m):
        (sr, tr), (sc, tc) = _shift(dj, len(j)), _shift(dm, m.size)
        c = coef()
        for s, (logs, sums) in zip(todo, terms):
            top, rows, _ = s._unit_rows
            logs.append(top[sr] + w[sr, 0] + top[tr])
            sums.append(np.einsum("ij,ij,ij->i", rows[tr, tc].conj(),
                                  c[sr, sc], rows[sr, sc]))
    for s, (logs, sums) in zip(todo, terms):
        t, acc = peak_sum(np.concatenate(logs), np.concatenate(sums))
        # norm_sq is 1 but for rounding: dividing by it cancels the
        # rounding of the log_norm_sq that scaled the rows (1e-12 at 1e4)
        s._expectations[which] = complex(acc / s._unit_rows[2]) * math.exp(t)


def expectation(which: str, s: StateVector) -> complex:
    """<s|O|s> / <s|s> for a label apply_J, apply_X or apply_Z accepts, by
    _expect_stack, which walks the label's branches once for a list of
    states; s's memo keeps the value."""
    _expect_stack([s], which)
    return s._expectations[which]


def residual_norm(which: str, s: StateVector, value: complex) -> float:
    """||(O - value)|s>|| / ||s|| on the truncation interior, the levels
    j <= j_cut - 2: the rows' squared norms by peak_sum, zero rows at -inf."""
    shift, d = _image(which, s, value)
    v = d[:max(s.j_cut - 1, 0)].view(float)
    sq = np.einsum("ij,ij->i", v, v)
    t, acc = peak_sum(np.where(sq > 0, 2 * shift[:len(v)], -math.inf), sq)
    return math.exp(0.5 * (t + math.log(acc))) if acc else 0.0


# ---------------------------------------------------------------------------
# operators on every basis vector at once: banded coefficient tables
# ---------------------------------------------------------------------------
#
# An operator identity that holds on every basis vector is one identity
# between tables.  A table stores the image of every basis vector in diagonal
# form: a few bands (dj, dm, row, col), each a coefficient array over the
# flat index j*j + j + m of the sources, which it moves from component col
# to row.  J, X and Z have one component; the spinor operators have two,
# and verify multiplies, adds and norms them but never applies one to a
# state.  A product gathers one table at the other's targets, O(bands^2
# (j_cut+1)^2), and drops targets past j_cut between the factors.  Plain
# doubles hold the coefficients, the e^{j} weights of Z and e^{-K} included:
# at verify's largest cut, 200, the largest is 4.8e172 (of Z1 Z1).  A table
# that overflows raises ValueError when it is built (Z from cut 710, e^{-K}
# from 702, Z Z from 357); the _unchecked arithmetic leaves it to that guard.
_unchecked = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class BandTable:
    """Operator on every basis vector of every component at once: band
    key = (dj, dm, row, col) sends |j, m> in component col to
    bands[key][j*j + j + m] |j + dj, m + dm> in component row.  Every
    coefficient is finite, or the table is not built, and 0 wherever its
    target is not a basis vector (j + dj < 0 or |m + dm| > j + dj): the
    matrix elements vanish there, and sums and products keep it so.  Targets
    past j_cut may carry coefficients; products and norms drop them, and
    need only the target level j + dj to find them."""

    bands: dict
    j_cut: int

    def __post_init__(self):
        if not all(np.isfinite(c).all() for c in self.bands.values()):
            raise ValueError(f"table overflows a double at j_cut={self.j_cut}")

    @property
    def components(self) -> int:
        return 1 + max(max(key[2:]) for key in self.bands)

    def _check_shape(self, other: "BandTable") -> None:
        if (self.j_cut, self.components) != (other.j_cut, other.components):
            raise ValueError("tables must share j_cut and components")

    @_unchecked
    def __matmul__(self, other: "BandTable") -> "BandTable":
        """The product self other, in which other acts first.  Each band
        shift of other finds its targets once, as flat indices that take()
        clips to the table: an index it clips is off the basis, where other's
        coefficient is 0, or past j_cut, where it is dropped."""
        self._check_shape(other)
        j, m = grid(self.j_cut)
        targets = {}
        for dj, dm in {key[:2] for key in other.bands}:
            jt = j + dj
            targets[dj, dm] = jt * (jt + 1) + m + dm, jt <= self.j_cut
        bands: dict = {}
        for kb, cb in other.bands.items():
            tgt, inside = targets[kb[:2]]
            w = np.where(inside, cb, 0)
            for ka, ca in self.bands.items():
                if ka[3] == kb[2]:
                    key = (ka[0] + kb[0], ka[1] + kb[1], ka[2], kb[3])
                    bands[key] = (bands.get(key, 0)
                                  + ca.take(tgt, mode="clip") * w)
        return BandTable(bands, self.j_cut)

    @_unchecked
    def __add__(self, other: "BandTable") -> "BandTable":
        self._check_shape(other)
        bands = dict(self.bands)
        for key, coef in other.bands.items():
            bands[key] = bands.get(key, 0) + coef
        return BandTable(bands, self.j_cut)

    @_unchecked
    def __rmul__(self, c: complex) -> "BandTable":
        return BandTable({k: c * v for k, v in self.bands.items()}, self.j_cut)

    def __sub__(self, other: "BandTable") -> "BandTable":
        return self + (-1.0) * other

    def column_norms(self, j_max: int | None = None) -> np.ndarray:
        """Norm of every source's image over the targets with j <= j_max
        (default j_cut), component after component, its squares summed
        relative to its largest coefficient so that they cannot overflow."""
        j = grid(self.j_cut)[0]
        j_max = self.j_cut if j_max is None else j_max
        norms = []
        for col in range(self.components):
            mags = [np.abs(c) * (j + key[0] <= j_max)
                    for key, c in self.bands.items() if key[3] == col]
            top = np.max(mags, axis=0)
            unit = np.where(top > 0, top, 1.0)
            norms.append(top * np.sqrt(sum((a / unit) ** 2 for a in mags)))
        return np.concatenate(norms)


@_unchecked
def operator_table(which: str, j_cut: int) -> BandTable:
    """Table of J1, J2 or any label apply_J, apply_X or apply_Z accepts: one
    band per dense branch."""
    return BandTable({(dj, dm, 0, 0): c() * np.exp(w) for dj, dm, c, w
                      in _dense_branches(which, *grid(j_cut))}, j_cut)


def identity_table(j_cut: int, components: int = 1) -> BandTable:
    return BandTable({(0, 0, c, c): np.ones((j_cut + 1) ** 2)
                      for c in range(components)}, j_cut)


@_unchecked
def jsq_tables(j_cut: int) -> tuple[BandTable, BandTable]:
    """The diagonal tables of the generator's two scalar J^2 functions,
    with s = sqrt(1 + 4 j(j+1)) = 2j + 1: f(j) = e^{1/2} (sinh(s/2)/s +
    cosh(s/2)) and g(j) = 2 e^{1/2} sinh(s/2)/s."""
    h = grid(j_cut)[0] + 0.5
    return tuple(BandTable({(0, 0, 0, 0): math.exp(0.5) * v}, j_cut)
                 for v in (np.sinh(h) / (2 * h) + np.cosh(h), np.sinh(h) / h))


def z_vector_form_tables(j_cut: int) -> list[BandTable]:
    """[Z1, Z2, Z3] built from scalar functions of J^2, X/r and J x X.

    Independent route to the same operators: f(J^2) X_i / r plus
    i g(J^2) (J x X)_i / r with J kept to the left of X and both scalar
    functions applied after the vector part (they are diagonal in j).  X/r
    is the position operator table, at unit radius.  The J, X, f and g
    tables are built once for all three.
    """
    js = [operator_table(f"J{i}", j_cut) for i in (1, 2, 3)]
    xs = [operator_table(f"X{i}", j_cut) for i in (1, 2, 3)]
    f, g = jsq_tables(j_cut)
    # (J x X)_i = J_j X_k - J_k X_j over the cyclic (i, j, k)
    return [f @ xs[i] + 1j * (g @ (js[j] @ xs[k] - js[k] @ xs[j]))
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
