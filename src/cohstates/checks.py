"""Named verification checks behind the `verify` command.

Each check returns the worst residual over its sweep, the tolerance it is
held to, the number of cases and where the worst one was.  Identity
residuals, one per basis vector, are normalized by the largest operator
scale participating in the identity: the generator weights grow like e^{j},
so "equal to 1e-12" is a statement about the forward stability of each
composition, not about absolute amplitudes that no finite arithmetic could
resolve.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import (CirclePhasePoint, circle_coherent, circle_eigen_residual,
                     circle_expect_J, circle_expect_U,
                     circle_uncertainty_report)
from .repspace import (BandTable, identity_table, jsq_tables, operator_table,
                       z_vector_form_table)
from .specfun import gegenbauer, hyp2f1_terminating, log_factorial
from .spinor import k_table, v_table, z_from_matrix_table, z_matrix_entries
from .sphere import (SpherePhasePoint, coherent_closed_form,
                     coherent_ladder_generated, coherent_state,
                     coherent_triple_sum, default_j_cut, eigen_residual,
                     max_amplitude_rel_diff, phase_to_z, uncertainty_J)

__all__ = ["CheckResult", "run_all"]

IDENTITY_TOL = 1e-12
SERIES_TOL = 1e-10
PATH_TOL = 1e-10
RESIDUAL_TOL = 1e-8
TAIL_TOL = 1e-24

_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
_JN = ("J1", "J2", "J3")
_XN = ("X1", "X2", "X3")
_ZN = ("Z1", "Z2", "Z3")


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Worst residual of a check's sweep, against its tolerance.

    n_cases counts the residuals the worst was taken over; worst_at says
    where it occurred: a basis index [j, m] for the operator identities, a
    phase point {"x", "l"} or a grid value for the other sweeps.
    """

    name: str
    measured: float
    tolerance: float
    n_cases: int = 0
    worst_at: object = None

    def __post_init__(self):
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


class _Worst:
    """Largest residual of a sweep, where it occurred, and the case count;
    as with max() from 0, a NaN residual is never the largest."""

    def __init__(self):
        self.value, self.at, self.n = -math.inf, None, 0

    def add(self, value: float, at) -> None:
        self.n += 1
        if value > self.value:
            self.value, self.at = value, at

    def result(self, name: str, tolerance: float) -> CheckResult:
        return CheckResult(name, max(self.value, 0.0), tolerance, self.n,
                           self.at)


def _point(p: SpherePhasePoint) -> dict:
    return {"x": p.x.tolist(), "l": p.l.tolist()}


class _Sweep:
    """Table identities on every interior basis vector (j <= j_cut - 2).

    Each column's residual is ||lhs - rhs|| over the interior, relative to
    the largest participating norm: the interior parts of lhs and rhs and
    the full scale operands, the basis vector itself (`one`) included.
    """

    def __init__(self, j_cut: int, components: int = 1):
        self.one = identity_table(j_cut, components)
        _, self.j, self.m = self.one.columns
        self.interior = j_cut - 2
        self.inside = self.j <= self.interior
        self.worst = np.zeros(self.j.size)
        self.identities = 0

    def add(self, lhs: BandTable, rhs: BandTable | None,
            *scales: BandTable) -> None:
        """lhs = rhs on every column; rhs None stands for zero."""
        sides = [lhs] if rhs is None else [lhs, rhs]
        diff = lhs if rhs is None else lhs - rhs
        d = diff.column_log_norms(self.interior)
        ref = np.max([t.column_log_norms(self.interior) for t in sides]
                     + [t.column_log_norms() for t in scales], axis=0)
        with np.errstate(invalid="ignore"):
            r = np.where(d == -math.inf, 0.0,
                         np.where(ref == -math.inf, math.inf, np.exp(d - ref)))
        self.worst = np.fmax(self.worst, np.where(self.inside, r, 0.0))
        self.identities += 1

    def result(self, name: str) -> CheckResult:
        k = int(np.argmax(self.worst))
        return CheckResult(name, self.worst[k], IDENTITY_TOL,
                           self.identities * int(self.inside.sum()),
                           [int(self.j[k]), int(self.m[k])])


def _tables(labels: tuple, j_cut: int) -> list:
    return [operator_table(w, j_cut) for w in labels]


def check_e3_commutators(j_cut: int = 30) -> CheckResult:
    """[J,J], [J,X] close on the structure constants; [X,X] vanishes."""
    js, xs = _tables(_JN, j_cut), _tables(_XN, j_cut)
    sweep = _Sweep(j_cut)
    for i, k in itertools.combinations(range(3), 2):
        l = 3 - i - k
        for fam_a, fam_b in ((js, js), (js, xs)):
            ab = fam_a[i] @ fam_b[k]
            sweep.add(ab - fam_b[k] @ fam_a[i],
                      _EPS[(i, k, l)] * 1j * fam_b[l], sweep.one, ab)
        ab = xs[i] @ xs[k]
        sweep.add(ab - xs[k] @ xs[i], None, sweep.one, ab)
    # mixed commutators with equal indices must vanish: [J_i, X_i] = 0
    for i in range(3):
        ab = js[i] @ xs[i]
        sweep.add(ab - xs[i] @ js[i], None, sweep.one, ab)
    return sweep.result("e3_commutators")


def check_casimirs(j_cut: int = 30) -> CheckResult:
    """X.X = r^2 (r = 1) and J.X = 0 on interior basis vectors."""
    js, xs = _tables(_JN, j_cut), _tables(_XN, j_cut)
    sweep = _Sweep(j_cut)
    parts = [x @ x for x in xs]
    sweep.add(sum(parts[1:], parts[0]), sweep.one, sweep.one, *parts)
    parts = [js[i] @ xs[i] for i in range(3)]
    sweep.add(sum(parts[1:], parts[0]), None, sweep.one, *parts)
    return sweep.result("casimirs")


def check_v_squared(j_cut: int = 30) -> CheckResult:
    """V^2 = I blockwise (V Hermitian and unitary on the interior)."""
    v = v_table(j_cut)
    sweep = _Sweep(j_cut, components=2)
    sweep.add(v @ v, sweep.one, sweep.one)
    return sweep.result("v_squared")


def check_kv_anticommutator(j_cut: int = 30) -> CheckResult:
    """K V + V K = 0 at zero twist."""
    v, k = v_table(j_cut), k_table(j_cut)
    sweep = _Sweep(j_cut, components=2)
    kv = k @ v
    sweep.add(kv + v @ k, None, sweep.one, kv)
    return sweep.result("kv_anticommutator")


def check_z_commutativity(j_cut: int = 30) -> CheckResult:
    zs = _tables(_ZN, j_cut)
    sweep = _Sweep(j_cut)
    for i, k in itertools.combinations(range(3), 2):
        ab = zs[i] @ zs[k]
        sweep.add(ab - zs[k] @ zs[i], None, sweep.one, ab)
    return sweep.result("z_commutativity")


def check_z_normalization(j_cut: int = 30) -> CheckResult:
    """Z1^2 + Z2^2 + Z3^2 = I on interior basis vectors."""
    parts = [z @ z for z in _tables(_ZN, j_cut)]
    sweep = _Sweep(j_cut)
    sweep.add(sum(parts[1:], parts[0]), sweep.one, sweep.one, *parts)
    return sweep.result("z_normalization")


def check_z_routes(j_cut: int = 30) -> CheckResult:
    """Ladder-form Z equals the J^2-function route and the matrix route."""
    xs = _tables(_XN, j_cut)
    f, _ = jsq_tables(j_cut)
    entries = z_matrix_entries(j_cut)
    sweep = _Sweep(j_cut)
    for idx, z in enumerate(_ZN):
        a = operator_table(z, j_cut)
        sweep.add(a, z_vector_form_table(z, j_cut), sweep.one, f @ xs[idx])
        sweep.add(a, z_from_matrix_table(z, entries), sweep.one, *entries)
    return sweep.result("z_route_equality")


class _QC:
    """Gaussian-rational complex: exact add/mul over Fractions.

    The series oracles below have rational coefficients (the parameters are
    half-integers, so every Pochhammer symbol is an integer) and exact binary
    inputs, so the "independent side" of each identity can be summed with no
    rounding at all.  That keeps the checks measuring the production code
    rather than the oracle's own cancellation.
    """

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


def check_hyp2f1_identity() -> CheckResult:
    """Factorial-sum form against the terminating 2F1 on the stated grid.

    sum_s (s+k)!/((s+m)! s! (n-s)!) z^s  ==  k!/(m! n!) 2F1(-n, k+1, m+1; -z)
    for n, k, m <= 8 and z in {-0.5, 0.7, 1+1j}.  The left side is summed in
    exact rational arithmetic; the residual is normalized by the largest
    term of the defining sum because the sum itself vanishes identically at
    scattered grid points.
    """
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
                    lm, ph = hyp2f1_terminating(n, k + 1.0, m + 1.0, -z)
                    rhs = cmath.rect(math.exp(
                        lm + log_factorial(k) - log_factorial(m)
                        - log_factorial(n)), ph)
                    lhs_c = lhs.to_complex()
                    scale = max(abs(lhs_c), abs(rhs), term_scale)
                    worst.add(abs(lhs_c - rhs) / scale,
                              {"n": n, "k": k, "m": m,
                               "z": [complex(z).real, complex(z).imag]})
    return worst.result("hyp2f1_identity_grid", IDENTITY_TOL)


def check_gegenbauer_recurrence() -> CheckResult:
    """Recurrence values against the terminating-series form of the polynomial.

    C_n^a(x) = Gamma(n+2a) / (Gamma(n+1) Gamma(2a)) 2F1(-n, n+2a, a+1/2; (1-x)/2)
    over n <= 20, a in {1/2, 3/2, 9/2}, x in {0.3, 1, 2+5j}, with the series
    side summed exactly (2a is an integer on this grid, so every coefficient
    is rational).
    """
    worst = _Worst()
    for n in range(0, 21):
        for alpha in (0.5, 1.5, 4.5):
            two_a = int(round(2 * alpha))
            c_int = (two_a + 1) // 2  # alpha + 1/2 is an integer on this grid
            for x in (0.3, 1.0, 2 + 5j):
                lm, ph = gegenbauer(n, alpha, x)
                rec = cmath.rect(math.exp(lm), ph)
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
    return worst.result("gegenbauer_recurrence_vs_series", SERIES_TOL)


def _random_tangent_point(rng: np.random.Generator,
                          l_norm: float) -> SpherePhasePoint:
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    v = rng.normal(size=3)
    v -= (v @ x) * x
    n = np.linalg.norm(v)
    while n < 1e-6:
        v = rng.normal(size=3)
        v -= (v @ x) * x
        n = np.linalg.norm(v)
    return SpherePhasePoint(x, l_norm * (v / n))


def check_three_paths(seed: int = 0) -> CheckResult:
    """Closed form vs triple sum vs ladder generation, amplitude-wise.

    Fourteen phase points: two generic orientations at each momentum
    magnitude in {0, 1, 5, 10, 12, 18, 25}, each at the default cut for its
    |l| (up to 70 at |l| = 25).
    """
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for l_norm in (0.0, 1.0, 5.0, 10.0, 12.0, 18.0, 25.0):
        for _ in range(2):
            p = _random_tangent_point(rng, l_norm)
            zl = phase_to_z(p)
            cut = default_j_cut(l_norm)
            a = coherent_closed_form(zl, cut)
            b = coherent_triple_sum(zl, cut)
            c = coherent_ladder_generated(zl, cut)
            worst.add(max(max_amplitude_rel_diff(a, b),
                          max_amplitude_rel_diff(a, c)), _point(p))
    return worst.result("three_path_equality", PATH_TOL)


def check_eigen_residuals(seed: int = 0) -> CheckResult:
    """Generator eigenvalue equation on adaptively truncated states."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for l_norm in (0.0, 5.0, 10.0, 12.0):
        p = _random_tangent_point(rng, l_norm)
        worst.add(eigen_residual(coherent_state(p), phase_to_z(p)), _point(p))
    return worst.result("eigen_residuals", RESIDUAL_TOL)


def check_label_constraint(seed: int = 0) -> CheckResult:
    """z.z = 1 (relative to label size) for 100 random tangent points."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for _ in range(100):
        l_norm = rng.uniform(0.0, 12.0)
        p = _random_tangent_point(rng, l_norm)
        z = phase_to_z(p).z
        scale = max(1.0, float(np.sum(np.abs(z) ** 2)))
        worst.add(abs(z @ z - 1.0) / scale, _point(p))
    return worst.result("label_constraint", IDENTITY_TOL)


def check_circle_expectations() -> CheckResult:
    """|<J> - l| on the 0.05-spaced grid over [0, 3] (claimed < 1e-3)."""
    worst = _Worst()
    for i in range(61):
        l = 0.05 * i
        worst.add(abs(circle_expect_J(CirclePhasePoint(0.0, l)) - l), {"l": l})
    return worst.result("circle_expect_J_grid", 1e-3)


def check_circle_u_modulus() -> CheckResult:
    """| |<U>| - e^{-1/4} | on the same grid (claimed < 5e-3)."""
    worst = _Worst()
    target = math.exp(-0.25)
    for i in range(61):
        l = 0.05 * i
        u = circle_expect_U(CirclePhasePoint(0.0, l))
        worst.add(abs(abs(u) - target), {"l": l})
    return worst.result("circle_u_modulus_grid", 5e-3)


def check_circle_eigen() -> CheckResult:
    worst = _Worst()
    for phi, l in ((0.0, 0.0), (1.0, 2.5), (2.1, 3.7), (-2.0, 1.2)):
        worst.add(circle_eigen_residual(circle_coherent(
            CirclePhasePoint(phi, l))), {"phi": phi, "l": l})
    return worst.result("circle_eigen_residual", 1e-12)


def check_uncertainty(seed: int = 0) -> CheckResult:
    """Variance bounds on circle and sphere states; measured = worst deficit."""
    worst = _Worst()
    for l in (0.0, 0.25, 0.5, 1.0, 2.0):
        rep = circle_uncertainty_report(CirclePhasePoint(0.3, l))
        worst.add(rep.bound - rep.var_j, {"phi": 0.3, "l": l})
    rng = np.random.default_rng(seed)
    for l_norm in (0.0, 5.0, 11.0):
        p = _random_tangent_point(rng, l_norm)
        u = uncertainty_J(coherent_state(p))
        worst.add(u.bound - u.var_j, _point(p))
    return worst.result("uncertainty_inequalities", 0.0)


def check_truncation_tail(j_cut="auto") -> CheckResult:
    """Tail mass of the reference figure state under the configured cut."""
    p = SpherePhasePoint([0.412, 0.412, 0.812], [8.124, -8.124, 0.0])
    s = coherent_state(p, j_cut=j_cut)
    return CheckResult("truncation_tail", s.tail_fraction(bands=2), TAIL_TOL,
                       1, _point(p))


def run_all(seed: int = 0, j_cut: int = 30,
            tail_j_cut="auto") -> list[CheckResult]:
    """Every check at its pinned tolerance; deterministic for a fixed seed."""
    return [
        check_e3_commutators(j_cut),
        check_casimirs(j_cut),
        check_v_squared(j_cut),
        check_kv_anticommutator(j_cut),
        check_z_commutativity(j_cut),
        check_z_normalization(j_cut),
        check_z_routes(j_cut),
        check_hyp2f1_identity(),
        check_gegenbauer_recurrence(),
        check_three_paths(seed),
        check_eigen_residuals(seed),
        check_label_constraint(seed),
        check_circle_expectations(),
        check_circle_u_modulus(),
        check_circle_eigen(),
        check_uncertainty(seed),
        check_truncation_tail(tail_j_cut),
    ]
