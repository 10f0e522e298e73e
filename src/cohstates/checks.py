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
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .circle import (CirclePhasePoint, circle_coherent, circle_eigen_residual,
                     circle_expect_J, circle_expect_U,
                     circle_uncertainty_report)
from .repspace import (BandTable, grid, identity_table, jsq_tables,
                       operator_table, z_vector_form_tables)
from .specfun import gegenbauer_column, hyp2f1_terminating
from .spinor import k_table, v_table, z_from_matrix_tables, z_matrix_entries
from .sphere import (SpherePhasePoint, coherent_closed_form, coherent_state,
                     default_j_cut, eigen_residual, path_disagreement,
                     phase_to_z, uncertainty_J)

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
    phase point {"x", "l"} or a grid value for the other sweeps.  run_all
    sets elapsed_s, the seconds the check took, which equality ignores.
    """

    name: str
    measured: float
    tolerance: float
    n_cases: int = 0
    worst_at: object = None
    elapsed_s: float | None = field(default=None, compare=False)

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
    the largest participating norm: the interior parts of lhs and rhs, the
    full scale operands and the basis vector's own norm, 1.
    """

    def __init__(self, j_cut: int, components: int = 1):
        self.one = identity_table(j_cut, components)
        self.j, self.m = (np.tile(x, components) for x in grid(j_cut))
        self.interior = j_cut - 2
        self.inside = self.j <= self.interior
        self.worst = np.zeros(self.j.size)
        self.identities = 0

    def add(self, lhs: BandTable, rhs: BandTable | None,
            *scales: BandTable) -> None:
        """lhs = rhs on every column; rhs None stands for zero."""
        sides = [lhs] if rhs is None else [lhs, rhs]
        diff = lhs if rhs is None else lhs - rhs
        ref = np.max([t.column_norms(self.interior) for t in sides]
                     + [t.column_norms() for t in scales], axis=0)
        r = diff.column_norms(self.interior) / np.maximum(ref, 1.0)
        self.worst = np.maximum(self.worst, np.where(self.inside, r, 0.0))
        self.identities += 1

    def result(self, name: str) -> CheckResult:
        k = int(np.argmax(self.worst))
        return CheckResult(name, self.worst[k], IDENTITY_TOL,
                           self.identities * int(self.inside.sum()),
                           [int(self.j[k]), int(self.m[k])])


def _tables(labels: tuple, j_cut: int) -> list:
    return [operator_table(w, j_cut) for w in labels]


def check_e3_commutators(j_cut: int) -> CheckResult:
    """[J,J], [J,X] close on the structure constants; [X,X] vanishes."""
    js, xs = _tables(_JN, j_cut), _tables(_XN, j_cut)
    sweep = _Sweep(j_cut)
    for i, k in itertools.combinations(range(3), 2):
        l = 3 - i - k
        for fam_a, fam_b in ((js, js), (js, xs)):
            ab = fam_a[i] @ fam_b[k]
            sweep.add(ab - fam_b[k] @ fam_a[i],
                      _EPS[(i, k, l)] * 1j * fam_b[l], ab)
        ab = xs[i] @ xs[k]
        sweep.add(ab - xs[k] @ xs[i], None, ab)
    # mixed commutators with equal indices must vanish: [J_i, X_i] = 0
    for i in range(3):
        ab = js[i] @ xs[i]
        sweep.add(ab - xs[i] @ js[i], None, ab)
    return sweep.result("e3_commutators")


def check_casimirs(j_cut: int) -> CheckResult:
    """X.X = r^2 (r = 1) and J.X = 0 on interior basis vectors."""
    js, xs = _tables(_JN, j_cut), _tables(_XN, j_cut)
    sweep = _Sweep(j_cut)
    parts = [x @ x for x in xs]
    sweep.add(sum(parts[1:], parts[0]), sweep.one, *parts)
    parts = [js[i] @ xs[i] for i in range(3)]
    sweep.add(sum(parts[1:], parts[0]), None, *parts)
    return sweep.result("casimirs")


def check_v_squared(j_cut: int) -> CheckResult:
    """V^2 = I blockwise (V Hermitian and unitary on the interior)."""
    v = v_table(j_cut)
    sweep = _Sweep(j_cut, components=2)
    sweep.add(v @ v, sweep.one)
    return sweep.result("v_squared")


def check_kv_anticommutator(j_cut: int) -> CheckResult:
    """K V + V K = 0 at zero twist."""
    v, k = v_table(j_cut), k_table(j_cut)
    sweep = _Sweep(j_cut, components=2)
    kv = k @ v
    sweep.add(kv + v @ k, None, kv)
    return sweep.result("kv_anticommutator")


def check_z_commutativity(j_cut: int) -> CheckResult:
    zs = _tables(_ZN, j_cut)
    sweep = _Sweep(j_cut)
    for i, k in itertools.combinations(range(3), 2):
        ab = zs[i] @ zs[k]
        sweep.add(ab - zs[k] @ zs[i], None, ab)
    return sweep.result("z_commutativity")


def check_z_normalization(j_cut: int) -> CheckResult:
    """Z1^2 + Z2^2 + Z3^2 = I on interior basis vectors."""
    parts = [z @ z for z in _tables(_ZN, j_cut)]
    sweep = _Sweep(j_cut)
    sweep.add(sum(parts[1:], parts[0]), sweep.one, *parts)
    return sweep.result("z_normalization")


def check_z_routes(j_cut: int) -> CheckResult:
    """Ladder-form Z equals the J^2-function route and the matrix route."""
    f, _ = jsq_tables(j_cut)
    entries = z_matrix_entries(j_cut)
    sweep = _Sweep(j_cut)
    for a, x, vec, mat in zip(_tables(_ZN, j_cut), _tables(_XN, j_cut),
                              z_vector_form_tables(j_cut),
                              z_from_matrix_tables(entries)):
        sweep.add(a, vec, f @ x)
        sweep.add(a, mat, *entries)
    return sweep.result("z_route_equality")


def _dyadic_terms(coefs: list[int], w: complex) -> tuple[list, int]:
    """The Gaussian integers c_s w^s 2^(e n), s = 0..n, and 2^(e n), where
    w = (a + b i) / 2^e exactly, as every double is dyadic."""
    (ra, rd), (ia, id_) = (float(v).as_integer_ratio()
                           for v in (w.real, w.imag))
    e = max(rd, id_).bit_length() - 1
    a, b = ra * ((1 << e) // rd), ia * ((1 << e) // id_)
    n = len(coefs) - 1
    p, q, terms = 1, 0, []                  # p + q i = (a + b i)^s
    for s, c in enumerate(coefs):
        terms.append(((c * p) << (e * (n - s)), (c * q) << (e * (n - s))))
        p, q = p * a - q * b, p * b + q * a
    return terms, 1 << (e * n)


def _exact_sum(terms: list, den: int) -> complex:
    """sum(terms) / den, correctly rounded, as float(Fraction) is."""
    return complex(sum(t[0] for t in terms) / den,
                   sum(t[1] for t in terms) / den)


def check_hyp2f1_identity() -> CheckResult:
    """Factorial-sum form against the terminating 2F1 on the stated grid.

    sum_s (s+k)!/((s+m)! s! (n-s)!) z^s  ==  k!/(m! n!) 2F1(-n, k+1, m+1; -z)
    for n, k, m <= 8 and z in {-0.5, 0.7, 1+1j}.  The left side is summed in
    exact integer arithmetic, times (n+m)! n! over the dyadic common
    denominator; the residual is normalized by the largest term of the
    defining sum because the sum itself vanishes identically at scattered
    grid points.
    """
    f = [math.factorial(i) for i in range(17)]
    worst = _Worst()
    for n in range(0, 9):
        for k in range(0, 9):
            for m in range(0, 9):
                # the coefficients times (n+m)! n! are integers for s <= n
                coefs = [f[s + k] * (f[n + m] // f[s + m]) * math.comb(n, s)
                         for s in range(n + 1)]
                for z in (-0.5, 0.7, 1 + 1j):
                    terms, pow2 = _dyadic_terms(coefs, complex(z))
                    den = f[n + m] * f[n] * pow2
                    term_scale = max(abs(complex(re / den, im / den))
                                     for re, im in terms)
                    rhs = f[k] / (f[m] * f[n]) * hyp2f1_terminating(
                        n, k + 1.0, m + 1.0, -z)
                    lhs_c = _exact_sum(terms, den)
                    scale = max(abs(lhs_c), abs(rhs), term_scale)
                    worst.add(abs(lhs_c - rhs) / scale,
                              {"n": n, "k": k, "m": m,
                               "z": [complex(z).real, complex(z).imag]})
    return worst.result("hyp2f1_identity_grid", IDENTITY_TOL)


def check_gegenbauer_recurrence() -> CheckResult:
    """Recurrence values against the terminating-series form of the polynomial.

    C_n^a(x) = Gamma(n+2a) / (Gamma(n+1) Gamma(2a)) 2F1(-n, n+2a, a+1/2; (1-x)/2)
    over n <= 20, a in {1/2, 3/2, 9/2}, x in {0.3, 1, 2+5j}.  2a and
    c = a + 1/2 are integers on this grid, so the series times (c)_n n! has
    integer coefficients and is summed exactly over the dyadic common
    denominator.  The recurrence values are entry [n, a - 1/2] of one
    sweep per x over the family C_n^{k+1/2} that the closed form reads, to
    n, k = 24.
    """
    xs = (0.3, 1.0, 2 + 5j)
    sweeps = {x: gegenbauer_column(24, x) for x in xs}
    worst = _Worst()
    for n in range(0, 21):
        for k in (0, 1, 4):
            two_a, c_int = 2 * k + 1, k + 1
            # term s is C(n+2a-1, n) (-n)_s (n+2a)_s / ((c)_s s!) w^s; times
            # (c)_n n! each coefficient is an integer, so each ratio divides
            mult = math.prod(range(c_int, c_int + n)) * math.factorial(n)
            coefs = list(itertools.accumulate(
                range(n), lambda c, s: c * (s - n) * (n + two_a + s)
                // ((c_int + s) * (s + 1)),
                initial=math.comb(n + two_a - 1, n) * mult))
            for x in xs:
                lm, ph = sweeps[x]
                rec = cmath.rect(math.exp(lm[n, k]), ph[n, k])
                terms, pow2 = _dyadic_terms(coefs, (1 - complex(x)) / 2)
                ser = _exact_sum(terms, mult * pow2)
                worst.add(abs(rec - ser) / abs(ser),
                          {"n": n, "alpha": k + 0.5,
                           "x": [complex(x).real, complex(x).imag]})
    return worst.result("gegenbauer_recurrence_vs_series", SERIES_TOL)


def _random_tangent_point(rng: np.random.Generator,
                          l_norm: float) -> SpherePhasePoint:
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    while True:
        v = rng.normal(size=3)
        v -= (v @ x) * x
        n = np.linalg.norm(v)
        if n >= 1e-6:
            return SpherePhasePoint(x, l_norm * (v / n))


def check_three_paths(seed: int) -> CheckResult:
    """Closed form vs triple sum vs ladder generation, amplitude-wise.

    Fourteen phase points: two generic orientations at each momentum
    magnitude in {0, 1, 5, 10, 12, 18, 25}, each at the default cut for its
    |l| (up to 55 at |l| = 25).
    """
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for l_norm in (0.0, 1.0, 5.0, 10.0, 12.0, 18.0, 25.0):
        for _ in range(2):
            p = _random_tangent_point(rng, l_norm)
            zl = phase_to_z(p)
            a = coherent_closed_form(zl, default_j_cut(l_norm))
            worst.add(path_disagreement(a, zl), _point(p))
    return worst.result("three_path_equality", PATH_TOL)


def check_eigen_residuals(seed: int) -> CheckResult:
    """Generator eigenvalue equation on adaptively truncated states."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for l_norm in (0.0, 5.0, 10.0, 12.0):
        p = _random_tangent_point(rng, l_norm)
        worst.add(eigen_residual(coherent_state(p), phase_to_z(p)), _point(p))
    return worst.result("eigen_residuals", RESIDUAL_TOL)


def check_label_constraint(seed: int) -> CheckResult:
    """z.z = 1 (relative to label size) for 100 random tangent points."""
    rng = np.random.default_rng(seed)
    worst = _Worst()
    for _ in range(100):
        l_norm = rng.uniform(0.0, 12.0)
        p = _random_tangent_point(rng, l_norm)
        worst.add(phase_to_z(p).deviation(), _point(p))
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
            CirclePhasePoint(phi, l)))[0], {"phi": phi, "l": l})
    return worst.result("circle_eigen_residual", 1e-12)


def check_uncertainty(seed: int) -> CheckResult:
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


def check_truncation_tail(j_cut: int | None) -> CheckResult:
    """Tail mass of the reference figure state under the configured cut."""
    p = SpherePhasePoint([0.412, 0.412, 0.812], [8.124, -8.124, 0.0])
    s = coherent_state(p, j_cut=j_cut)
    return CheckResult("truncation_tail", s.tail_fraction(), TAIL_TOL,
                       1, _point(p))


def _timed(check, *args) -> CheckResult:
    start = time.perf_counter()
    result = check(*args)
    return replace(result, elapsed_s=time.perf_counter() - start)


def run_all(seed: int, j_cut: int,
            tail_j_cut: int | None) -> list[CheckResult]:
    """Every check at its pinned tolerance, each with the time.perf_counter
    seconds it took as elapsed_s; deterministic for a fixed seed, but for
    elapsed_s."""
    return [
        _timed(check_e3_commutators, j_cut),
        _timed(check_casimirs, j_cut),
        _timed(check_v_squared, j_cut),
        _timed(check_kv_anticommutator, j_cut),
        _timed(check_z_commutativity, j_cut),
        _timed(check_z_normalization, j_cut),
        _timed(check_z_routes, j_cut),
        _timed(check_hyp2f1_identity),
        _timed(check_gegenbauer_recurrence),
        _timed(check_three_paths, seed),
        _timed(check_eigen_residuals, seed),
        _timed(check_label_constraint, seed),
        _timed(check_circle_expectations),
        _timed(check_circle_u_modulus),
        _timed(check_circle_eigen),
        _timed(check_uncertainty, seed),
        _timed(check_truncation_tail, tail_j_cut),
    ]
