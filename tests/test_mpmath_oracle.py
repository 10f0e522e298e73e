"""Closed-form amplitudes, the Gegenbauer kernel and the scalar weights of
the operator tables against mpmath at 50 digits, independently of the three
construction routes, and the state's moments against their exact
one-dimensional series at 40 digits."""

import math

import mpmath
import numpy as np
import pytest

from cohstates.checks import _random_tangent_point
from cohstates.repspace import jsq_tables
from cohstates.specfun import gegenbauer_column
from cohstates.sphere import (SpherePhasePoint, coherent_closed_form,
                              coherent_state, default_j_cut, expect_J,
                              expect_X, phase_to_z, uncertainty_J)
from cohstates.spinor import _expk_entries
from oracles import moment_series, mp_label, mp_value

X = np.array([0.36, 0.48, 0.8])
DIRECTION = np.cross(X, [1.0, 0.3, -0.2])    # generic tangent direction


def _point(l_norm):
    return SpherePhasePoint(X, l_norm * DIRECTION / np.linalg.norm(DIRECTION))


def _mp_amplitude(z, j, m):
    am = abs(m)
    w = (-z[0] + 1j * z[1]) / 2 if m > 0 else (z[0] + 1j * z[1]) / 2
    f = mpmath.factorial
    return (mpmath.exp(-mpmath.mpf(j * (j + 1)) / 2) * mpmath.sqrt(2 * j + 1)
            * f(2 * am) / f(am) * mpmath.sqrt(f(j - am) / f(j + am))
            * w ** am * mpmath.gegenbauer(j - am, am + mpmath.mpf(1) / 2, z[2]))


@pytest.mark.parametrize("l_norm", [0.0, 5.0, 12.0, 21.5])
def test_closed_form_amplitudes_at_50_digits(l_norm):
    p = _point(l_norm)
    cut = default_j_cut(l_norm)
    s = coherent_closed_form(phase_to_z(p), cut)
    k = int(np.argmax(s.log_mag))
    j_peak = math.isqrt(k)
    peak = (j_peak, k - j_peak * (j_peak + 1))
    sample = {peak} | {(j, m) for j in (0, 1, 2, j_peak + 3, j_peak + 6, cut)
                       for m in (-j, -1, 0, 1, j) if abs(m) <= j}
    with mpmath.workdps(50):
        z = mp_label(p)
        want = {jm: _mp_amplitude(z, *jm) for jm in sample}
        scale = abs(want[peak])
        for (j, m), w in want.items():
            i = j * j + j + m
            err = abs(mp_value(s.log_mag[i], s.phase[i]) - w)
            assert err <= 1e-12 * scale, ((j, m), float(err / scale))
            if abs(w) >= 1e-8 * scale:
                assert err <= 1e-11 * abs(w), ((j, m), float(err / abs(w)))


def test_gegenbauer_column_at_50_digits():
    # the z3 of the |l| = 21.5 point: about 1e9 in size, complex.  A value
    # near e^1300 carries a log-magnitude rounding of about 2e-13 relative.
    with mpmath.workdps(50):
        z3 = mp_label(_point(21.5))[2]
        lm, ph = gegenbauer_column(80, complex(z3))
        for n in (0, 1, 7, 30, 60):
            for k in (0, 3, 20):
                want = mpmath.gegenbauer(n, k + mpmath.mpf(1) / 2,
                                         mpmath.mpc(complex(z3)))
                got = mp_value(lm[n, k], ph[n, k])
                assert abs(got - want) <= 1e-12 * abs(want), (n, k)


# ln 2 = _LN2[0] + _LN2[1], the first with 32 significant bits, so that an
# integer exponent below 2^21 times it is exact
with mpmath.workdps(50):
    _LN2 = (math.ldexp(math.floor(math.ldexp(math.log(2), 32)), -32),)
    _LN2 += (float(mpmath.log(2) - _LN2[0]),)


def _log_polar(re: int, im: int, s: int) -> tuple:
    """(log|z|, arg z) of z = (re + i im) 2^s as doubles."""
    b = max(abs(re).bit_length(), abs(im).bit_length())
    if not b:
        return -math.inf, 0.0
    fr, fi = (math.ldexp(v >> (b - 64), -64) for v in (re, im))
    return (s + b) * _LN2[0] + ((s + b) * _LN2[1]
                                + math.log(math.hypot(fr, fi))), \
        math.atan2(fi, fr)


def _gegenbauer_triangle(n_max: int, x: complex, bits: int = 192) -> tuple:
    """(log|C_n^{m+1/2}(x)|, arg) over the triangle n + m <= n_max, nan
    elsewhere, from n C_n = x (2n + 2m - 1) C_{n-1} - (n + 2m - 1) C_{n-2}
    in integers.  x = (p + i q) / 2^d exactly, a column's last two values
    are Gaussian integers times one power of two, and after each step they
    are shifted to `bits` bits, so only that shift and the division by n
    round, at 2^-bits of the values' size."""
    (p, dp), (q, dq) = (v.as_integer_ratio() for v in (x.real, x.imag))
    d = max(dp, dq).bit_length() - 1
    p, q = p << d >> (dp.bit_length() - 1), q << d >> (dq.bit_length() - 1)
    log_mag = np.full((n_max + 1, n_max + 1), np.nan)
    phase = log_mag.copy()
    for m in range(n_max + 1):
        # C_{n-1} = (r + i i) 2^s and C_{n-2} = (r0 + i i0) 2^s
        r, i, r0, i0, s = 1 << bits, 0, 0, 0, -bits
        for n in range(n_max - m + 1):
            if n:
                c1, c2 = 2 * (n + m) - 1, n + 2 * m - 1
                r, i, r0, i0 = (((p * r - q * i) * c1 - (c2 * r0 << d)) // n,
                                ((p * i + q * r) * c1 - (c2 * i0 << d)) // n,
                                r << d, i << d)
                cut = max(abs(r).bit_length(), abs(i).bit_length()) - bits
                r, i, r0, i0 = (v >> cut if cut > 0 else v << -cut
                                for v in (r, i, r0, i0))
                s += cut - d
            log_mag[n, m], phase[n, m] = _log_polar(r, i, s)
    return log_mag, phase


def _log_abs_recurrence(n_max: int, x: complex) -> np.ndarray:
    """log D_n^{m+1/2}: the recurrence run on |a_n| and |b_n|, D_0 = 1."""
    m = np.arange(n_max + 1)
    log_d = np.full((n_max + 2, n_max + 1), -np.inf)
    log_d[1] = 0.0
    with np.errstate(divide="ignore"):
        for n in range(1, n_max + 1):
            log_d[n + 1] = np.logaddexp(
                np.log(2 * abs(x) * (n + m - 0.5) / n) + log_d[n],
                np.log(abs(n + 2 * m - 1) / n) + log_d[n - 1])
    return log_d[1:]


def _z3(x, l) -> complex:
    return complex(phase_to_z(SpherePhasePoint(np.array(x, dtype=float),
                                               np.array(l, dtype=float))).z[2])


@pytest.mark.parametrize("x, n_max", [
    (_z3(X, _point(0.0).l), 40),
    (_z3(X, _point(21.5).l), 63),       # |z3| = 1.0e9
    (_z3(X, _point(100.0).l), 220),     # |z3| = 1.2e43: 36 rescales
    (_z3((0, 0, 1), (355, 0, 0)), 730),  # cosh 355: a rescale every step
    (0j, 40),                           # odd degrees vanish exactly
    (1e-3j, 40),
], ids=["l0", "l21.5", "l100", "l355", "zero", "imag"])
def test_gegenbauer_column_triangle_at_50_digits(x, n_max):
    # Every entry the closed form reads, degree n at parameter m + 1/2 with
    # n + m <= n_max, at the z3 of its labels.  Rounding model, u = 2^-53:
    # - each step rounds a_n and b_n (at most three roundings each), the
    #   two products and their difference: at most about 6.5 u of
    #   |a_n| |C_{n-1}| + |b_n| |C_{n-2}|.  By induction the error of C_n is
    #   at most 6.5 n u D_n, D the recurrence run on |a_n| and |b_n|; the
    #   power-of-two rescalings are exact.  8 (n + 1) u D_n / |C_n| bounds
    #   it relative to C_n;
    # - the sweep's log-magnitude L, k ln 2 (exact) plus the log of its
    #   mantissa, and the reference's are each within about an ulp of L,
    #   at most 2 u |L| each: 4 u |L|;
    # - the phases: 4 u.
    # The relative error is read as |d log|C| + i d arg C|.
    u = 2.0 ** -53
    lm, ph = gegenbauer_column(n_max, x)
    want_lm, want_ph = _gegenbauer_triangle(n_max, x)
    zero = want_lm == -np.inf
    assert np.all(lm[zero] == -np.inf)
    live = ~np.isnan(want_lm) & ~zero
    n = np.broadcast_to(np.arange(n_max + 1)[:, None], lm.shape)[live]
    want = want_lm[live]
    cond = np.exp(_log_abs_recurrence(n_max, x)[live] - want)
    bound = u * (8 * (n + 1) * cond + 4 * np.abs(want) + 4)
    err = np.abs(lm[live] - want
                 + 1j * np.angle(np.exp(1j * (ph[live] - want_ph[live]))))
    k = np.argmax(err / bound)
    assert err[k] <= bound[k], (np.argwhere(live)[k], err[k], bound[k])
    # the reference against mpmath's hypergeometric form, each to half an
    # ulp of L
    with mpmath.workdps(50):
        for m in (0, 1, n_max // 2):
            k = n_max - m
            if zero[k, m]:
                continue
            exact = mpmath.gegenbauer(k, m + mpmath.mpf(1) / 2,
                                      mpmath.mpc(x))
            ref = mp_value(want_lm[k, m], want_ph[k, m])
            tol = u * (abs(want_lm[k, m]) + 4)
            assert abs(ref - exact) <= tol * abs(exact), (k, m)


@pytest.mark.parametrize("j", [0, 1, 30, 200])
def test_table_scalars_at_50_digits(j):
    # f(j) and g(j) of the J^2-function route and the entries (uu, ud, dd)
    # of e^{-K}'s block, held as plain doubles, at block labels mu from
    # -j - 1 to j
    with mpmath.workdps(50):
        e, h = mpmath.exp(mpmath.mpf(1) / 2), j + mpmath.mpf(1) / 2
        f, g = jsq_tables(j)
        for table, want in ((f, e * (mpmath.sinh(h) / (2 * h)
                                     + mpmath.cosh(h))),
                            (g, e * mpmath.sinh(h) / h)):
            got = table.bands[(0, 0, 0, 0)][j * j + j]
            assert abs(got - want) <= 1e-14 * want, (j, float(got / want))
        up, down, den = mpmath.exp(j + 1), mpmath.exp(-j), 2 * j + 1
        for mu in sorted({-j - 1, -j, 0, j // 2, j}):
            c = mpmath.sqrt((j - mu) * (j + mu + 1))
            wants = (((j + 1 + mu) * up + (j - mu) * down) / den,
                     c * (up - down) / den,
                     ((j - mu) * up + (j + 1 + mu) * down) / den)
            gots = _expk_entries(np.array(float(j)), np.array(float(mu)))
            for got, want in zip(gots, wants):
                assert abs(got - want) <= 1e-14 * abs(want), (j, mu)


@pytest.mark.parametrize("l_norm", [0.5, 5.0, 25.0, 100.0, 354.0])
def test_moments_match_exact_series(l_norm):
    # The amplitudes' log-magnitudes near the peak are about |l|^2/2, and
    # rounding them costs about |l|^2/2 eps relative; the sums add a few
    # ulps.
    bound = 8 * (1 + l_norm ** 2) * 2.0 ** -52
    rng = np.random.default_rng(0)
    for _ in range(3 if l_norm < 200 else 1):
        p = _random_tangent_point(rng, l_norm)
        s = coherent_state(p)
        j_mag, _, var_want, x_ratio = moment_series(p.l_norm, s.j_cut)
        j_want = j_mag * p.l / p.l_norm
        x_want = x_ratio * p.x / p.r
        gaps = (np.linalg.norm(expect_J(s) - j_want) / np.linalg.norm(j_want),
                np.linalg.norm(expect_X(s) - x_want) / np.linalg.norm(x_want),
                abs(uncertainty_J(s).var_j - var_want) / var_want)
        assert max(gaps) <= bound, (p.x, p.l, gaps)
