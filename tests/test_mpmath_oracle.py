"""Closed-form amplitudes, the Gegenbauer kernel and the scalar weights of
the operator tables against mpmath at 50 digits, independently of the three
construction routes."""

import math

import mpmath
import numpy as np
import pytest

from cohstates.repspace import jsq_tables
from cohstates.specfun import gegenbauer_column
from cohstates.sphere import (SpherePhasePoint, coherent_closed_form,
                              default_j_cut, phase_to_z)
from cohstates.spinor import _expk_entries

X = np.array([0.36, 0.48, 0.8])
DIRECTION = np.cross(X, [1.0, 0.3, -0.2])    # generic tangent direction


def _point(l_norm):
    return SpherePhasePoint(X, l_norm * DIRECTION / np.linalg.norm(DIRECTION))


def _mp_label(p):
    """z = cosh|l| x + i (sinh|l|/|l|) l cross x from the double inputs."""
    x = [mpmath.mpf(float(c)) for c in p.x]
    l = [mpmath.mpf(float(c)) for c in p.l]
    ln = mpmath.sqrt(sum(c * c for c in l))
    sinhc = mpmath.sinh(ln) / ln if ln else mpmath.mpf(1)
    cross = [l[1] * x[2] - l[2] * x[1], l[2] * x[0] - l[0] * x[2],
             l[0] * x[1] - l[1] * x[0]]
    return [mpmath.cosh(ln) * x[i] + 1j * sinhc * cross[i] for i in range(3)]


def _mp_amplitude(z, j, m):
    am = abs(m)
    w = (-z[0] + 1j * z[1]) / 2 if m > 0 else (z[0] + 1j * z[1]) / 2
    f = mpmath.factorial
    return (mpmath.exp(-mpmath.mpf(j * (j + 1)) / 2) * mpmath.sqrt(2 * j + 1)
            * f(2 * am) / f(am) * mpmath.sqrt(f(j - am) / f(j + am))
            * w ** am * mpmath.gegenbauer(j - am, am + mpmath.mpf(1) / 2, z[2]))


def _mp_value(log_mag, phase):
    return mpmath.exp(mpmath.mpf(log_mag)) * mpmath.expj(mpmath.mpf(phase))


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
        z = _mp_label(p)
        want = {jm: _mp_amplitude(z, *jm) for jm in sample}
        scale = abs(want[peak])
        for (j, m), w in want.items():
            i = j * j + j + m
            err = abs(_mp_value(s.log_mag[i], s.phase[i]) - w)
            assert err <= 1e-12 * scale, ((j, m), float(err / scale))
            if abs(w) >= 1e-8 * scale:
                assert err <= 1e-11 * abs(w), ((j, m), float(err / abs(w)))


def test_gegenbauer_column_at_50_digits():
    # the z3 of the |l| = 21.5 point: about 1e9 in size, complex.  A value
    # near e^1300 carries a log-magnitude rounding of about 2e-13 relative.
    with mpmath.workdps(50):
        z3 = _mp_label(_point(21.5))[2]
        alphas = np.array([0.5, 3.5, 20.5])
        lm, ph = gegenbauer_column(60, alphas, complex(z3))
        for n in (0, 1, 7, 30, 60):
            for k, alpha in enumerate(alphas):
                want = mpmath.gegenbauer(n, mpmath.mpf(alpha),
                                         mpmath.mpc(complex(z3)))
                got = _mp_value(lm[n, k], ph[n, k])
                assert abs(got - want) <= 1e-12 * abs(want), (n, alpha)


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
