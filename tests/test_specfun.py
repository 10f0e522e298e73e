import math
from fractions import Fraction

import pytest

from cohstates import checks
from cohstates.specfun import (gegenbauer_column, hyp2f1_terminating,
                               log_factorial_table)
from oracles import value

# ln(170!) by direct summation of logs (the independent oracle); 170! is the
# largest factorial representable as a finite double, which makes it the
# canonical spot check.
LNFACT_170 = 706.57306224578734711


def test_log_factorial_small():
    table = log_factorial_table(5)
    assert table[0] == 0.0
    assert table[5] == pytest.approx(math.log(120), abs=1e-13)


def test_log_factorial_170_matches_direct_sum():
    direct = math.fsum(math.log(k) for k in range(1, 171))
    assert direct == pytest.approx(LNFACT_170, rel=1e-14)
    assert log_factorial_table(170)[170] == pytest.approx(direct, rel=1e-13)


def test_log_factorial_table_is_lgamma_bit_for_bit():
    assert log_factorial_table(0).tolist() == [0.0]
    assert log_factorial_table(1460).tolist() == [math.lgamma(n + 1)
                                                  for n in range(1461)]


def test_hyp2f1_order_zero_is_one():
    assert hyp2f1_terminating(0, 3.7, 1.2, 2 - 1j) == 1.0


def test_hyp2f1_binomial_case():
    # 2F1(-n, b, b; z) = (1 - z)^n
    got = hyp2f1_terminating(3, 2.0, 2.0, -1.0)
    assert got == pytest.approx(8.0, rel=1e-14)


def test_hyp2f1_rejects_bad_c():
    with pytest.raises(ValueError):
        hyp2f1_terminating(4, 1.0, -2.0, 0.5)
    # c = -n is outside the failing band: the series terminates first
    hyp2f1_terminating(3, 1.0, -3.0, 0.5)


@pytest.mark.parametrize("c", [math.inf, -math.inf])
def test_hyp2f1_infinite_c_is_one(c):
    # every term past the first carries 1/(c + s) = 0
    assert hyp2f1_terminating(3, 1.0, c, 0.5) == 1


def test_hyp2f1_identity_check_at_rounding_level():
    assert checks.check_hyp2f1_identity().measured <= 1e-15


def _factorial_sum(n, k, m, z):
    """Exact value of sum_s (s+k)!/((s+m)! s! (n-s)!) z^s for rational z."""
    zq = Fraction(z)
    total = Fraction(0)
    for s in range(n + 1):
        total += Fraction(math.factorial(s + k),
                          math.factorial(s + m) * math.factorial(s)
                          * math.factorial(n - s)) * zq ** s
    return total


def test_hyp2f1_matches_factorial_sum_oracle():
    # frozen via the exact-fraction oracle: 152303/120000 = 1.269191666...
    lhs = _factorial_sum(4, 2, 1, Fraction(7, 10))
    assert lhs == Fraction(152303, 120000)
    pref = math.factorial(2) / (math.factorial(1) * math.factorial(4))
    rhs = pref * hyp2f1_terminating(4, 3.0, 2.0, -0.7)
    assert rhs == pytest.approx(float(lhs), rel=1e-13)


def test_gegenbauer_degree_zero():
    lm, ph = gegenbauer_column(0, 123.4 + 5j)
    assert value((lm[0, 0], ph[0, 0])) == 1.0


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 20])
def test_gegenbauer_legendre_at_one(n):
    # C_n^{1/2}(1) = P_n(1) = 1, which pins the closed-form amplitudes to the
    # rest-state expansion at the north pole
    lm, ph = gegenbauer_column(n, 1.0)
    assert value((lm[n, 0], ph[n, 0])) == pytest.approx(1.0, rel=1e-13)


def _gegenbauer_series_exact(n, two_alpha, x):
    """Terminating-series form summed in exact rationals (2 alpha integer)."""
    c = Fraction(two_alpha + 1, 2)
    w = (1 - Fraction(x)) / 2
    pref = Fraction(math.factorial(n + two_alpha - 1),
                    math.factorial(n) * math.factorial(two_alpha - 1))
    total = Fraction(0)
    term = Fraction(1)
    for s in range(n + 1):
        total += term
        term *= Fraction((-n + s) * (n + two_alpha + s))
        term /= (c + s) * (s + 1)
        term *= w
    return pref * total


def test_gegenbauer_matches_series_oracle():
    lm, ph = gegenbauer_column(6, 0.3)
    got = value((lm[5, 1], ph[5, 1]))
    exact = _gegenbauer_series_exact(5, 3, Fraction(3, 10))
    assert float(exact) == pytest.approx(2.02174875, rel=1e-12)
    assert got == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("n,alpha", [(8, 0.5), (13, 1.5), (20, 4.5)])
def test_gegenbauer_recurrence_vs_exact_series(n, alpha):
    exact = _gegenbauer_series_exact(n, int(2 * alpha), Fraction(3, 10))
    k = int(alpha)  # alpha = k + 1/2, the sweep's column k
    lm, ph = gegenbauer_column(n + k, float(Fraction(3, 10)))
    got = value((lm[n, k], ph[n, k]))
    assert got == pytest.approx(float(exact), rel=1e-10)


def test_gegenbauer_column_degree_zero_over_parameters():
    # C_0 = 1 at every parameter k + 1/2
    lm, ph = gegenbauer_column(7, 2 + 1j)
    assert lm.shape == ph.shape == (8, 8)
    assert not lm[0].any() and not ph[0].any()


def test_gegenbauer_huge_argument_stays_finite():
    # arguments of size cosh|l| with |l| over 20 overflow doubles when the
    # polynomial is expanded naively; the log carrier must not
    log_mag = gegenbauer_column(70, 1e6 + 1e6j)[0][60, 10]
    assert math.isfinite(log_mag)
    assert log_mag > 709.79  # beyond the largest finite double
