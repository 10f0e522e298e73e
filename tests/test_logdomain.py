import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstates.logdomain import (log_sum_exp, peak_sum, polar_array,
                                 rect_array, wrap_phase)


# the log-polar carrier: rect_array and polar_array convert between
# (log-magnitude, phase) arrays and complex values, and peak_sum adds
# values around the largest log


def test_quadrant_phases_give_exact_units():
    # the phases 0, pi and +-pi/2 of (-pi, pi] leave no cos/sin dust
    got = rect_array(0.0, np.array([0.0, math.pi, 0.5 * math.pi,
                                    -0.5 * math.pi]))
    want = [1 + 0j, -1 + 0j, 1j, -1j]
    assert [(g.real, g.imag) for g in got] == [(w.real, w.imag) for w in want]
    got = rect_array(np.log(2.0), math.pi)
    assert (got.real, got.imag) == (-2.0, 0.0)


def test_exact_zero_is_minus_inf_and_back():
    lm, ph = polar_array(0.0, np.array([0j, 2.0]))
    assert lm[0] == -math.inf and ph[0] == 0.0
    assert rect_array(lm, ph)[0] == 0
    assert rect_array(-math.inf, 0.7) == 0


def test_polar_of_rect_holds_the_log_magnitude():
    # exp and log each round at their own ulp, so the log-magnitude comes
    # back within about (|lm| + 1) eps; the bound is the one the round trips
    # below use past |log w| = 90
    rng = np.random.default_rng(11)
    lm = rng.uniform(-700.0, 700.0, 200_000)
    ph = rng.uniform(-math.pi, math.pi, lm.size)
    back, _ = polar_array(0.0, rect_array(lm, ph))
    assert np.all(np.abs(back - lm) <= (np.abs(lm) + 10) * 2.3e-16)


def test_sum_total_cancellation_returns_zero():
    shift, acc = peak_sum(np.zeros(2), rect_array(0.0, np.array([0.0,
                                                                 math.pi])))
    assert acc == 0
    assert polar_array(shift, acc)[0] == -math.inf


def test_sum_three_four_five():
    lm, ph = polar_array(*peak_sum(np.log([3.0, 4.0]),
                                   rect_array(0.0, np.array([0.0,
                                                             math.pi / 2]))))
    assert lm == pytest.approx(math.log(5), rel=1e-15)
    assert ph == pytest.approx(math.atan2(4, 3), rel=1e-15)


def test_sum_factors_out_the_peak():
    lm, ph = polar_array(*peak_sum(np.array([1000.0, 990.0])))
    assert lm == pytest.approx(1000.0 + math.log(1 + math.exp(-10)),
                               rel=1e-15)
    assert ph == 0.0


def test_wrap_ties_at_minus_pi_go_positive():
    # exact: the remainder by 2 pi rounds nothing
    for p in (math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 5 * math.pi):
        assert wrap_phase(p) == math.pi, p


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=12))
def test_wrap_of_an_array_is_the_elementwise_wrap(phases):
    # the array and the scalar route agree bit for bit, signed zeros included
    phases += [-math.pi, -0.0, 4 * math.pi]
    got = wrap_phase(np.array(phases)).tolist()
    want = [wrap_phase(p) for p in phases]
    assert [(g, math.copysign(1, g)) for g in got] == [
        (w, math.copysign(1, w)) for w in want]
    assert all(-math.pi < g <= math.pi for g in got)


def _round_trip(w: complex) -> complex:
    return complex(rect_array(*polar_array(0.0, np.complex128(w))))


finite_complex = st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300,
                                    allow_nan=False, allow_infinity=False)


@given(finite_complex)
@settings(max_examples=200, deadline=None)
def test_round_trip(w):
    # exp(fl(log x)) carries a relative error of about eps * |log x|: 1e-14
    # is attainable up to |log w| ~ 90, and the eps-scaled bound covers the
    # rest of the double range
    back = _round_trip(w)
    lm = abs(math.log(abs(w)))
    tol = 1e-14 if lm <= 90 else (lm + 10) * 2.3e-16
    assert cmath.isclose(back, w, rel_tol=tol)


@given(st.complex_numbers(min_magnitude=1e-39, max_magnitude=1e39,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_round_trip_tight_in_the_working_band(w):
    assert cmath.isclose(_round_trip(w), w, rel_tol=1e-14)


@given(st.lists(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_sum_matches_complex_sum(values):
    lm, ph = polar_array(0.0, np.array(values, dtype=complex))
    shift, acc = peak_sum(lm, rect_array(0.0, ph))
    expected = sum(values)
    scale = max(abs(v) for v in values)
    assert abs(math.exp(shift) * acc - expected) <= 1e-12 * scale


def test_log_sum_exp_empty_and_peak():
    assert log_sum_exp([]) == -math.inf
    assert log_sum_exp([-math.inf, 3.0]) == pytest.approx(3.0)
    assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2))
    # arrays too, with -inf entries as exact zeros
    assert log_sum_exp(np.full(4, -math.inf)) == -math.inf
    assert log_sum_exp(np.array([-math.inf, 1.0, 1.0])) == pytest.approx(
        1.0 + math.log(2), rel=1e-15)


# peak_sum, the one sum taken around its largest log; the suite runs with
# RuntimeWarnings as errors, so none of these may warn


def test_peak_sum_of_nothing_is_exactly_zero():
    for logs in (np.full(3, -math.inf), np.array([])):
        shift, acc = peak_sum(logs, np.ones(logs.size))
        assert shift == 0.0 and acc == 0.0
    # one all -inf column of a 2-D sum, beside a finite one
    logs = np.array([[-math.inf, 1.0], [-math.inf, 2.0]])
    shift, acc = peak_sum(logs, np.full((2, 2), 3.0 - 1j))
    assert shift[0] == 0.0 and acc[0] == 0.0
    assert shift[1] == 2.0
    assert acc[1] == pytest.approx((3.0 - 1j) * (1 + math.exp(-1)),
                                   rel=1e-15)


def test_peak_sum_minus_inf_log_adds_nothing():
    shift, acc = peak_sum(np.array([0.5, -math.inf]), np.array([2.0, 1e300]))
    assert (shift, acc) == (0.5, 2.0)
    shift, acc = peak_sum(np.array([-math.inf, -1.0, -math.inf]),
                          np.array([-7j, 1j, 5.0]))
    assert (shift, acc) == (-1.0, 1j)


def test_peak_sum_far_past_the_double_range():
    shift, acc = peak_sum(np.array([1000.0, 1000.0 - math.log(3)]))
    assert shift == 1000.0
    assert acc == pytest.approx(4 / 3, rel=1e-15)
    shift, acc = peak_sum(np.array([-1000.0, -1001.0]), np.array([1.0, -1j]))
    assert shift == -1000.0
    assert acc == pytest.approx(1 - 1j * math.exp(-1), rel=1e-15)
    # columns a 2000 apart in scale, each summed around its own peak
    shift, acc = peak_sum(np.array([[1000.0, -1000.0], [999.0, -1000.0]]))
    assert shift.tolist() == [1000.0, -1000.0]
    assert acc[0] == pytest.approx(1 + math.exp(-1), rel=1e-15)
    assert acc[1] == 2.0


def test_peak_sum_columns_equal_a_loop_over_columns():
    # each column of a 2-D sum is the column's own sum around its largest
    # log, its terms added in row order, bit for bit
    rng = np.random.default_rng(5)
    logs = rng.uniform(-800.0, 800.0, size=(13, 6))
    logs[rng.random(logs.shape) < 0.3] = -math.inf
    logs[:, 2] = -math.inf
    values = rng.normal(size=logs.shape) + 1j * rng.normal(size=logs.shape)
    shift, acc = peak_sum(logs, values)
    for c in range(logs.shape[1]):
        col = np.ascontiguousarray(logs[:, c])
        top = col.max()
        want_shift = top if top > -math.inf else 0.0
        want = 0j
        for term in np.exp(col - want_shift) * values[:, c]:
            want += term
        assert shift[c] == want_shift
        assert acc[c] == want
