import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstates.circle import (WINDOW, CirclePhasePoint, circle_coherent,
                              circle_eigen_residual, circle_expect_J,
                              circle_expect_U, circle_relative_U,
                              circle_uncertainty_report,
                              uncertainty_from_moments)
from cohstates.errors import ConstraintError

# lattice-sum oracles evaluated with mpmath at 40 digits
EXPECT_U_AT_REST = 0.77863967150613793959
EXPECT_J_QUARTER = 0.249675013636404
VAR_J_AT_REST = 0.49897913083282
BOUND_AT_REST = 0.384968591043511
RATIO_U2_AT_REST = 0.606781685231311


def test_rest_coefficients_are_gaussian():
    # at l = phi = 0 the common factor e^{l^2/2 - i phi j0} is 1
    state = circle_coherent(CirclePhasePoint(0.0, 0.0))
    for j in (-3, 0, 2, 7):
        assert state.coeffs[j - state.j0 - state.k[0]] == pytest.approx(
            math.exp(-j * j / 2), rel=1e-14)


def test_rest_coefficients_symmetric():
    # at rest the window is symmetric about j = 0
    state = circle_coherent(CirclePhasePoint(0.0, 0.0))
    assert (state.j0 + state.k).tolist() == list(range(-WINDOW, WINDOW + 1))
    assert np.array_equal(state.log_mag, state.log_mag[::-1])


def test_window_size_does_not_grow_with_l():
    state = circle_coherent(CirclePhasePoint(0.5, 1e5))
    assert len(state.coeffs) <= 2 * WINDOW + 1
    assert state.j0 == 100000


@pytest.mark.parametrize("l", [-709.0, -512.86, 0.0, 2.0, 1e5])
def test_state_holds_the_whole_window(l):
    state = circle_coherent(CirclePhasePoint(0.3, l))
    assert len(state.coeffs) == 2 * WINDOW + 1
    assert state.k.tolist() == list(range(-WINDOW, WINDOW + 1))


def test_eigen_residual_small():
    state = circle_coherent(CirclePhasePoint(1.0, 2.5))
    residual, relative = circle_eigen_residual(state)
    assert residual <= 1e-12
    assert relative <= 1e-12


class TestExpectJ:
    def test_zero_at_rest(self):
        assert circle_expect_J(CirclePhasePoint(0.0, 0.0)) == pytest.approx(
            0.0, abs=1e-15)

    def test_exact_at_integer_label(self):
        assert circle_expect_J(CirclePhasePoint(0.0, 2.0)) == pytest.approx(
            2.0, abs=1e-12)

    def test_quarter_integer_within_a_tenth_percent(self):
        got = circle_expect_J(CirclePhasePoint(0.0, 0.25))
        assert abs(got - 0.25) <= 1e-3
        assert got == pytest.approx(EXPECT_J_QUARTER, rel=1e-10)

    def test_unit_translation_covariance(self):
        base = circle_expect_J(CirclePhasePoint(0.3, 0.37))
        shifted = circle_expect_J(CirclePhasePoint(0.3, 1.37))
        assert shifted == pytest.approx(base + 1.0, abs=1e-12)


class TestExpectU:
    def test_rest_value(self):
        u = circle_expect_U(CirclePhasePoint(0.0, 0.0))
        assert u.imag == 0.0
        assert u.real == pytest.approx(EXPECT_U_AT_REST, rel=1e-13)
        assert abs(u.real - math.exp(-0.25)) < 5e-4

    def test_argument_equals_phi(self):
        u = circle_expect_U(CirclePhasePoint(2.1, 3.7))
        assert cmath.phase(u) == pytest.approx(2.1, abs=1e-12)

    def test_modulus_independent_of_phi(self):
        a = abs(circle_expect_U(CirclePhasePoint(0.0, 1.3)))
        b = abs(circle_expect_U(CirclePhasePoint(2.9, 1.3)))
        assert a == pytest.approx(b, rel=1e-14)


class TestRelativeU:
    # every <U> is divided by the one at (0, l)
    def test_self_reference_is_one(self):
        assert circle_relative_U(CirclePhasePoint(0.0, 1.1)) == 1.0

    def test_pure_phase_for_shared_l(self):
        got = circle_relative_U(CirclePhasePoint(0.9, 0.0))
        assert got == pytest.approx(cmath.exp(0.9j), abs=1e-12)

    def test_unit_modulus_when_l_matches(self):
        got = circle_relative_U(CirclePhasePoint(-1.8, 2.2))
        assert abs(got) == pytest.approx(1.0, rel=1e-13)

    def test_reference_modulus_is_bounded_away_from_zero(self):
        # |<U>| at (0, l) has period 1 in l and its least value, the rest
        # value, at integer l, so the division never nears zero
        mods = [abs(circle_expect_U(CirclePhasePoint(0.0, l)))
                for l in np.linspace(0.0, 1.0, 65)]
        assert min(mods) >= 0.7786
        assert min(mods) == pytest.approx(EXPECT_U_AT_REST, rel=1e-14)


class TestUncertainty:
    def test_eigenstate_degenerates_to_zero_equals_zero(self):
        rep = uncertainty_from_moments(0.0, 0j, 0j)
        assert rep.var_j == 0.0
        assert rep.bound == 0.0

    def test_rest_values(self):
        rep = circle_uncertainty_report(CirclePhasePoint(0.0, 0.0))
        assert rep.var_j == pytest.approx(VAR_J_AT_REST, rel=1e-11)
        assert rep.bound == pytest.approx(BOUND_AT_REST, rel=1e-11)
        assert rep.var_j > rep.bound
        assert rep.ratio_u2.real == pytest.approx(RATIO_U2_AT_REST, rel=1e-11)

    def test_variance_flat_in_l(self):
        vals = [circle_uncertainty_report(CirclePhasePoint(0.0, l)).var_j
                for l in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert (max(vals) - min(vals)) / min(vals) < 0.01

    def test_u2_ratio_flat_in_l_and_phi(self):
        vals = [circle_uncertainty_report(CirclePhasePoint(phi, l)).ratio_u2
                for phi, l in ((0.0, 0.0), (1.2, 0.5), (0.0, 1.0), (2.5, 2.0))]
        mags = [abs(v) for v in vals]
        assert (max(mags) - min(mags)) / min(mags) < 0.01


@pytest.mark.parametrize("l", [1000.268, 9301.268])
def test_reports_periodic_in_l(l):
    # on the lattice every ratio depends on l only through l mod 1
    phi = -2.947
    p, q = CirclePhasePoint(phi, l), CirclePhasePoint(phi, math.fmod(l, 1.0))
    pairs = [(circle_expect_U(p), circle_expect_U(q)),
             (circle_relative_U(p), circle_relative_U(q))]
    up, uq = circle_uncertainty_report(p), circle_uncertainty_report(q)
    pairs += [(up.var_j, uq.var_j), (up.ratio_u2, uq.ratio_u2)]
    for a, b in pairs:
        assert abs(a - b) <= 1e-14, (a, b)
    # rounding <J> near l alone costs up to half an ulp of l
    assert abs((circle_expect_J(p) - p.l) - (circle_expect_J(q) - q.l)) <= (
        4 * math.ulp(l))


def test_argument_exact_at_large_l():
    u = circle_expect_U(CirclePhasePoint(-2.947, 9301.268))
    assert abs(cmath.phase(u) - (-2.947)) <= 1e-15


def test_relative_residual_at_negative_l():
    state = circle_coherent(CirclePhasePoint(-2.73, -512.86))
    assert circle_eigen_residual(state)[1] <= 1e-15


def test_phi_wraps_into_principal_interval():
    p = CirclePhasePoint(3 * math.pi, 0.0)
    assert p.phi == pytest.approx(math.pi)
    assert CirclePhasePoint(-math.pi, 0.0).phi == pytest.approx(math.pi)


@pytest.mark.parametrize("phi, l, reason", [
    (math.inf, 0.0, "phi must be finite"),
    (math.nan, 1.0, "phi must be finite"),
    (0.0, math.inf, "l must be finite"),
    (0.0, math.nan, "l must be finite"),
    (0.0, -710.0, "below the supported"),
])
def test_non_finite_or_unsupported_label_is_named(phi, l, reason):
    with pytest.raises(ConstraintError, match=reason):
        CirclePhasePoint(phi, l)


@given(st.floats(), st.floats())
@settings(max_examples=300, deadline=None)
def test_phase_point_is_valid_or_a_constraint_error(phi, l):
    try:
        p = CirclePhasePoint(phi, l)
    except ConstraintError:
        return
    assert math.isfinite(p.phi) and math.isfinite(p.l)
    assert -math.pi < p.phi <= math.pi


def test_constraint_error_is_one_class_under_every_name():
    # the circle raises it from a module of its own; the package and sphere
    # names of earlier versions still refer to it
    import cohstates
    from cohstates import sphere
    assert cohstates.ConstraintError is sphere.ConstraintError
    assert sphere.ConstraintError is ConstraintError
