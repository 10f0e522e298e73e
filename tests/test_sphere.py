import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cohstates.repspace import (BasisIndex, basis_state, expectation,
                                inner_log, state_scale, state_sum)
from cohstates.sphere import (L_NORM_MAX, ConstraintError, SpherePhasePoint,
                              ZLabel, apply_rotation, axis_reference_label,
                              coherent_closed_form, coherent_ladder_generated,
                              coherent_state, coherent_triple_sum,
                              default_j_cut, eigen_residual, expect_J,
                              expect_X, generation_params,
                              max_amplitude_rel_diff, north_pole_state,
                              phase_to_z, relative_X, uncertainty_J)

# Figure-1 phase point of the energy-distribution study: position quoted to
# three decimals (rescaled onto the unit sphere at construction), momentum
# exactly tangent.
FIG1_X = [0.412, 0.412, 0.812]
FIG1_L = [8.124, -8.124, 0.0]

# 50-digit lattice-sum oracle values for the Figure-1 state
FIG1_Z = np.array([20126.169491015185 - 28048.196480140986j,
                   20126.169491015185 - 28048.196480140986j,
                   39666.139870641577 + 28462.701846842577j])
FIG1_EXPECT_J = np.array([7.7855114232446952, -7.7855114232446952, 0.0])
FIG1_EXPECT_X = np.array([0.31406598076992984, 0.31406598076992984,
                          0.61898440870190056])
FIG1_RELATIVE_X = np.array([0.4105341469102197, 0.4105341469102197,
                            0.81247462381095037])
FIG1_VAR_J = 11.508431895375866
FIG1_BOUND = 0.69165814162594251


@pytest.fixture(scope="module")
def fig1_point():
    return SpherePhasePoint(FIG1_X, FIG1_L)


@pytest.fixture(scope="module")
def fig1_state(fig1_point):
    return coherent_state(fig1_point)


class TestPhasePoint:
    def test_off_sphere_positions_are_rescaled(self):
        p = SpherePhasePoint(FIG1_X, FIG1_L)
        assert p.x @ p.x == pytest.approx(1.0, rel=1e-14)
        assert p.x[2] == pytest.approx(0.81247462381095037, rel=1e-14)

    def test_far_off_sphere_rejected(self):
        with pytest.raises(ConstraintError):
            SpherePhasePoint([2.0, 0.0, 0.0], [0.0, 0.0, 1.0])

    def test_nontangent_momentum_rejected_without_projection(self):
        with pytest.raises(ConstraintError):
            SpherePhasePoint([0.0, 0.0, 1.0], [0.1, 0.0, 1.0])

    def test_projection_repairs_tangency(self):
        p = SpherePhasePoint([0.0, 0.0, 1.0], [0.1, 0.0, 1.0],
                             project_tangent=True)
        assert p.l @ p.x == pytest.approx(0.0, abs=1e-15)
        assert p.l[0] == pytest.approx(0.1)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ConstraintError):
            SpherePhasePoint([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], r=0.0)

    @pytest.mark.parametrize("x, l, r, reason", [
        ([0.0, 0.0, math.nan], [0.0, 0.0, 0.0], 1.0, "x must be finite"),
        ([0.0, 0.0, 1.0], [math.nan, 0.0, 0.0], 1.0, "l must be finite"),
        ([0.0, 0.0, 1.0], [0.0, math.inf, 0.0], 1.0, "l must be finite"),
        ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], math.inf, "r must be finite"),
        # r*r overflows a double: a NaN deviation must fail the check
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 1.35e154, "too far from"),
        ([0.0, 0.0, 5e-324], [0.0, 0.0, 0.0], 5e-324, "normal double"),
    ])
    def test_non_finite_or_unrepresentable_input_is_named(self, x, l, r,
                                                          reason):
        with pytest.raises(ConstraintError, match=reason):
            SpherePhasePoint(x, l, r=r)

    def test_radius_far_from_one_is_exact(self):
        # no square is formed outside units of r, so neither end overflows
        for r in (1e300, 1e-300):
            p = SpherePhasePoint([0.0, 0.6 * r, 0.8 * r], [0.0, 0.0, 0.0],
                                 r=r)
            assert math.hypot(*p.x) == pytest.approx(r, rel=1e-15)


# any doubles, or a point on the unit sphere and a bounded l
_any3 = st.lists(st.floats(), min_size=3, max_size=3)
_x = st.one_of(_any3, st.permutations([0.0, 0.6, -0.8]))
_l = st.one_of(_any3, st.lists(st.floats(-400.0, 400.0), min_size=3,
                               max_size=3))


@given(_x, _l, st.one_of(st.just(1.0), st.floats()), st.booleans(),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_phase_point_is_valid_or_a_constraint_error(x, l, r, x_in_units_of_r,
                                                    project):
    if x_in_units_of_r:
        x = [c * r for c in x]
    try:
        p = SpherePhasePoint(x, l, r=r, project_tangent=project)
    except ConstraintError:
        return
    assert np.isfinite(p.x).all() and np.isfinite(p.l).all()
    assert math.isfinite(p.r) and p.r > 0
    assert math.hypot(*p.x) == pytest.approx(p.r, rel=1e-12)
    assert p.l_norm <= L_NORM_MAX


class TestLabel:
    def test_north_pole_at_rest(self):
        zl = phase_to_z(SpherePhasePoint([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]))
        assert np.allclose(zl.z, [0, 0, 1])

    def test_fig1_label(self, fig1_point):
        zl = phase_to_z(fig1_point)
        assert np.allclose(zl.z, FIG1_Z, rtol=1e-12)
        scale = float(np.sum(np.abs(zl.z) ** 2))
        assert abs(zl.z @ zl.z - 1.0) / scale < 1e-12

    def test_bilinear_constraint_on_random_tangent_points(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            v = rng.normal(size=3)
            v -= (v @ x) * x
            l = rng.uniform(0, 12) * v / np.linalg.norm(v)
            z = phase_to_z(SpherePhasePoint(x, l)).z
            scale = max(1.0, float(np.sum(np.abs(z) ** 2)))
            assert abs(z @ z - 1.0) / scale < 1e-12

    def test_invalid_label_rejected_unless_unchecked(self):
        bad = [1.0, 1.0, 1.0]
        with pytest.raises(ConstraintError):
            ZLabel(bad)
        assert not ZLabel.unchecked(bad).checked

    def test_label_past_cosh_overflow_is_rejected(self):
        # at |l| = 356 the squares in z.z overflow, and the NaN deviation
        # must fail the check rather than pass it
        ln = 356.0
        with pytest.raises(ConstraintError):
            ZLabel([0.0, -1j * math.sinh(ln), math.cosh(ln)])
        with pytest.raises(ConstraintError):
            SpherePhasePoint([0.0, 0.0, 1.0], [ln, 0.0, 0.0])
        # the largest supported |l| still gives a checked label
        p = SpherePhasePoint([0.0, 0.0, 1.0], [L_NORM_MAX, 0.0, 0.0])
        assert phase_to_z(p).checked

    def test_axis_reference_label_off_quadric(self):
        # the axis references genuinely violate the bilinear constraint when
        # the momentum is not orthogonal to the axis; they must still build
        w = axis_reference_label([8.124, -8.124, 0.0], 0)
        assert abs(w.z @ w.z - 1.0) > 1.0


class TestNorthPoleState:
    def test_coefficients(self):
        s = north_pole_state(20)
        assert oracles.value(s.amplitudes[BasisIndex(0, 0)]) == 1.0
        assert oracles.value(s.amplitudes[BasisIndex(1, 0)]) == pytest.approx(
            math.exp(-1) * math.sqrt(3), rel=1e-14)

    def test_eigen_residual(self):
        s = north_pole_state(20)
        assert eigen_residual(s, ZLabel([0, 0, 1])) <= 1e-12

    def test_small_cut_rejected(self):
        with pytest.raises(ValueError):
            north_pole_state(5)


class TestClosedForm:
    def test_reduces_to_north_pole_at_rest(self):
        s = coherent_closed_form(ZLabel([0, 0, 1]), 20)
        np_state = north_pole_state(20)
        assert max_amplitude_rel_diff(np_state, s) < 1e-14

    def test_first_multiplet_amplitudes_symbolic(self, fig1_point):
        zl = phase_to_z(fig1_point)
        s = coherent_closed_form(zl, 15)
        z1, z2, _ = zl.z
        pref = math.exp(-1) * math.sqrt(1.5)
        want_up = pref * (-z1 + 1j * z2)
        want_down = pref * (z1 + 1j * z2)
        assert oracles.value(s.amplitudes[BasisIndex(1, 1)]) == pytest.approx(
            want_up, rel=1e-13)
        assert oracles.value(s.amplitudes[BasisIndex(1, -1)]) == pytest.approx(
            want_down, rel=1e-13)

    @pytest.mark.parametrize("l_norm", [0.0, 1.0, 5.0, 12.0, 18.0, 21.5, 25.0])
    def test_matches_per_amplitude_kernel(self, l_norm):
        zl = phase_to_z(_tangent_point(29, l_norm))
        cut = default_j_cut(l_norm)
        want = oracles.coherent_closed_form(zl, cut)
        got = coherent_closed_form(zl, cut)
        assert got.amplitudes.keys() == want.amplitudes.keys()
        assert max_amplitude_rel_diff(want, got) <= 1e-12

    @pytest.mark.parametrize("x", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    def test_axis_labels_keep_exact_quadrant_phases(self, x):
        # at rest on an axis every amplitude is real or imaginary, so each
        # phase must be exactly a quadrant angle, however large |m| is
        s = coherent_state(SpherePhasePoint(x, [0, 0, 0]))
        phases = set(s.phase[s.log_mag > -math.inf].tolist())
        assert phases <= {0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi}


class TestTripleSum:
    def test_reduces_to_north_pole_at_rest(self):
        s = coherent_triple_sum(ZLabel([0, 0, 1]), 20)
        assert max_amplitude_rel_diff(north_pole_state(20), s) < 1e-14

    def test_matches_closed_form_at_fig1(self, fig1_point):
        zl = phase_to_z(fig1_point)
        a = coherent_closed_form(zl, 25)
        b = coherent_triple_sum(zl, 25)
        assert max_amplitude_rel_diff(a, b) < 1e-10

    def test_generation_params_singular_at_south_pole(self):
        with pytest.raises(ConstraintError):
            generation_params(ZLabel([0, 0, -1]))
        with pytest.raises(ConstraintError):
            coherent_triple_sum(ZLabel([0, 0, -1]), 15)


class TestDenseRoutesMatchOldLoops:
    """The array triple sum and ladder against the per-amplitude loops."""

    @pytest.mark.parametrize("l_norm", [0.0, 1.0, 5.0, 12.0])
    def test_triple_sum_and_ladder(self, l_norm):
        zl = phase_to_z(_tangent_point(23, l_norm))
        cut = default_j_cut(l_norm)
        for new, old in ((coherent_triple_sum, oracles.coherent_triple_sum),
                         (coherent_ladder_generated,
                          oracles.coherent_ladder_generated)):
            a, b = old(zl, cut), new(zl, cut)
            assert a.amplitudes.keys() == b.amplitudes.keys()
            assert max_amplitude_rel_diff(a, b) <= 1e-13

    def test_north_pole_has_zero_generation_parameters(self):
        # mu = nu = 0: only the k = m = 0 terms survive, with 0^0 = 1
        zl = ZLabel([0, 0, 1])
        assert generation_params(zl)[:2] == (0, 0)
        want = north_pole_state(20)
        got = coherent_triple_sum(zl, 20)
        assert got.amplitudes.keys() == want.amplitudes.keys()
        assert max_amplitude_rel_diff(want, got) <= 1e-15

    def test_rotation_matches_old_ladder(self):
        p = SpherePhasePoint([0.36, 0.48, 0.8], [4.8, -3.6, 0.0])
        s = coherent_closed_form(phase_to_z(p), 35)
        axis, angle = np.array([0.6, 0.0, 0.8]), 0.7
        got = apply_rotation(s, axis, angle)
        # the Gauss factors of exp(-i angle n.J), as apply_rotation takes them
        ch, sh = math.cos(angle / 2), math.sin(angle / 2)
        alpha = complex(ch, -axis[2] * sh)
        want = oracles.exp_ladder("Jplus", complex(-axis[1] * sh,
                                                   -axis[0] * sh) / alpha, s)
        want = oracles.diag_exp_J3(2 * cmath.log(alpha), want)
        want = oracles.exp_ladder("Jminus", complex(axis[1] * sh,
                                                    -axis[0] * sh) / alpha,
                                  want)
        assert max_amplitude_rel_diff(want, got) <= 1e-13


class TestLadderGeneration:
    def test_rest_label_is_exactly_the_north_pole_state(self):
        s = coherent_ladder_generated(ZLabel([0, 0, 1]), 20)
        np_state = north_pole_state(20)
        assert s.amplitudes.keys() == np_state.amplitudes.keys()
        assert max_amplitude_rel_diff(np_state, s) == 0.0

    def test_matches_closed_form(self):
        p = SpherePhasePoint([1.0, 0.0, 0.0], [0.0, 0.0, 2.0])
        zl = phase_to_z(p)
        a = coherent_closed_form(zl, 30)
        c = coherent_ladder_generated(zl, 30)
        assert max_amplitude_rel_diff(a, c) < 1e-10

    def test_rotation_preserves_norm(self):
        p = SpherePhasePoint([1.0, 0.0, 0.0], [0.0, 0.0, 3.0])
        s = coherent_closed_form(phase_to_z(p), 30)
        rotated = apply_rotation(s, [0.36, 0.48, 0.8], 0.9)
        assert rotated.log_norm_sq() == pytest.approx(s.log_norm_sq(),
                                                      abs=1e-12)

    def test_south_pole_rejected(self):
        with pytest.raises(ConstraintError):
            coherent_ladder_generated(ZLabel([0, 0, -1]), 15)


def _rotation_matrix(axis, angle):
    n = np.asarray(axis, dtype=float)
    n /= np.linalg.norm(n)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def test_rotation_equivariance():
    p = SpherePhasePoint([0.36, 0.48, 0.8], [4.8, -3.6, 0.0])
    axis, angle = [0.6, 0.0, 0.8], 0.7
    r = _rotation_matrix(axis, angle)
    rotated_point = SpherePhasePoint(r @ p.x, r @ p.l)
    direct = coherent_closed_form(phase_to_z(rotated_point), 35)
    via_op = apply_rotation(coherent_closed_form(phase_to_z(p), 35),
                            axis, angle)
    ov_log_mag, _ = inner_log(direct, via_op)
    norms = 0.5 * (direct.log_norm_sq() + via_op.log_norm_sq())
    assert math.exp(ov_log_mag - norms) == pytest.approx(1.0, abs=1e-10)


class TestEigenResidual:
    def test_fig1_state_with_generous_cut(self, fig1_point):
        s = coherent_state(fig1_point, j_cut=60)
        assert eigen_residual(s, phase_to_z(fig1_point)) <= 1e-8

    def test_basis_state_is_not_coherent(self):
        s = basis_state(5, 2, 20)
        assert eigen_residual(s, ZLabel([0, 0, 1])) > 0.1


def _tangent_point(seed, l_norm):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    v = rng.normal(size=3)
    v -= (v @ x) * x
    return SpherePhasePoint(x, l_norm * v / np.linalg.norm(v))


@pytest.fixture(scope="module", params=[0.0, 5.0, 12.0, 21.5])
def sampled_coherent(request):
    p = _tangent_point(11, request.param)
    return coherent_state(p), phase_to_z(p)


def _sparse_eigen_residual(s, zl):
    """Oracle: the operator-action formula on sparse states."""
    sn = s.normalized()
    worst = 0.0
    for which, zi in zip(("Z1", "Z2", "Z3"), zl.z):
        diff = state_sum([oracles.apply_Z(which, sn),
                          state_scale(sn, -complex(zi))])
        worst = max(worst,
                    math.exp(0.5 * diff.restricted(s.j_cut - 2).log_norm_sq()))
    return worst


class TestDenseMatchesSparse:
    def test_expectation_for_every_label(self, sampled_coherent):
        s, _ = sampled_coherent
        for which in ("J3", "Jplus", "Jminus", "Jsq", "X1", "X2", "X3",
                      "Xplus", "Xminus", "Z1", "Z2", "Z3"):
            want = (oracles.LogComplex(
                *inner_log(s, oracles.apply_operator(which, s)))
                .scaled_log(-s.log_norm_sq()).to_complex())
            got = expectation(which, s)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), which

    def test_eigen_residual(self, sampled_coherent):
        s, zl = sampled_coherent
        want = _sparse_eigen_residual(s, zl)
        size = max(1.0, float(np.linalg.norm(zl.z)))
        assert abs(eigen_residual(s, zl) - want) <= 1e-13 * size

    def test_eigen_residual_off_the_family(self):
        s = basis_state(5, 2, 20)
        zl = ZLabel([0, 0, 1])
        assert eigen_residual(s, zl) == pytest.approx(
            _sparse_eigen_residual(s, zl), rel=1e-13)


class TestExpectations:
    def test_north_pole_momentum_vanishes(self):
        s = north_pole_state(20)
        assert np.allclose(expect_J(s), 0.0, atol=1e-15)

    def test_fig1_expect_J(self, fig1_state):
        ej = expect_J(fig1_state)
        assert np.allclose(ej[:2], FIG1_EXPECT_J[:2], rtol=1e-11)
        assert abs(ej[2]) < 1e-12

    def test_fig1_expect_X(self, fig1_state):
        assert np.allclose(expect_X(fig1_state), FIG1_EXPECT_X, rtol=1e-11)

    def test_fig1_relative_X(self, fig1_state, fig1_point):
        rel = relative_X(fig1_state, fig1_point)
        assert np.allclose(rel, FIG1_RELATIVE_X, rtol=1e-10)
        # the ratio lands within 2 percent of the classical position
        assert np.all(np.abs(rel - fig1_point.x) <= 0.02)

    def test_relative_X_reference_at_own_axis(self):
        # the rest state at the north pole coincides with its own third-axis
        # reference, and its transverse position averages vanish
        p = SpherePhasePoint([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        s = coherent_state(p)
        rel = relative_X(s, p)
        assert rel[2] == pytest.approx(1.0, rel=1e-12)
        assert rel[0] == pytest.approx(0.0, abs=1e-12)
        assert rel[1] == pytest.approx(0.0, abs=1e-12)


class TestUncertainty:
    def test_basis_state_degenerate_bound(self):
        u = uncertainty_J(basis_state(3, 1, 20))
        assert u.bound == 0.0
        assert u.var_j >= 0.0

    def test_north_pole(self):
        u = uncertainty_J(north_pole_state(20))
        assert u.var_j > 0.0
        assert u.bound > 0.0
        assert u.var_j >= u.bound

    def test_fig1(self, fig1_state):
        u = uncertainty_J(fig1_state)
        assert u.var_j == pytest.approx(FIG1_VAR_J, rel=1e-10)
        assert u.bound == pytest.approx(FIG1_BOUND, rel=1e-10)
        assert u.var_j >= u.bound


def test_adaptive_truncation_reaches_tail_target(fig1_point):
    s = coherent_state(fig1_point)
    assert s.tail_fraction(bands=2) <= 1e-24
    assert s.j_cut >= default_j_cut(fig1_point.l_norm)


def test_default_cut_tail_underflows_over_the_range():
    # the top two levels hold about e^{-(j_cut - 1/2 - |l|)^2} <= e^{-870}
    # of the squared norm at the default cut, the least at |l| = 10
    rng = np.random.default_rng(5)
    norms = [0.0, 10.0, L_NORM_MAX - 0.01, *rng.uniform(0.0, 354.99, 13)]
    for seed, l_norm in enumerate(norms):
        s = coherent_state(_tangent_point(seed, l_norm))
        assert s.j_cut == default_j_cut(l_norm)
        assert s.tail_fraction(bands=2) == 0.0, l_norm


def test_three_paths_at_moderate_momentum():
    rng = np.random.default_rng(7)
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    v = rng.normal(size=3)
    v -= (v @ x) * x
    p = SpherePhasePoint(x, 5.0 * v / np.linalg.norm(v))
    zl = phase_to_z(p)
    cut = default_j_cut(5.0)
    a = coherent_closed_form(zl, cut)
    assert max_amplitude_rel_diff(a, coherent_triple_sum(zl, cut)) < 1e-10
    assert max_amplitude_rel_diff(
        a, coherent_ladder_generated(zl, cut)) < 1e-10
