import cmath
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import inner_log
from cohstates import sphere
from cohstates.checks import PATH_TOL
from cohstates.logdomain import log_sum_exp, wrap_phase
from cohstates.repspace import basis_state, expectation, grid, state_sum
from cohstates.sphere import (L_NORM_MAX, LABEL_TOL, ConstraintError,
                              SpherePhasePoint, ZLabel, axis_reference_label,
                              coherent_closed_form, coherent_ladder_generated,
                              coherent_state, coherent_triple_sum,
                              default_j_cut, eigen_residual, expect_J,
                              expect_X, generation_params,
                              max_amplitude_rel_diff, north_pole_state,
                              path_disagreement, phase_to_z, relative_X,
                              uncertainty_J)

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

    def test_label_cross_product_rounds_as_np_cross(self):
        # _label_on writes l cross u out; every label, and so every report,
        # keeps its bits only if that form rounds as np.cross does
        rng = np.random.default_rng(11)
        norms = np.concatenate([[0.0, 1.0, L_NORM_MAX],
                                rng.uniform(0.0, L_NORM_MAX, 2000)])
        for i, ln in enumerate(norms):
            u = np.eye(3)[i % 3] if i % 4 == 0 else rng.normal(size=3)
            u = u / np.linalg.norm(u)
            v = rng.normal(size=3)
            if i % 2:
                v -= (v @ u) * u    # tangent, as for a phase point
            l = ln * v / np.linalg.norm(v)
            n = math.sqrt(l @ l)
            sinhc = math.sinh(n) / n if n != 0.0 else 1.0
            want = math.cosh(n) * u + 1j * sinhc * np.cross(l, u)
            assert sphere._label_on(u, l).tobytes() == want.tobytes(), (u, l)

    def test_invalid_label_rejected_unless_unchecked(self):
        bad = [1.0, 1.0, 1.0]
        with pytest.raises(ConstraintError):
            ZLabel(bad)
        assert ZLabel(bad, check=False).z.tolist() == bad

    def test_label_past_cosh_overflow_is_rejected(self):
        # at |l| = 356 the squares in z.z overflow, and the NaN deviation
        # must fail the check rather than pass it
        ln = 356.0
        with pytest.raises(ConstraintError):
            ZLabel([0.0, -1j * math.sinh(ln), math.cosh(ln)])
        with pytest.raises(ConstraintError):
            SpherePhasePoint([0.0, 0.0, 1.0], [ln, 0.0, 0.0])
        # the largest supported |l| still gives a label on the quadric
        p = SpherePhasePoint([0.0, 0.0, 1.0], [L_NORM_MAX, 0.0, 0.0])
        assert phase_to_z(p).deviation() <= LABEL_TOL

    # exact unit directions: x/r is the unit point itself at every radius
    _DIRECTIONS = [([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
                   ([0.0, 1.0, 0.0], [0.6, 0.0, -0.8]),
                   ([-1.0, 0.0, 0.0], [0.0, 0.0, 1.0])]

    @pytest.mark.parametrize("r", [1.0, 1e300, 1e-300])
    @pytest.mark.parametrize("ln", [0.0, 1.0, 20.0, 100.0, L_NORM_MAX])
    def test_size_and_deviation_at_every_radius(self, ln, r):
        # sum |z_i|^2 = cosh^2|l| + sinh^2|l| = cosh 2|l|
        for u, t in self._DIRECTIONS:
            zl = phase_to_z(SpherePhasePoint([r * c for c in u],
                                             [ln * c for c in t], r=r))
            assert zl.size() == pytest.approx(math.sqrt(math.cosh(2 * ln)),
                                              rel=1e-14)
            assert zl.deviation() <= LABEL_TOL

    @pytest.mark.parametrize("r", [1e300, 1e-300])
    @pytest.mark.parametrize("ln", [0.0, 1.0, 20.0, 100.0, L_NORM_MAX])
    def test_label_depends_on_x_over_r_alone(self, ln, r):
        # no product of x with cosh|l| is formed, so neither end of the
        # double range over- or underflows, and the label is the unit one
        for u, t in self._DIRECTIONS:
            l = [ln * c for c in t]
            big = phase_to_z(SpherePhasePoint([r * c for c in u], l, r=r)).z
            unit = phase_to_z(SpherePhasePoint(u, l)).z
            assert big.tobytes() == unit.tobytes()

    def test_axis_reference_label_off_quadric(self):
        # the axis references genuinely violate the bilinear constraint when
        # the momentum is not orthogonal to the axis; they must still build
        w = axis_reference_label([8.124, -8.124, 0.0], 0)
        assert abs(w.z @ w.z - 1.0) > 1.0


class TestNorthPoleState:
    def test_coefficients(self):
        s = north_pole_state(20)
        assert oracles.value(s.amplitudes[0, 0]) == 1.0
        assert oracles.value(s.amplitudes[1, 0]) == pytest.approx(
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
        assert oracles.value(s.amplitudes[1, 1]) == pytest.approx(
            want_up, rel=1e-13)
        assert oracles.value(s.amplitudes[1, -1]) == pytest.approx(
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

    @pytest.mark.parametrize("x, l", [
        ([0, 0, -1], [0, 0, 0]),                    # z3 = -1
        ([1.0, 0, -8.496708510583178e-18],          # z3 = -1.00000004
         [-3.3986834076319546e-16, 0, -40.00000004]),
    ], ids=["south_pole", "beside_it"])
    def test_path_disagreement_finite_beside_south_pole(self, x, l):
        # the routes run from the other chart, where 1 + z3 is about 2
        p = SpherePhasePoint(x, l)
        assert path_disagreement(coherent_state(p), phase_to_z(p)) <= PATH_TOL


class TestSecondChart:
    """The label (z1, -z2, -z3) and its state, carried over by
    sphere._other_chart, which path_disagreement reads where it makes the
    generation parameters smaller."""

    @pytest.mark.parametrize("l_norm", [0.0, 1.0, 25.0, 100.0, 354.9,
                                        L_NORM_MAX])
    def test_closed_form_maps_bit_for_bit_in_magnitude(self, l_norm):
        # C_n(-x) = (-1)^n C_n(x) holds bit for bit in the recurrence, and
        # the other chart's |m|-th powers are of -w: the magnitudes are the
        # same doubles, and the phases move by pi j up to the rounding of
        # |m| arg(w) and of the sweep's phases
        zl = phase_to_z(_tangent_point(41, l_norm))
        cut = default_j_cut(l_norm)
        a = coherent_closed_form(zl, cut)
        other = ZLabel(zl.z * np.array([1, -1, -1]), check=False)
        b = sphere._other_chart(coherent_closed_form(other, cut))
        assert a.log_mag.tobytes() == b.log_mag.tobytes()
        j, _ = grid(cut)
        turn = np.abs(wrap_phase(a.phase - b.phase))
        assert (turn <= 8 * np.finfo(float).eps * (1 + j)).all()
        back = sphere._other_chart(sphere._other_chart(a))
        assert back.log_mag.tobytes() == a.log_mag.tobytes()


@functools.cache
def _reference_ladder(l_norm):
    """The per-amplitude ladder state at the seed-23 point of |l| = l_norm,
    at its default cut."""
    zl = phase_to_z(_tangent_point(23, l_norm))
    return oracles.coherent_ladder_generated(zl, default_j_cut(l_norm))


def _gauss_factors(axis, angle):
    """(lower, diag, upper) of exp(-i angle n.J) = exp(lower J-)
    exp(diag J3) exp(upper J+), the arguments of sphere._ladder_product.

    The 2x2 spin matrix [[alpha, beta], [gamma, .]] of the rotation factors
    as exp(a J-) exp(b J3) exp(c J+) with a = gamma/alpha, b = 2 log alpha
    and c = beta/alpha, and the same parameters implement the rotation in
    every multiplet.  The corner alpha vanishes for a rotation by pi about
    an equatorial axis, which the tests avoid.
    """
    n = np.asarray(axis, dtype=float)
    n = n / math.sqrt(n @ n)
    ch, sh = math.cos(angle / 2), math.sin(angle / 2)
    alpha = complex(ch, -n[2] * sh)
    return (complex(n[1] * sh, -n[0] * sh) / alpha, 2 * cmath.log(alpha),
            complex(-n[1] * sh, -n[0] * sh) / alpha)


class TestDenseRoutesMatchOldLoops:
    """The array triple sum and ladder against the per-amplitude loops."""

    @pytest.mark.parametrize("l_norm", [0.0, 1.0, 5.0, 12.0])
    def test_triple_sum_and_ladder(self, l_norm):
        zl = phase_to_z(_tangent_point(23, l_norm))
        cut = default_j_cut(l_norm)
        for new, old in ((coherent_triple_sum, oracles.coherent_triple_sum),
                         (coherent_ladder_generated,
                          lambda zl, cut: _reference_ladder(l_norm))):
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


class TestLadderLiveTermsMatchDenseLoop:
    """The ladder on its live terms against the loop over every entry at
    every step: the same float operations at every target a term reaches,
    so the states are equal bit for bit."""

    @staticmethod
    def _assert_bit_identical(s, factors, monkeypatch):
        got = sphere._ladder_product(s, *factors)
        monkeypatch.setattr(sphere, "_exp_ladder", oracles.exp_ladder_dense)
        want = sphere._ladder_product(s, *factors)
        assert np.array_equal(got.log_mag, want.log_mag)
        assert np.array_equal(got.phase, want.phase)

    @pytest.mark.parametrize("l_norm", [0.0, 5.0, 25.0])
    def test_generation(self, l_norm, monkeypatch):
        zl = phase_to_z(_tangent_point(23, l_norm))
        mu, nu, gamma = generation_params(zl)
        self._assert_bit_identical(north_pole_state(default_j_cut(l_norm)),
                                   (mu, gamma, nu), monkeypatch)

    @pytest.mark.parametrize("axis", [[0, 1, 0], [1, 0, 0], [0.3, -0.4, 0.5]],
                             ids=["real", "imaginary", "generic"])
    def test_rotated_closed_form(self, axis, monkeypatch):
        s = coherent_closed_form(phase_to_z(_tangent_point(23, 5.0)), 30)
        self._assert_bit_identical(s, _gauss_factors(axis, 0.7), monkeypatch)

    def test_zero_coefficient(self, monkeypatch):
        s = coherent_closed_form(phase_to_z(_tangent_point(23, 5.0)), 30)
        self._assert_bit_identical(s, (0j, 0.3 + 0.1j, 0.2 - 0.5j),
                                   monkeypatch)


@pytest.mark.parametrize("l_norm", [100.0, 200.0])
def test_routes_agree_at_large_momentum(l_norm):
    zl = phase_to_z(_tangent_point(23, l_norm))
    cut = default_j_cut(l_norm)
    a = coherent_closed_form(zl, cut)
    for route in (coherent_triple_sum, coherent_ladder_generated):
        assert max_amplitude_rel_diff(a, route(zl, cut)) <= PATH_TOL


def _ladder_tolerance(s, lower, diag, upper):
    """First-order rounding bound on a ladder product, relative to its
    largest amplitude.

    Each of the 2 j_cut + 2 steps rounds every term's log-magnitude, about
    L in size, so each term is off by at most (2 j_cut + 2) u (1 + L) of
    itself, u = 2^-53; the terms add up, in modulus, to `growth` times the
    largest amplitude.  Their modulus sum is the same product on moduli.
    """
    mags = sphere._ladder_product(
        replace(s, phase=np.zeros(s.phase.size)), abs(lower),
        complex(diag.real), abs(upper))
    out = sphere._ladder_product(s, lower, diag, upper)
    peak = mags.log_mag.max()
    growth = math.exp(peak - out.log_mag.max())
    return (2 * s.j_cut + 2) * 2.0 ** -53 * (1 + abs(peak)) * growth


class TestLadderMatchesReference:
    """The unit-mantissa ladder against the per-amplitude reference ladder.

    At |l| = 25 neither this ladder nor the phase-carrier one before it
    stays within 1e-13 of the reference (1.7e-13 for the generation), so it
    is held to its first-order rounding bound.
    """

    @pytest.mark.parametrize("l_norm", [0.0, 1.0, 5.0, 12.0, 25.0])
    def test_generation_and_rotation(self, l_norm):
        zl = phase_to_z(_tangent_point(23, l_norm))
        cut = default_j_cut(l_norm)
        mu, nu, gamma = generation_params(zl)
        want = _reference_ladder(l_norm)
        got = coherent_ladder_generated(zl, cut)
        assert want.amplitudes.keys() == got.amplitudes.keys()
        assert max_amplitude_rel_diff(want, got) <= _ladder_tolerance(
            north_pole_state(cut), mu, gamma, nu)

    def test_real_label_keeps_exact_real_phases(self):
        # z real: mu, nu and gamma are real, every mantissa is exactly +-1,
        # and mirroring z1 flips the sign of exactly the odd-m amplitudes
        cut = 40
        _, m = grid(cut)
        a = coherent_ladder_generated(ZLabel([0.6, 0.0, 0.8]), cut)
        b = coherent_ladder_generated(ZLabel([-0.6, 0.0, 0.8]), cut)
        nonzero = a.log_mag > -math.inf
        assert np.isin(a.phase[nonzero], [0.0, math.pi]).all()
        total = state_sum([a, b])
        odd = m % 2 == 1
        assert (total.log_mag[odd] == -math.inf).all()
        assert (total.log_mag[~odd & nonzero] > -math.inf).all()

    def test_imaginary_coefficient_keeps_exact_quadrant_phases(self):
        # about the x axis the ladder coefficients are -i tan(angle/2): the
        # odd-m amplitudes of the rotated rest state are imaginary, and
        # opposite for opposite angles
        cut = 40
        _, m = grid(cut)
        rest = north_pole_state(cut)
        a, b = (sphere._ladder_product(rest, *_gauss_factors([1, 0, 0], t))
                for t in (0.9, -0.9))
        nonzero = a.log_mag > -math.inf
        assert np.isin(a.phase[nonzero],
                       [0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi]).all()
        total = state_sum([a, b])
        odd = m % 2 == 1
        assert (total.log_mag[odd] == -math.inf).all()
        assert (total.log_mag[~odd & nonzero] > -math.inf).all()


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
    via_op = sphere._ladder_product(coherent_closed_form(phase_to_z(p), 35),
                                    *_gauss_factors(axis, angle))
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
    return max(oracles.sparse_residual_norm(which, s, complex(zi),
                                            s.j_cut - 2)
               for which, zi in zip(("Z1", "Z2", "Z3"), zl.z))


class TestDenseMatchesSparse:
    def test_expectation_for_every_label(self, sampled_coherent):
        s, _ = sampled_coherent
        for which in ("J3", "Jplus", "Jminus", "Jsq", "X1", "X2", "X3",
                      "Xplus", "Xminus", "Z1", "Z2", "Z3"):
            want = oracles.sparse_expectation(which, s)
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

    @pytest.mark.parametrize("l_norm", [0.0, 5.0, 21.5, 100.0])
    def test_cartesian_components_read_off_the_ladder_pair(self, l_norm):
        # bit for bit the Hermitian combinations of <A+> and <A->, and <A3>
        s = coherent_state(_tangent_point(3, l_norm))
        for name, got in (("J", expect_J(s)), ("X", expect_X(s))):
            ep = expectation(name + "plus", s)
            em = expectation(name + "minus", s)
            want = [((ep + em) / 2).real, ((ep - em) / 2j).real,
                    expectation(name + "3", s).real]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    def test_relative_X_reference_at_own_axis(self):
        # the rest state at the north pole coincides with its own third-axis
        # reference, and its transverse position averages vanish
        p = SpherePhasePoint([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        s = coherent_state(p)
        rel = relative_X(s, p)
        assert rel[2] == pytest.approx(1.0, rel=1e-12)
        assert rel[0] == pytest.approx(0.0, abs=1e-12)
        assert rel[1] == pytest.approx(0.0, abs=1e-12)


@pytest.fixture(scope="module",
                params=[0.0, 1e-3, 0.5, 5.0, 12.0, 21.5, 25.0, 100.0, 200.0,
                        354.9])
def default_cut_point(request):
    p = _tangent_point(13, request.param)
    return p, coherent_state(p)


class TestRelativeXReferenceCut:
    """relative_X builds its axis references at min(j_cut, ceil|l| + 10)."""

    def test_matches_full_cut_references(self, default_cut_point):
        p, s = default_cut_point
        got = relative_X(s, p)
        want = oracles.relative_X_full_cut(s, p)
        assert np.all(np.abs(got - want)
                      <= 1e-13 * np.maximum(1.0, np.abs(want))), (got, want)

    def test_levels_above_the_cut_are_negligible(self, default_cut_point):
        # a reference label is no larger than the state's own, so its level
        # norms fall off as a Gaussian about |l| as well
        p, s = default_cut_point
        cut = math.ceil(p.l_norm) + 10
        for k in range(3):
            ref = coherent_closed_form(axis_reference_label(p.l, k), s.j_cut)
            tail = log_sum_exp(2 * ref.log_mag[(cut + 1) ** 2:])
            assert tail - ref.log_norm_sq() < math.log(1e-40), (p.l_norm, k)

    @pytest.mark.parametrize("l_norm, j_cut", [(100.0, 20), (12.0, 20)])
    def test_starved_cut_keeps_the_full_cut_reference(self, l_norm, j_cut):
        # all NaN at |l| = 100: every reference average is below 1e-6 there
        p = _tangent_point(13, l_norm)
        s = coherent_state(p, j_cut)
        got = relative_X(s, p)
        assert got.tobytes() == oracles.relative_X_full_cut(s, p).tobytes()
        assert np.isnan(got).all() == (l_norm == 100.0)

    def test_closed_form_sees_the_reference_cut(self, monkeypatch):
        p = _tangent_point(13, 21.5)
        s = coherent_state(p)
        closed_form = sphere.coherent_closed_form
        cuts = []

        def traced(zl, j_cut):
            cuts.append(j_cut)
            return closed_form(zl, j_cut)

        monkeypatch.setattr(sphere, "coherent_closed_form", traced)
        relative_X(s, p)
        assert s.j_cut == 52 and cuts == [32] * 3

    def test_references_hold_only_their_x_averages(self, monkeypatch):
        p = _tangent_point(13, 5.0)
        s = coherent_state(p)
        closed_form, refs = sphere.coherent_closed_form, []

        def traced(zl, j_cut):
            refs.append(closed_form(zl, j_cut))
            return refs[-1]

        monkeypatch.setattr(sphere, "coherent_closed_form", traced)
        relative_X(s, p)
        assert len(refs) == 3
        for ref in refs:
            assert ref._expectations.keys() == {"Xplus", "Xminus", "X3"}


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
    assert s.tail_fraction() <= 1e-24
    assert s.j_cut >= default_j_cut(fig1_point.l_norm)


def test_default_cut_margin_over_the_range():
    # level j peaks at j + 1/2 = |l|, so the top two lie at least 29.5
    # above it, with equality at each integer |l| >= 10; above |l| = 10 no
    # level past |l| + 31 is kept
    norms = np.concatenate([np.linspace(0.0, L_NORM_MAX, 71001),
                            np.arange(356.0)])
    for l_norm in norms.tolist():
        cut = default_j_cut(l_norm)
        assert (cut - 0.5 - l_norm) ** 2 >= 870, l_norm
        assert cut <= max(l_norm + 31, 40), l_norm


def test_default_cut_tail_underflows_over_the_range():
    # the top two levels hold about e^{-(j_cut - 1/2 - |l|)^2} <= e^{-870}
    # of the squared norm at the default cut, the least at integer |l| >= 10
    rng = np.random.default_rng(5)
    norms = [0.0, 10.0, L_NORM_MAX - 0.01, *rng.uniform(0.0, 354.99, 13)]
    for seed, l_norm in enumerate(norms):
        s = coherent_state(_tangent_point(seed, l_norm))
        assert s.j_cut == default_j_cut(l_norm)
        assert s.tail_fraction() == 0.0, l_norm
    for l_norm in (100, 354):
        # an exact integer norm, where j_cut - 1/2 - |l| is 29.5
        s = coherent_state(SpherePhasePoint([0, 0, 1], [l_norm, 0, 0]))
        assert s.j_cut == l_norm + 30
        assert s.tail_fraction() == 0.0, l_norm


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


def test_rel_diff_past_the_double_range_is_inf():
    a = basis_state(1, 0, 10)
    b = replace(a, log_mag=a.log_mag + 800.0)
    assert max_amplitude_rel_diff(a, b) == math.inf
