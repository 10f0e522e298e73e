import math

import numpy as np
import pytest

from cohstates.rotator import (DistributionTable, argmax_j, argmax_m,
                               classical_peak_j, distribution_from_state,
                               rotator_energy)
from cohstates.sphere import SpherePhasePoint, coherent_state

# norm of the rest state at the north pole: sum_j e^{-j(j+1)} (2j+1),
# evaluated by direct series summation at 40 digits
NORTH_POLE_NORM_SQ = 1.4184426386310551132
P00_AT_REST = 0.7049985475373922465

REST = SpherePhasePoint([0, 0, 1], [0, 0, 0])
FIG1 = SpherePhasePoint([0.412, 0.412, 0.812], [8.124, -8.124, 0.0])
FIG2 = SpherePhasePoint([0.411, 0.911, 0.036], [-17.490, 7.490, 10.0],
                        project_tangent=True)


def table(rows):
    """A DistributionTable of hand-set (j, m, p) rows, in (j, m) order."""
    j, m, p = (np.array(c) for c in zip(*rows))
    with np.errstate(divide="ignore"):
        return DistributionTable(j, m, p, np.log(p))


def loop_argmax(t, keys):
    """The first of the (j, m) keys, taken in tie-break order, with the
    largest p among those the table holds; None when it holds none."""
    p = dict(zip(zip(t.j.tolist(), t.m.tolist()), t.p.tolist()))
    best, best_p = None, -1.0
    for key in keys:
        if key in p and p[key] > best_p:
            best, best_p = key, p[key]
    return best


def tangent_point(rng, l_norm):
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    v = rng.normal(size=3)
    v -= (v @ x) * x
    v /= np.linalg.norm(v)
    return SpherePhasePoint(x, l_norm * v)


@pytest.mark.parametrize("j,want", [(0, 0.0), (1, 1.0), (2, 3.0), (21, 231.0)])
def test_energy_levels(j, want):
    assert rotator_energy(j) == want


def test_energy_rejects_negative():
    with pytest.raises(ValueError):
        rotator_energy(-1)


@pytest.mark.parametrize("lsq,want", [(132.0, 11.0), (462.0, 21.0), (0.0, 0.0),
                                      (6.0, 2.0)])
def test_peak_root(lsq, want):
    assert classical_peak_j(lsq) == pytest.approx(want, abs=1e-12)


def test_peak_root_rejects_negative():
    with pytest.raises(ValueError):
        classical_peak_j(-1.0)


class TestDistribution:
    def test_rest_state(self):
        t = distribution_from_state(coherent_state(REST))
        assert (t.j[0], t.m[0]) == (0, 0)
        assert t.p[0] == pytest.approx(P00_AT_REST, rel=1e-12)
        assert t.p[0] == pytest.approx(1 / NORTH_POLE_NORM_SQ, rel=1e-12)
        assert (t.m == 0).all()
        assert t.ln_p[0] == pytest.approx(math.log(P00_AT_REST), abs=1e-12)

    def test_total_probability(self):
        t = distribution_from_state(coherent_state(FIG1))
        assert t.total() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("l_norm", [20, 100, 200, 355])
    def test_total_probability_is_one_to_rounding(self, l_norm):
        # the log squared norm, of size about |l|^2, must not round the total
        t = distribution_from_state(coherent_state(
            SpherePhasePoint([0.6, 0, 0.8], [0, l_norm, 0])))
        assert abs(t.total() - 1) <= 1e-14

    def test_entries_nonnegative(self):
        p = SpherePhasePoint([0, 0, 1], [3, 1, 0], project_tangent=True)
        t = distribution_from_state(coherent_state(p))
        assert (t.p >= 0.0).all()

    def test_m_symmetry_for_equatorial_momentum(self):
        # l3 = 0 makes p_{j,m} and p_{j,-m} equal
        t = distribution_from_state(coherent_state(
            SpherePhasePoint([0, 0, 1], [4, 3, 0])))
        p = dict(zip(zip(t.j.tolist(), t.m.tolist()), t.p.tolist()))
        for j in range(0, 12):
            for m in range(1, j + 1):
                a, b = p.get((j, m), 0.0), p.get((j, -m), 0.0)
                if a > 1e-280:
                    assert b == pytest.approx(a, rel=1e-10)


class TestArgmax:
    def test_fig1_peak_j(self):
        t = distribution_from_state(coherent_state(FIG1))
        assert argmax_j(t, 0) == 11

    def test_rest_state_peaks_at_zero(self):
        t = distribution_from_state(coherent_state(REST))
        assert argmax_j(t, 0) == 0
        assert argmax_m(t, 0) == 0

    def test_exact_root_point(self):
        # j(j+1) = 6 has the exact root j = 2
        rng = np.random.default_rng(3)
        p = tangent_point(rng, math.sqrt(6.0))
        t = distribution_from_state(coherent_state(p))
        assert argmax_j(t, 0) == 2

    def test_fig2_peak_m(self):
        t = distribution_from_state(coherent_state(FIG2))
        assert argmax_m(t, 21) == 10

    def test_axis_aligned_momentum_forces_maximal_m(self):
        p = SpherePhasePoint([1, 0, 0], [0, 0, 5])
        t = distribution_from_state(coherent_state(p))
        assert argmax_m(t, 5) == 5

    def test_empty_slice_rejected(self):
        t = distribution_from_state(coherent_state(REST, j_cut=12))
        with pytest.raises(ValueError):
            argmax_j(t, 50)

    def test_m_slice_without_entries_rejected(self):
        # at rest on the pole only m = 0 is nonzero, so level 5 has an entry
        # and level 13, past the cut, has none; nor does any negative j
        t = distribution_from_state(coherent_state(REST, j_cut=12))
        assert argmax_m(t, 5) == 0
        for j in (13, -1, 2 ** 62, 2 ** 70):
            with pytest.raises(ValueError, match=f"no entries with j = {j}"):
                argmax_m(t, j)

    def test_tied_levels_pick_the_smaller_j(self):
        t = table([(1, 0, 0.25), (2, 0, 0.125), (3, 0, 0.25), (3, 1, 0.5)])
        assert argmax_j(t, 0) == 1

    def test_tied_projections_pick_the_smaller_abs_m_then_negative(self):
        # p is the same at m = +-1 and m = +-3, larger than at m = 0 and +-2
        ps = [0.25, 0.125, 0.25, 0.0625, 0.25, 0.125, 0.25]
        t = table([(3, m, p) for m, p in zip(range(-3, 4), ps)])
        assert argmax_m(t, 3) == -1

    @pytest.mark.parametrize("point", [
        FIG1, FIG2, SpherePhasePoint([1, 0, 0], [0, 0, 0])])
    def test_every_slice_matches_the_loop_reference(self, point):
        t = distribution_from_state(coherent_state(point))
        n = int(t.j.max())
        for m in range(-n - 1, n + 2):
            want = loop_argmax(t, [(j, m) for j in range(abs(m), n + 1)])
            if want is None:
                with pytest.raises(ValueError):
                    argmax_j(t, m)
            else:
                assert argmax_j(t, m) == want[0]
        for j in range(n + 2):
            want = loop_argmax(t, [(j, m) for m in sorted(
                range(-j, j + 1), key=lambda v: (abs(v), v))])
            if want is None:
                with pytest.raises(ValueError):
                    argmax_m(t, j)
            else:
                assert argmax_m(t, j) == want[1]

    def test_underflowed_slice_keeps_the_tie_breaks(self):
        # every p of the slice is an exact zero: the tie-breaks decide alone
        t = table([(0, 0, 1.0), (4, -2, 0.0), (4, 2, 0.0), (5, 2, 0.0),
                   (6, 2, 0.0)])
        assert argmax_j(t, 2) == 4
        assert argmax_m(t, 4) == -2


def test_peak_j_tracks_classical_root():
    # The peak of p_{j, m} at fixed m near l3 sits at the integer nearest the
    # positive root of j(j+1) = l.l.  The discrete peak genuinely swings
    # either way when the root lands within ~0.1 of a half-integer, so
    # exactness is only asserted outside a guard band; inside it the peak
    # must still be within one level of the root.
    rng = np.random.default_rng(2024)
    for _ in range(20):
        l_norm = rng.uniform(5.0, 13.0)
        p = tangent_point(rng, l_norm)
        t = distribution_from_state(coherent_state(p))
        root = classical_peak_j(l_norm * l_norm)
        got = argmax_j(t, round(float(p.l[2])))
        assert abs(got - root) <= 1.0
        frac = abs(root - math.floor(root) - 0.5)
        if frac >= 0.25:
            assert got == round(root)
