"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion is pinned to its stated tolerance; nothing here is calibrated to
make a test pass.

Criterion 5 note: the momentum-average tolerance of 1 percent is asserted
exactly as stated.  The coherent family satisfies <J> = (1 - 1/(2|l|) +
O(1/l^2)) l, a 3.7-4.8 percent componentwise deviation over |l| in [10, 13]
(confirmed with 50-digit arithmetic against the eigenvalue equation), so
that sub-check fails by construction and is reported honestly.
"""

import math
import time

import numpy as np
import pytest

from cohstates.checks import (check_casimirs, check_e3_commutators,
                              check_gegenbauer_recurrence,
                              check_hyp2f1_identity, check_kv_anticommutator,
                              check_three_paths, check_v_squared,
                              check_z_commutativity, check_z_normalization,
                              check_z_routes)
from cohstates.circle import (CirclePhasePoint, circle_expect_J,
                              circle_expect_U, circle_uncertainty_report,
                              uncertainty_from_moments)
from cohstates.repspace import basis_state
from cohstates.rotator import argmax_j, argmax_m, distribution_from_state
from cohstates.sphere import (SpherePhasePoint, ZLabel, coherent_state,
                              eigen_residual, expect_J, expect_X,
                              north_pole_state, phase_to_z, uncertainty_J)

FIG1 = dict(x=[0.412, 0.412, 0.812], l=[8.124, -8.124, 0.0])
FIG2 = dict(x=[0.411, 0.911, 0.036], l=[-17.490, 7.490, 10.0])
SEED = 20260808


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_tangent_point(rng, l_norm):
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    v = rng.normal(size=3)
    v -= (v @ x) * x
    v /= np.linalg.norm(v)
    return SpherePhasePoint(x, l_norm * v)


@pytest.fixture(scope="module")
def sphere_sample():
    """Ten random tangent phase points with |l| in [10, 13], states attached."""
    rng = np.random.default_rng(SEED)
    sample = []
    for _ in range(10):
        p = random_tangent_point(rng, rng.uniform(10.0, 13.0))
        sample.append((p, coherent_state(p)))
    return sample


def test_criterion_1_figure1_peak_level():
    t0 = time.perf_counter()
    table = distribution_from_state(coherent_state(SpherePhasePoint(**FIG1)))
    got = argmax_j(table, 0)
    elapsed = time.perf_counter() - t0
    ok = got == 11 and elapsed < 5.0
    report(1, "figure-1 peak level", ok, f"argmax_j={got}, {elapsed:.2f}s")
    assert got == 11
    assert elapsed < 5.0


def test_criterion_2_figure2_peak_projection():
    t0 = time.perf_counter()
    table = distribution_from_state(coherent_state(
        SpherePhasePoint(**FIG2, project_tangent=True)))
    got = argmax_m(table, 21)
    elapsed = time.perf_counter() - t0
    ok = got == 10 and elapsed < 10.0
    report(2, "figure-2 peak projection", ok, f"argmax_m={got}, {elapsed:.2f}s")
    assert got == 10
    assert elapsed < 10.0


def test_criterion_3_circle_momentum_tracking():
    worst_exact = max(abs(circle_expect_J(CirclePhasePoint(0.0, l)) - l)
                      for l in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0))
    worst_grid = max(abs(circle_expect_J(CirclePhasePoint(0.0, 0.05 * i))
                         - 0.05 * i) for i in range(61))
    ok = worst_exact <= 1e-10 and worst_grid <= 1e-3
    report(3, "circle momentum tracking", ok,
           f"half-integers {worst_exact:.2e} <= 1e-10, "
           f"grid {worst_grid:.2e} <= 1e-3")
    assert worst_exact <= 1e-10
    assert worst_grid <= 1e-3


def test_criterion_4_circle_position_average():
    rng = np.random.default_rng(SEED)
    worst_arg = 0.0
    for _ in range(20):
        phi = rng.uniform(-math.pi, math.pi)
        l = rng.uniform(-2.0, 3.0)
        u = circle_expect_U(CirclePhasePoint(phi, l))
        d = abs(math.remainder(math.atan2(u.imag, u.real) - phi,
                               2 * math.pi))
        worst_arg = max(worst_arg, d)
    target = math.exp(-0.25)
    worst_mod = max(abs(abs(circle_expect_U(CirclePhasePoint(0.0, 0.05 * i)))
                        - target) for i in range(61))
    ok = worst_arg <= 1e-10 and worst_mod <= 5e-3
    report(4, "circle position average", ok,
           f"arg {worst_arg:.2e} <= 1e-10, modulus {worst_mod:.2e} <= 5e-3")
    assert worst_arg <= 1e-10
    assert worst_mod <= 5e-3


def test_criterion_5_sphere_expectation_claims(sphere_sample):
    worst_j = 0.0
    worst_x = 0.0
    target = math.exp(-0.25)
    for p, s in sphere_sample:
        ej = expect_J(s)
        ex = expect_X(s)
        l_norm = p.l_norm
        for i in range(3):
            if abs(p.l[i]) >= 1e-9 * l_norm:
                worst_j = max(worst_j, abs(ej[i] - p.l[i]) / abs(p.l[i]))
            else:
                assert abs(ej[i]) <= 0.05 * l_norm
            if abs(p.x[i]) >= 0.1:
                worst_x = max(worst_x, abs(ex[i] / p.x[i] - target))
    ok_j = worst_j <= 0.01
    ok_x = worst_x <= 0.02
    report(5, "sphere expectation claims", ok_j and ok_x,
           f"J componentwise {worst_j:.4f} <= 0.01 "
           f"[{'ok' if ok_j else 'exceeded'}], "
           f"X ratio vs e^-1/4 {worst_x:.4f} <= 0.02 "
           f"[{'ok' if ok_x else 'exceeded'}]")
    assert ok_x, f"position-average deviation {worst_x:.4f} above 0.02"
    assert ok_j, (
        f"momentum-average relative error {worst_j:.4f} exceeds the stated "
        f"0.01; the family's exact deficit is 1/(2|l|), about 0.04-0.05 on "
        f"this sample, so the 1 percent claim is not attainable")


def test_criterion_6_eigenvalue_property(sphere_sample):
    worst = eigen_residual(north_pole_state(40), ZLabel([0, 0, 1]))
    for p, s in sphere_sample:
        worst = max(worst, eigen_residual(s, phase_to_z(p)))
    ok = worst <= 1e-8
    report(6, "eigenvalue property", ok, f"max residual {worst:.2e} <= 1e-8")
    assert worst <= 1e-8


def test_criterion_7_three_path_equivalence():
    r = check_three_paths(seed=SEED)
    report(7, "three-path equivalence", r.measured <= 1e-10,
           f"max amplitude disagreement {r.measured:.2e} <= 1e-10")
    assert r.measured <= 1e-10


def test_criterion_8_operator_identity_suite():
    results = [check_e3_commutators(30), check_casimirs(30),
               check_v_squared(30), check_kv_anticommutator(30),
               check_z_commutativity(30), check_z_normalization(30),
               check_z_routes(30)]
    worst = max(r.measured for r in results)
    ok = worst <= 1e-12
    detail = ", ".join(f"{r.name}={r.measured:.1e}" for r in results)
    report(8, "operator identity suite", ok, detail)
    assert ok, detail


def test_criterion_9_special_function_identities():
    r1 = check_hyp2f1_identity()
    r2 = check_gegenbauer_recurrence()
    ok = r1.measured <= 1e-10 and r2.measured <= 1e-10
    report(9, "special-function identities", ok,
           f"factorial-sum identity {r1.measured:.2e}, "
           f"recurrence-vs-series {r2.measured:.2e}, both <= 1e-10")
    assert r1.measured <= 1e-10
    assert r2.measured <= 1e-10


def test_criterion_10_uncertainty_inequalities(sphere_sample):
    worst_deficit = 0.0
    for l in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0):
        rep = circle_uncertainty_report(CirclePhasePoint(0.0, l))
        worst_deficit = max(worst_deficit, rep.bound - rep.var_j)
    for i in range(0, 61, 4):
        rep = circle_uncertainty_report(CirclePhasePoint(0.3, 0.05 * i))
        worst_deficit = max(worst_deficit, rep.bound - rep.var_j)
    for p, s in sphere_sample:
        u = uncertainty_J(s)
        worst_deficit = max(worst_deficit, u.bound - u.var_j)
    # eigenstate degenerate case: both sides identically zero
    degenerate = uncertainty_from_moments(0.0, 0j, 0j)
    basis_case = uncertainty_J(basis_state(3, 1, 20))
    ok = (worst_deficit <= 0.0 and degenerate.var_j == degenerate.bound == 0.0
          and basis_case.bound == 0.0)
    report(10, "uncertainty inequalities", ok,
           f"worst bound-variance deficit {worst_deficit:.2e} <= 0, "
           f"eigenstate case 0 >= 0 confirmed")
    assert degenerate.var_j == 0.0 and degenerate.bound == 0.0
    assert basis_case.bound == 0.0
    assert worst_deficit <= 0.0
