import math

import numpy as np
import pytest

import oracles
from cohstates.repspace import (StateVector, apply_X, apply_Z, basis_state,
                                z_vector_form_tables)
from cohstates.spinor import (exp_minus_k_table, k_table, sigma_dot_table,
                              v_table, z_from_matrix_tables, z_matrix_entries)
from oracles import (apply_spinor_table, apply_table, combine, dict_dot,
                     dict_residual, from_dict, spinor_basis, to_dict)

# A spinor is a pair (up, down) of dict states {(j, m): value}; the tables
# act on it through apply_spinor_table.
JC = 12
INTERIOR = JC - 2


def apply_V(sp):
    return apply_spinor_table(v_table(JC), sp)


def apply_K(sp):
    return apply_spinor_table(k_table(JC), sp)


def apply_sigma_dot_J(sp):
    return apply_spinor_table(sigma_dot_table("J", JC), sp)


def apply_exp_minus_K(sp):
    return apply_spinor_table(exp_minus_k_table(JC), sp)


def apply_Z_matrix(sp):
    return apply_exp_minus_K(apply_V(sp))


def apply_Z_from_matrix(which, phi):
    table = z_from_matrix_tables(z_matrix_entries(JC))[int(which[1]) - 1]
    return to_dict(apply_table(table, from_dict(phi, JC)))


def basis(j, m):
    return {(j, m): 1 + 0j}


def up_amp(sp, j, m):
    return sp[0][j, m]


def down_amp(sp, j, m):
    return sp[1][j, m]


def test_v_on_ground_spinor():
    out = apply_V(spinor_basis(0, 0))
    assert up_amp(out, 1, 0) == pytest.approx(1 / math.sqrt(3), rel=1e-14)
    assert down_amp(out, 1, 1) == pytest.approx(-math.sqrt(2 / 3), rel=1e-14)


@pytest.mark.parametrize("j,m,comp", [(0, 0, "up"), (3, -2, "down"),
                                      (7, 7, "up"), (5, 0, "down")])
def test_v_squared_is_identity(j, m, comp):
    sp = spinor_basis(j, m, comp)
    v2 = apply_V(apply_V(sp))
    assert dict_residual(v2, sp, sp, j_max=INTERIOR) < 1e-13


def test_v_is_traceless():
    # up-up block is X3/r and down-down is -X3/r, so the 2x2 trace vanishes
    phi = basis(2, 1)
    tr = combine((1, apply_V((phi, {}))[0]), (1, apply_V(({}, phi))[1]))
    assert not any(tr.values())


def test_k_on_ground_spinor():
    out = apply_K(spinor_basis(0, 0))
    assert up_amp(out, 0, 0) == pytest.approx(-1.0)
    assert not out[1]


def test_k_on_stretched_spinor():
    out = apply_K(spinor_basis(1, 1))
    assert up_amp(out, 1, 1) == pytest.approx(-2.0)
    assert not out[1]


@pytest.mark.parametrize("j,m,comp", [(0, 0, "up"), (4, 2, "down"),
                                      (6, -6, "down"), (3, 3, "up")])
def test_sigma_j_eigenstructure(j, m, comp):
    # (sigma.J)^2 + sigma.J = J^2: eigenvalues j and -(j+1) blockwise
    sp = spinor_basis(j, m, comp)
    sj = apply_sigma_dot_J(sp)
    lhs = combine((1, apply_sigma_dot_J(sj)), (1, sj))
    rhs = combine((j * (j + 1), sp))
    assert dict_residual(lhs, rhs, sp) < 1e-13


def test_exp_minus_k_ground():
    out = apply_exp_minus_K(spinor_basis(0, 0))
    assert up_amp(out, 0, 0) == pytest.approx(math.e, rel=1e-14)
    assert not out[1]


def test_exp_minus_k_aligned_block():
    # |1,1> up spans a 1x1 block with sigma.J eigenvalue j = 1
    out = apply_exp_minus_K(spinor_basis(1, 1))
    assert up_amp(out, 1, 1) == pytest.approx(math.e ** 2, rel=1e-14)
    assert not out[1]


def test_exp_minus_k_antialigned_edge():
    out = apply_exp_minus_K(spinor_basis(1, -1, "down"))
    assert down_amp(out, 1, -1) == pytest.approx(math.e ** 2, rel=1e-14)


def test_exp_minus_k_matches_eigen_decomposition():
    # generic 2x2 block: compare against a direct eigen solve of
    # [[m, c], [c, -(m+1)]] scaled by e
    j, m = 5, 2
    c = math.sqrt((j - m) * (j + m + 1))
    block = np.array([[m, c], [c, -(m + 1)]], dtype=float)
    w, v = np.linalg.eigh(block)
    expm = v @ np.diag(np.exp(w)) @ v.T * math.e
    out_up = apply_exp_minus_K(spinor_basis(j, m, "up"))
    out_down = apply_exp_minus_K(spinor_basis(j, m + 1, "down"))
    assert up_amp(out_up, j, m) == pytest.approx(expm[0, 0], rel=1e-12)
    assert down_amp(out_up, j, m + 1) == pytest.approx(expm[1, 0], rel=1e-12)
    assert up_amp(out_down, j, m) == pytest.approx(expm[0, 1], rel=1e-12)
    assert down_amp(out_down, j, m + 1) == pytest.approx(expm[1, 1], rel=1e-12)


def test_exp_minus_k_linearity():
    a = spinor_basis(2, 1)
    b = spinor_basis(3, -1, "down")
    lhs = apply_exp_minus_K(combine((0.3 - 0.4j, a), (2 + 1j, b)))
    rhs = combine((0.3 - 0.4j, apply_exp_minus_K(a)),
                  (2 + 1j, apply_exp_minus_K(b)))
    assert dict_residual(lhs, rhs) < 1e-13


def _generic_spinor_pair():
    a = combine((0.7 - 0.2j, spinor_basis(2, 1)),
                (0.4j, spinor_basis(3, -1, "down")))
    b = combine((1.1 + 0j, spinor_basis(3, 0)),
                (-0.3 + 0.5j, spinor_basis(2, 2, "down")))
    return a, b


@pytest.mark.parametrize("op", [apply_V, apply_K])
def test_operators_hermitian_on_interior_states(op):
    # <a|O b> = <O a|b> for interior states (images stay below the cutoff)
    a, b = _generic_spinor_pair()
    lhs = dict_dot(a, op(b))
    rhs = dict_dot(op(a), b)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_v_preserves_inner_products():
    a, b = _generic_spinor_pair()
    assert dict_dot(apply_V(a), apply_V(b)) == pytest.approx(
        dict_dot(a, b), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("j,m,comp", [(0, 0, "up"), (2, -1, "down"), (6, 4, "up")])
def test_kv_anticommutator_vanishes(j, m, comp):
    sp = spinor_basis(j, m, comp)
    kv = apply_K(apply_V(sp))
    vk = apply_V(apply_K(sp))
    acom = combine((1, kv), (1, vk))
    assert dict_residual(acom, ({}, {}), sp, kv, j_max=INTERIOR) < 1e-13


def test_kv_trace_vanishes_at_zero_twist():
    # 2x2 trace of K V acting on any interior vector is -2 J.X / r = 0
    phi = basis(3, 1)
    kv_uu = apply_K(apply_V((phi, {})))[0]
    kv_dd = apply_K(apply_V(({}, phi)))[1]
    tr = combine((1, kv_uu), (1, kv_dd))
    assert dict_residual(tr, {}, phi, kv_uu, j_max=INTERIOR) < 1e-13


def test_generator_matrix_is_traceless():
    phi = basis(2, 0)
    a = apply_Z_matrix((phi, {}))[0]
    d = apply_Z_matrix(({}, phi))[1]
    tr = combine((1, a), (1, d))
    assert dict_residual(tr, {}, phi, a, j_max=INTERIOR) < 1e-13


@pytest.mark.parametrize("which", ["Z1", "Z2", "Z3"])
@pytest.mark.parametrize("j,m", [(0, 0), (3, 2), (8, -5)])
def test_matrix_extraction_matches_generator(which, j, m):
    phi = basis(j, m)
    got = apply_Z_from_matrix(which, phi)
    want = to_dict(apply_Z(which, basis_state(j, m, JC)))
    col = apply_Z_matrix((phi, {}))
    assert dict_residual(got, want, phi, *col, j_max=INTERIOR) < 1e-12


def test_matrix_extraction_ground_value():
    got = apply_Z_from_matrix("Z3", basis(0, 0))
    assert got[1, 0] == pytest.approx(math.exp(-1) / math.sqrt(3), rel=1e-13)


def _wide_spinor(j_cut=JC):
    """Amplitudes over e^-25..e^3 in both components, top level included."""
    rng = np.random.default_rng(17)
    comps = []
    for _ in range(2):
        lm = np.full((j_cut + 1) ** 2, -math.inf)
        ph = np.zeros(lm.size)
        for k in range(lm.size):
            if rng.random() < 0.3:
                lm[k], ph[k] = (rng.uniform(-25.0, 3.0),
                                rng.uniform(-math.pi, math.pi))
        comps.append(to_dict(StateVector(lm, ph, j_cut)))
    return tuple(comps)


@pytest.mark.parametrize("name", ["apply_V", "apply_sigma_dot_J", "apply_K",
                                  "apply_exp_minus_K", "apply_Z_matrix"])
def test_table_operators_match_sparse_loops(name):
    sparse = {"apply_V": lambda sp: oracles.apply_V(sp, JC),
              "apply_sigma_dot_J": oracles.apply_sigma_dot_J,
              "apply_K": oracles.apply_K,
              "apply_exp_minus_K": oracles.apply_exp_minus_K,
              "apply_Z_matrix": lambda sp: oracles.apply_Z_matrix(sp, JC)}
    sp = _wide_spinor()
    got = globals()[name](sp)
    assert dict_residual(got, sparse[name](sp), sp) < 1e-14


@pytest.mark.parametrize("which", ["Z1", "Z2", "Z3"])
def test_table_routes_to_z_match_sparse_loops(which):
    # relative to the operands z_route_equality scales by: the blocks of
    # e^{-K} V and f(J^2) X_i applied to phi
    phi = _wide_spinor()[0]
    cols = oracles.z_columns(phi, JC)
    got = apply_Z_from_matrix(which, phi)
    assert dict_residual(got, oracles.apply_Z_from_matrix(which, cols),
                         phi, *cols[0], *cols[1]) < 1e-14
    t1 = oracles.diag_mul_logs(
        to_dict(apply_X("X" + which[1], from_dict(phi, JC))),
        lambda j: oracles.jsq_scalar_logs(j)[0])
    got = to_dict(apply_table(z_vector_form_tables(JC)[int(which[1]) - 1],
                              from_dict(phi, JC)))
    assert dict_residual(got, oracles.apply_Z_vector_form(which, phi, JC),
                         phi, t1) < 1e-14


def test_sigma_dot_blocks_are_the_component_operators():
    from cohstates.repspace import operator_table
    from cohstates.spinor import _entry
    t = sigma_dot_table("X", 8)
    x3 = operator_table("X3", 8)
    for (row, col), want in (((0, 0), x3),
                             ((0, 1), operator_table("Xminus", 8)),
                             ((1, 0), operator_table("Xplus", 8)),
                             ((1, 1), -1.0 * x3)):
        got = _entry(t, row, col).bands
        assert got.keys() == want.bands.keys()
        assert all(got[k].tobytes() == want.bands[k].tobytes() for k in got)


def test_spinor_bands_hold_one_coefficient_per_basis_vector():
    tables = [v_table(8), k_table(8), exp_minus_k_table(8),
              exp_minus_k_table(8) @ v_table(8), *z_matrix_entries(8)]
    for t in tables:
        assert all(c.shape == (81,) for c in t.bands.values())
