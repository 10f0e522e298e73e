import math

import pytest

import oracles
from cohstates.repspace import apply_Z, basis_state, state_scale, state_sum
from cohstates.spinor import (exp_minus_k_table, k_table, sigma_dot_table,
                              v_table, z_from_matrix_tables, z_matrix_entries)
from oracles import (BasisIndex, SpinorState, apply_spinor_table, apply_table,
                     relative_residual, restricted, spinor_basis,
                     spinor_inner, spinor_relative_residual, spinor_scale,
                     spinor_sum)

JC = 12
INTERIOR = JC - 2


def apply_V(sp):
    return apply_spinor_table(v_table(sp.up.j_cut), sp)


def apply_K(sp):
    return apply_spinor_table(k_table(sp.up.j_cut), sp)


def apply_sigma_dot_J(sp):
    return apply_spinor_table(sigma_dot_table("J", sp.up.j_cut), sp)


def apply_exp_minus_K(sp):
    return apply_spinor_table(exp_minus_k_table(sp.up.j_cut), sp)


def apply_Z_matrix(sp):
    return apply_exp_minus_K(apply_V(sp))


def apply_Z_from_matrix(which, phi):
    table = z_from_matrix_tables(z_matrix_entries(phi.j_cut))[
        int(which[1]) - 1]
    return apply_table(table, phi)


def up_amp(sp, j, m):
    return oracles.value(sp.up.amplitudes[BasisIndex(j, m)])


def down_amp(sp, j, m):
    return oracles.value(sp.down.amplitudes[BasisIndex(j, m)])


def restrict(sp, j_max):
    return SpinorState(restricted(sp.up, j_max), restricted(sp.down, j_max))


def test_v_on_ground_spinor():
    out = apply_V(spinor_basis(0, 0, JC))
    assert up_amp(out, 1, 0) == pytest.approx(1 / math.sqrt(3), rel=1e-14)
    assert down_amp(out, 1, 1) == pytest.approx(-math.sqrt(2 / 3), rel=1e-14)


@pytest.mark.parametrize("j,m,comp", [(0, 0, "up"), (3, -2, "down"),
                                      (7, 7, "up"), (5, 0, "down")])
def test_v_squared_is_identity(j, m, comp):
    sp = spinor_basis(j, m, JC, comp)
    v2 = apply_V(apply_V(sp))
    assert spinor_relative_residual(restrict(v2, INTERIOR),
                                    restrict(sp, INTERIOR), sp) < 1e-13


def test_v_is_traceless():
    # up-up block is X3/r and down-down is -X3/r, so the 2x2 trace vanishes
    phi = basis_state(2, 1, JC)
    empty = state_scale(phi, 0j)
    tr = state_sum([apply_V(SpinorState(phi, empty)).up,
                    apply_V(SpinorState(empty, phi)).down])
    assert tr.is_zero()


def test_k_on_ground_spinor():
    out = apply_K(spinor_basis(0, 0, JC))
    assert up_amp(out, 0, 0) == pytest.approx(-1.0)
    assert out.down.is_zero()


def test_k_on_stretched_spinor():
    out = apply_K(spinor_basis(1, 1, JC))
    assert up_amp(out, 1, 1) == pytest.approx(-2.0)
    assert out.down.is_zero()


@pytest.mark.parametrize("j,m,comp", [(0, 0, "up"), (4, 2, "down"),
                                      (6, -6, "down"), (3, 3, "up")])
def test_sigma_j_eigenstructure(j, m, comp):
    # (sigma.J)^2 + sigma.J = J^2: eigenvalues j and -(j+1) blockwise
    sp = spinor_basis(j, m, JC, comp)
    sj = apply_sigma_dot_J(sp)
    lhs = spinor_sum([apply_sigma_dot_J(sj), sj])
    rhs = spinor_scale(sp, complex(j * (j + 1)))
    assert spinor_relative_residual(lhs, rhs, sp) < 1e-13


def test_exp_minus_k_ground():
    out = apply_exp_minus_K(spinor_basis(0, 0, JC))
    assert up_amp(out, 0, 0) == pytest.approx(math.e, rel=1e-14)
    assert out.down.is_zero()


def test_exp_minus_k_aligned_block():
    # |1,1> up spans a 1x1 block with sigma.J eigenvalue j = 1
    out = apply_exp_minus_K(spinor_basis(1, 1, JC))
    assert up_amp(out, 1, 1) == pytest.approx(math.e ** 2, rel=1e-14)
    assert out.down.is_zero()


def test_exp_minus_k_antialigned_edge():
    out = apply_exp_minus_K(spinor_basis(1, -1, JC, "down"))
    assert down_amp(out, 1, -1) == pytest.approx(math.e ** 2, rel=1e-14)


def test_exp_minus_k_matches_eigen_decomposition():
    # generic 2x2 block: compare against a direct eigen solve of
    # [[m, c], [c, -(m+1)]] scaled by e
    j, m = 5, 2
    c = math.sqrt((j - m) * (j + m + 1))
    import numpy as np
    block = np.array([[m, c], [c, -(m + 1)]], dtype=float)
    w, v = np.linalg.eigh(block)
    expm = v @ np.diag(np.exp(w)) @ v.T * math.e
    out_up = apply_exp_minus_K(spinor_basis(j, m, JC, "up"))
    out_down = apply_exp_minus_K(spinor_basis(j, m + 1, JC, "down"))
    assert up_amp(out_up, j, m) == pytest.approx(expm[0, 0], rel=1e-12)
    assert down_amp(out_up, j, m + 1) == pytest.approx(expm[1, 0], rel=1e-12)
    assert up_amp(out_down, j, m) == pytest.approx(expm[0, 1], rel=1e-12)
    assert down_amp(out_down, j, m + 1) == pytest.approx(expm[1, 1], rel=1e-12)


def test_exp_minus_k_linearity():
    a = spinor_basis(2, 1, JC)
    b = spinor_basis(3, -1, JC, "down")
    combo = spinor_sum([spinor_scale(a, 0.3 - 0.4j), spinor_scale(b, 2 + 1j)])
    lhs = apply_exp_minus_K(combo)
    rhs = spinor_sum([spinor_scale(apply_exp_minus_K(a), 0.3 - 0.4j),
                      spinor_scale(apply_exp_minus_K(b), 2 + 1j)])
    assert spinor_relative_residual(lhs, rhs) < 1e-13


def _generic_spinor_pair():
    a = spinor_sum([spinor_scale(spinor_basis(2, 1, JC), 0.7 - 0.2j),
                    spinor_scale(spinor_basis(3, -1, JC, "down"), 0.4j)])
    b = spinor_sum([spinor_scale(spinor_basis(3, 0, JC), 1.1 + 0j),
                    spinor_scale(spinor_basis(2, 2, JC, "down"), -0.3 + 0.5j)])
    return a, b


@pytest.mark.parametrize("op", [apply_V, apply_K])
def test_operators_hermitian_on_interior_states(op):
    # <a|O b> = <O a|b> for interior states (images stay below the cutoff)
    a, b = _generic_spinor_pair()
    lhs = spinor_inner(a, op(b))
    rhs = spinor_inner(op(a), b)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_v_preserves_inner_products():
    a, b = _generic_spinor_pair()
    assert spinor_inner(apply_V(a), apply_V(b)) == pytest.approx(
        spinor_inner(a, b), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("j,m,comp", [(0, 0, "up"), (2, -1, "down"), (6, 4, "up")])
def test_kv_anticommutator_vanishes(j, m, comp):
    sp = spinor_basis(j, m, JC, comp)
    kv = apply_K(apply_V(sp))
    vk = apply_V(apply_K(sp))
    acom = spinor_sum([kv, vk])
    assert spinor_relative_residual(restrict(acom, INTERIOR),
                                    spinor_scale(sp, 0j), sp, kv) < 1e-13


def test_kv_trace_vanishes_at_zero_twist():
    # 2x2 trace of K V acting on any interior vector is -2 J.X / r = 0
    phi = basis_state(3, 1, JC)
    empty = state_scale(phi, 0j)
    kv_uu = apply_K(apply_V(SpinorState(phi, empty))).up
    kv_dd = apply_K(apply_V(SpinorState(empty, phi))).down
    tr = restricted(state_sum([kv_uu, kv_dd]), INTERIOR)
    assert relative_residual(tr, state_scale(phi, 0j), phi, kv_uu) < 1e-13


def test_generator_matrix_is_traceless():
    phi = basis_state(2, 0, JC)
    empty = state_scale(phi, 0j)
    a = apply_Z_matrix(SpinorState(phi, empty)).up
    d = apply_Z_matrix(SpinorState(empty, phi)).down
    tr = restricted(state_sum([a, d]), INTERIOR)
    assert relative_residual(tr, state_scale(phi, 0j), phi, a) < 1e-13


@pytest.mark.parametrize("which", ["Z1", "Z2", "Z3"])
@pytest.mark.parametrize("j,m", [(0, 0), (3, 2), (8, -5)])
def test_matrix_extraction_matches_generator(which, j, m):
    phi = basis_state(j, m, JC)
    got = apply_Z_from_matrix(which, phi)
    want = apply_Z(which, phi)
    empty = state_scale(phi, 0j)
    col = apply_Z_matrix(SpinorState(phi, empty))
    assert relative_residual(restricted(got, INTERIOR),
                             restricted(want, INTERIOR), phi,
                             col.up, col.down) < 1e-12


def test_matrix_extraction_ground_value():
    got = apply_Z_from_matrix("Z3", basis_state(0, 0, JC))
    assert oracles.value(got.amplitudes[BasisIndex(1, 0)]) == pytest.approx(
        math.exp(-1) / math.sqrt(3), rel=1e-13)


def _wide_spinor(j_cut=JC):
    """Amplitudes over e^-25..e^3 in both components, top level included."""
    import numpy as np
    from oracles import LogComplex
    rng = np.random.default_rng(17)
    comps = []
    for _ in range(2):
        amps = {BasisIndex(j, m): LogComplex(rng.uniform(-25.0, 3.0),
                                             rng.uniform(-math.pi, math.pi))
                for j in range(j_cut + 1) for m in range(-j, j + 1)
                if rng.random() < 0.3}
        comps.append(oracles.state_from_amplitudes(amps, j_cut))
    return SpinorState(*comps)


@pytest.mark.parametrize("name", ["apply_V", "apply_sigma_dot_J", "apply_K",
                                  "apply_exp_minus_K", "apply_Z_matrix"])
def test_table_operators_match_sparse_loops(name):
    sp = _wide_spinor()
    got = globals()[name](sp)
    want = getattr(oracles, name)(sp)
    assert spinor_relative_residual(got, want, sp) < 1e-14


@pytest.mark.parametrize("which", ["Z1", "Z2", "Z3"])
def test_table_routes_to_z_match_sparse_loops(which):
    # relative to the operands z_route_equality scales by: the blocks of
    # e^{-K} V and f(J^2) X_i applied to phi
    from cohstates.repspace import apply_X, z_vector_form_tables
    phi = _wide_spinor().up
    empty = state_scale(phi, 0j)
    col_u = oracles.apply_Z_matrix(SpinorState(phi, empty))
    col_d = oracles.apply_Z_matrix(SpinorState(empty, phi))
    got = apply_Z_from_matrix(which, phi)
    assert relative_residual(got, oracles.apply_Z_from_matrix(which, phi),
                             phi, col_u.up, col_u.down, col_d.up,
                             col_d.down) < 1e-14
    t1 = oracles.diag_mul_logs(apply_X("X" + which[1], phi),
                               lambda j: oracles.jsq_scalar_logs(j)[0])
    got = apply_table(z_vector_form_tables(phi.j_cut)[int(which[1]) - 1],
                      phi)
    assert relative_residual(got, oracles.apply_Z_vector_form(which, phi),
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
