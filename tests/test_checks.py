"""The verify checks: table identities against the per-vector sparse loops,
and the integer series oracles against the Fraction sums."""

import numpy as np
import pytest

import oracles
from cohstates import checks, repspace
from cohstates.cli import IDENTITY_J_CUT_RANGE

IDENTITY_CHECKS = {
    "e3_commutators": checks.check_e3_commutators,
    "casimirs": checks.check_casimirs,
    "v_squared": checks.check_v_squared,
    "kv_anticommutator": checks.check_kv_anticommutator,
    "z_commutativity": checks.check_z_commutativity,
    "z_normalization": checks.check_z_normalization,
    "z_route_equality": checks.check_z_routes,
}


@pytest.mark.parametrize("j_cut", [6, 12])
@pytest.mark.parametrize("name", sorted(IDENTITY_CHECKS))
def test_table_identity_matches_sparse_loop(name, j_cut):
    got = IDENTITY_CHECKS[name](j_cut)
    assert got.name == name
    assert abs(got.measured - oracles.IDENTITY_SWEEPS[name](j_cut)) <= 1e-14


@pytest.mark.parametrize("j_cut", IDENTITY_J_CUT_RANGE)
def test_identities_hold_over_the_accepted_cut_range(j_cut):
    for name, check in IDENTITY_CHECKS.items():
        r = check(j_cut)
        assert r.passed, (name, r.measured)
        j, m = r.worst_at
        assert 0 <= j <= j_cut - 2 and abs(m) <= j


def test_flipped_table_coefficient_fails_e3(monkeypatch):
    """One wrong X3 matrix element breaks [J, X] = i eps X at its column,
    and moves the expectation value and the eigen-residual alike: the
    tables and both state functions read the one branch list."""
    original = repspace._dense_branches
    j_cut = 12
    j, m = repspace.grid(j_cut)
    col = int(j.size // 2)       # |9, -6>, inside the interior j <= 10

    def flipped(which, jj, mm):
        # the raising branch at (9, -6), on the flat grid and the padded one
        branches = original(which, jj, mm)
        if which == "X3":
            dj, dm, coef, weight = branches[0]
            at = (jj == j[col]) & (mm == m[col])
            branches[0] = (dj, dm, lambda: np.where(at, -1, 1) * coef(),
                           weight)
        return branches

    def state_values():
        # (|9, -6> + |10, -6>) / sqrt 2, built afresh: a state keeps its
        # expectation values
        s = repspace.state_sum([repspace.basis_state(9, -6, j_cut),
                                repspace.basis_state(10, -6, j_cut)])
        return (repspace.expectation("X3", s),
                repspace.residual_norm("X3", s, 0.5))

    assert checks.check_e3_commutators(j_cut).passed
    before = state_values()
    monkeypatch.setattr(repspace, "_dense_branches", flipped)
    r = checks.check_e3_commutators(j_cut)
    assert not r.passed
    assert r.measured > 1e-3
    assert r.worst_at[0] == j[col]
    after = state_values()
    assert all(abs(a - b) > 1e-3 for a, b in zip(after, before))


def test_identity_case_counts():
    # 841 interior vectors at j_cut 30 (j <= 28), 12 identities each
    assert checks.check_e3_commutators(30).n_cases == 12 * 29 ** 2
    assert checks.check_v_squared(30).n_cases == 2 * 29 ** 2
    assert checks.check_z_routes(12).n_cases == 6 * 11 ** 2


@pytest.mark.parametrize("new, reference", [
    (checks.check_hyp2f1_identity, oracles.hyp2f1_identity),
    (checks.check_gegenbauer_recurrence, oracles.gegenbauer_recurrence),
])
def test_integer_series_oracle_matches_fractions(new, reference):
    """The integer sums give the Fraction sums' results, field for field
    and bit for bit."""
    got, want = new(), reference()
    assert got == want
    assert got.measured.hex() == want.measured.hex()


def test_perturbed_hyp2f1_fails_the_identity(monkeypatch):
    """A 1e-10 relative error in the 2F1 values is caught."""
    original = checks.hyp2f1_terminating

    def scaled(*args):
        return original(*args) * (1 + 1e-10)

    monkeypatch.setattr(checks, "hyp2f1_terminating", scaled)
    r = checks.check_hyp2f1_identity()
    assert not r.passed
    assert r.measured > 1e-11
