"""The verify checks: table identities against the per-vector sparse loops,
and the integer series oracles against the Fraction sums."""

import math

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
    """One wrong X3 matrix element breaks [J, X] = i eps X at its column."""
    original = repspace._dense_branches
    j_cut = 12
    j, m = repspace.grid(j_cut)
    col = int(j.size // 2)       # |9, -6>, inside the interior j <= 10

    def flipped(which, jj, mm):
        out = original(which, jj, mm)
        if which == "X3":
            dj, dm, coef, weight = out[0]
            coef = coef.copy()
            coef[col] = -coef[col]
            out[0] = (dj, dm, coef, weight)
        return out

    assert checks.check_e3_commutators(j_cut).passed
    monkeypatch.setattr(repspace, "_dense_branches", flipped)
    r = checks.check_e3_commutators(j_cut)
    assert not r.passed
    assert r.measured > 1e-3
    assert r.worst_at[0] == j[col]


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
        lm, ph = original(*args)
        return lm + math.log1p(1e-10), ph

    monkeypatch.setattr(checks, "hyp2f1_terminating", scaled)
    r = checks.check_hyp2f1_identity()
    assert not r.passed
    assert r.measured > 1e-11
