import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import (from_dict, inner, relative_residual, restricted,
                     sparse_expectation, to_dict)
from cohstates import repspace
from cohstates.repspace import (StateVector, apply_J, apply_X, apply_Z,
                                basis_state, expectation, grid,
                                operator_table, residual_norm, state_scale,
                                state_sum, z_vector_form_tables)
from cohstates.sphere import (SpherePhasePoint, axis_reference_label,
                              coherent_closed_form, coherent_state,
                              phase_to_z)

LABELS = ("J3", "Jplus", "Jminus", "Jsq", "X1", "X2", "X3", "Xplus",
          "Xminus", "Z1", "Z2", "Z3")


def random_sparse_state(seed, j_cut=12, n=25):
    """Random amplitudes on random indices, the top level included, with
    some exactly real or imaginary phases."""
    rng = np.random.default_rng(seed)
    lm = np.full((j_cut + 1) ** 2, -math.inf)
    ph = np.zeros(lm.size)
    for _ in range(n):
        j = int(rng.integers(0, j_cut + 1))
        m = int(rng.integers(-j, j + 1))
        k = j * j + j + m
        ph[k] = rng.choice([0.0, math.pi, math.pi / 2, -math.pi / 2,
                            rng.uniform(-math.pi, math.pi)])
        lm[k] = rng.uniform(-30.0, 5.0)
    k = j_cut * (j_cut + 1)
    lm[k], ph[k] = 0.0, 0.0
    return StateVector(lm, ph, j_cut)


def apply_Z_vector_form(which, s):
    """The J^2-function route to Z_i applied to s."""
    return oracles.apply_table(
        z_vector_form_tables(s.j_cut)[int(which[1]) - 1], s)


def amp(s, j, m):
    return oracles.value(s.amplitudes[j, m])


def test_basis_index_validation():
    with pytest.raises(ValueError):
        basis_state(1, 2, 5)
    with pytest.raises(ValueError):
        basis_state(9, 0, 5)
    # the arrays must cover every basis index up to j_cut, and no more
    with pytest.raises(ValueError):
        StateVector(np.zeros(35), np.zeros(36), j_cut=5)
    with pytest.raises(ValueError):
        StateVector(np.zeros(36), np.zeros(37), j_cut=5)


class TestAngularMomentum:
    def test_raising_annihilates_top_state(self):
        out = apply_J("Jplus", basis_state(1, 1, 10))
        assert out.log_norm_sq() == -math.inf

    def test_raising_coefficient(self):
        out = apply_J("Jplus", basis_state(1, 0, 10))
        assert amp(out, 1, 1) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_j3_eigenvalue(self):
        out = apply_J("J3", basis_state(2, -1, 10))
        assert amp(out, 2, -1) == pytest.approx(-1.0)

    def test_jsq_eigenvalue(self):
        out = apply_J("Jsq", basis_state(3, 1, 10))
        assert amp(out, 3, 1) == pytest.approx(12.0)

    def test_ladder_adjointness(self):
        up = apply_J("Jplus", basis_state(4, 2, 10))
        down = apply_J("Jminus", basis_state(4, 3, 10))
        assert inner(basis_state(4, 3, 10), up) == pytest.approx(
            inner(up, basis_state(4, 3, 10)).conjugate())
        assert amp(up, 4, 3) == pytest.approx(amp(down, 4, 2).conjugate())


class TestPosition:
    def test_x3_from_ground(self):
        out = apply_X("X3", basis_state(0, 0, 10))
        assert amp(out, 1, 0) == pytest.approx(1 / math.sqrt(3), rel=1e-15)

    def test_xplus_from_ground(self):
        out = apply_X("Xplus", basis_state(0, 0, 10))
        assert amp(out, 1, 1) == pytest.approx(-math.sqrt(2 / 3), rel=1e-15)

    def test_x3_hermiticity(self):
        raised = inner(basis_state(1, 0, 10), apply_X("X3", basis_state(0, 0, 10)))
        lowered = inner(basis_state(0, 0, 10), apply_X("X3", basis_state(1, 0, 10)))
        assert raised == pytest.approx(lowered)
        assert raised == pytest.approx(1 / math.sqrt(3))


class TestGenerators:
    def test_z3_from_ground(self):
        out = apply_Z("Z3", basis_state(0, 0, 10))
        assert amp(out, 1, 0) == pytest.approx(math.exp(-1) / math.sqrt(3),
                                               rel=1e-14)

    def test_z3_two_branches(self):
        out = apply_Z("Z3", basis_state(1, 0, 10))
        assert amp(out, 2, 0) == pytest.approx(
            math.exp(-2) * math.sqrt(4 / 15), rel=1e-14)
        assert amp(out, 0, 0) == pytest.approx(
            math.e / math.sqrt(3), rel=1e-14)

    def test_z1_from_ground(self):
        out = apply_Z("Z1", basis_state(0, 0, 10))
        c = 0.5 * math.exp(-1) * math.sqrt(2 / 3)
        assert amp(out, 1, 1) == pytest.approx(-c, rel=1e-14)
        assert amp(out, 1, -1) == pytest.approx(c, rel=1e-14)

    def test_z2_from_ground(self):
        out = apply_Z("Z2", basis_state(0, 0, 10))
        c = 0.5 * math.exp(-1) * math.sqrt(2 / 3)
        assert amp(out, 1, 1) == pytest.approx(1j * c, rel=1e-14)
        assert amp(out, 1, -1) == pytest.approx(1j * c, rel=1e-14)

    def test_vector_form_scalars_collapse_at_ground(self):
        # sqrt(1 + 4 j(j+1)) = 1 at j = 0, so the first scalar function is
        # e^{1/2}(sinh(1/2) + cosh(1/2)) = e there
        from cohstates.repspace import jsq_tables
        f, _ = jsq_tables(0)
        assert f.bands[(0, 0, 0, 0)][0] == pytest.approx(math.e, rel=1e-14)

    def test_vector_form_matches_ladder_form_ground(self):
        a = apply_Z("Z3", basis_state(0, 0, 10))
        b = apply_Z_vector_form("Z3", basis_state(0, 0, 10))
        assert amp(b, 1, 0) == pytest.approx(amp(a, 1, 0), rel=1e-13)

    @pytest.mark.parametrize("which", ["Z1", "Z2", "Z3"])
    def test_vector_form_matches_ladder_form_generic(self, which):
        s = basis_state(5, 2, 12)
        a = apply_Z(which, s)
        b = apply_Z_vector_form(which, s)
        assert relative_residual(restricted(a, 10), restricted(b, 10),
                                 s) < 1e-12


class TestInnerAndExpectation:
    def test_orthonormality(self):
        for (j1, m1), (j2, m2) in [((0, 0), (0, 0)), ((2, 1), (2, 1)),
                                   ((2, 1), (2, -1)), ((3, 0), (2, 0))]:
            got = inner(basis_state(j1, m1, 8), basis_state(j2, m2, 8))
            want = 1.0 if (j1, m1) == (j2, m2) else 0.0
            assert got == pytest.approx(want, abs=1e-15)

    def test_norm_positive_and_sesquilinear(self):
        a = state_sum([basis_state(1, 0, 8),
                       state_scale(basis_state(2, 1, 8), 0.5 - 0.25j)])
        b = state_sum([basis_state(2, 1, 8),
                       state_scale(basis_state(1, 0, 8), 1j)])
        n = inner(a, a)
        assert n.imag == pytest.approx(0.0, abs=1e-15)
        assert n.real > 0
        assert inner(a, b) == pytest.approx(inner(b, a).conjugate(), rel=1e-14)

    def test_expectation_examples(self):
        assert expectation("J3", basis_state(4, -3, 8)) == pytest.approx(-3.0)
        assert expectation("X3", basis_state(0, 0, 8)) == pytest.approx(0.0, abs=1e-16)
        plus = state_sum([basis_state(0, 0, 8), basis_state(1, 0, 8)])
        assert expectation("Jsq", plus) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("j", [30, 45, 55])
    @pytest.mark.parametrize("offset", [0.0, 5000.0, -3000.0, 12345.6])
    def test_expectation_divides_out_the_rounded_norm(self, j, offset):
        # one level, amplitudes of one magnitude e^offset: the log squared
        # norm, about 2 offset, rounds at its own ulp, which the division by
        # the rows' squared norm cancels
        lm = np.full((j + 1) ** 2, -math.inf)
        phase = np.zeros(lm.size)
        lm[j * j:] = offset
        phase[j * j:] = 0.7 * np.arange(-j, j + 1)
        got = expectation("Jsq", StateVector(lm, phase, j))
        assert abs(got - j * (j + 1)) <= 4 * math.ulp(j * (j + 1))

    def test_zero_norm_expectation_rejected(self):
        empty = state_scale(basis_state(0, 0, 8), 0j)
        for evaluate in (expectation,
                         lambda which, s: residual_norm(which, s, 1.0)):
            with pytest.raises(ValueError):
                evaluate("J3", empty)
            # and so is a label apply_J, apply_X and apply_Z do not accept
            with pytest.raises(ValueError):
                evaluate("J1", basis_state(1, 0, 8))
        # an operator maps the zero state to itself, and refuses a label
        # outside its family, on the zero state too
        for apply, which, bad in ((apply_J, "Jplus", "X3"),
                                  (apply_X, "X1", "J1"),
                                  (apply_X, "Xplus", "Z1"),
                                  (apply_Z, "Z2", "J3")):
            assert apply(which, empty).log_norm_sq() == -math.inf
            for s in (empty, basis_state(1, 0, 8)):
                with pytest.raises(ValueError):
                    apply(bad, s)


class TestMemo:
    """A state computes its norm, its unit-norm rows and each expectation
    value once, and keeps them for as long as it lives."""

    MEMO = ("_log_norm_sq", "_unit_rows", "_expectations")
    ALL_LABELS = sorted(repspace._J_LABELS | repspace._X_LABELS
                        | repspace._Z_LABELS)

    def memo(self, s):
        return {k: v for k, v in vars(s).items() if k in self.MEMO}

    @staticmethod
    def fresh(s):
        return StateVector(s.log_mag.copy(), s.phase.copy(), s.j_cut)

    @staticmethod
    def bits(v) -> tuple:
        v = complex(v)
        return v.real.hex(), v.imag.hex()

    def test_derived_states_start_empty(self):
        s = random_sparse_state(0)
        for which in ("J3", "Xplus", "Z2"):
            expectation(which, s)
        residual_norm("Z1", s, 1.0)
        assert self.memo(s).keys() == set(self.MEMO)
        assert self.memo(s)["_expectations"].keys() == {"J3", "Xplus", "Z2"}
        other = replace(s, log_mag=s.log_mag[::-1])
        derived = [replace(s), other, state_scale(s, 2j),
                   state_sum([s, s]), apply_J("J3", s)]
        for d in derived:
            assert self.memo(d) == {}
        # a state made by replace() answers from its own arrays
        assert self.bits(expectation("J3", other)) == self.bits(
            expectation("J3", self.fresh(other)))
        assert expectation("J3", other) != expectation("J3", s)

    @pytest.mark.parametrize("l_norm", [0.0, 5.0, 21.5])
    def test_memoised_values_are_bit_identical(self, l_norm):
        s = coherent_state(SpherePhasePoint([0.6, 0.0, 0.8],
                                            [0.0, l_norm, 0.0]))
        for which in self.ALL_LABELS:
            first = expectation(which, s)
            assert expectation(which, s) is first
            res = residual_norm(which, s, first)
            assert res == residual_norm(which, s, first)
            t = self.fresh(s)
            assert np.array_equal(t.phase, s.phase)
            assert self.bits(first) == self.bits(expectation(which, t))
            assert res.hex() == residual_norm(which, self.fresh(s),
                                              first).hex()
        assert self.memo(s)["_expectations"].keys() == set(self.ALL_LABELS)

    def test_zero_state_and_unknown_labels_raise_every_time(self):
        empty = state_scale(basis_state(0, 0, 8), 0j)
        s, other = basis_state(1, 0, 8), basis_state(2, 1, 8)
        expectation("J3", s)
        for _ in range(2):
            with pytest.raises(ValueError):
                expectation("J3", empty)
            with pytest.raises(ValueError):
                residual_norm("J3", empty, 1.0)
            for evaluate in (expectation,
                             lambda which, s: residual_norm(which, s, 1.0)):
                with pytest.raises(ValueError):
                    evaluate("J1", s)
            # anywhere in a stack, before any value is written
            for states, which in (([other, s, empty], "Jsq"),
                                  ([empty, other], "X3"),
                                  ([other, s], "J1"),
                                  ([other], "X4")):
                with pytest.raises(ValueError):
                    repspace._expect_stack(states, which)
        assert self.memo(empty)["_expectations"] == {}
        assert self.memo(s)["_expectations"].keys() == {"J3"}
        assert self.memo(other).get("_expectations", {}) == {}

    @pytest.mark.parametrize("l_norm, j_cut", [(0.0, None), (5.0, None),
                                               (21.5, None), (12.0, 20)])
    def test_a_stack_has_the_bits_of_each_state_alone(self, l_norm, j_cut):
        # relative_X's three axis references at their cut; the explicit cut
        # 20 at |l| = 12 starves the state, and the references share it
        p = SpherePhasePoint([0.6, 0.0, 0.8],
                             [0.48 * l_norm, 0.8 * l_norm, -0.36 * l_norm])
        cut = min(coherent_state(p, j_cut).j_cut, math.ceil(l_norm) + 10)
        refs = [coherent_closed_form(axis_reference_label(p.l, k), cut)
                for k in range(3)]
        for which in self.ALL_LABELS:
            repspace._expect_stack(refs, which)
        for ref in refs:
            alone = self.fresh(ref)
            assert ref._expectations.keys() == set(self.ALL_LABELS)
            for which in self.ALL_LABELS:
                assert self.bits(ref._expectations[which]) == self.bits(
                    expectation(which, alone)), (l_norm, which)

    def test_a_stack_keeps_the_entries_a_memo_holds(self):
        s, t = random_sparse_state(1), random_sparse_state(2)
        first = expectation("X3", s)
        for which in ("X3", "Z1"):
            repspace._expect_stack([s, t], which)
        assert s._expectations["X3"] is first
        assert s._expectations.keys() == t._expectations.keys() == {"X3",
                                                                     "Z1"}
        for which in ("X3", "Z1"):
            assert self.bits(t._expectations[which]) == self.bits(
                expectation(which, self.fresh(t)))

    def test_the_states_are_read_in_place(self, monkeypatch):
        """The tracemalloc peak of relative_X's call, its three cut-110 axis
        references at |l| = 100 with their rows built, counted in one
        reference's padded rows.  Reading a branch holds its real
        coefficient (1/2), one state's conjugated target slice (1) and the
        einsum's buffers (1/3); forming the next coefficient, an integer
        radicand and its root while the last one is held, sets the peak
        (1.9 for each X label).  One stacked copy of the three states'
        rows (3) would exceed the bound of 2."""
        p = SpherePhasePoint([0.6, 0.0, 0.8], [48.0, 80.0, -36.0])
        refs = [coherent_closed_form(axis_reference_label(p.l, k), 110)
                for k in range(3)]
        # builds the rows each state keeps, all of one size
        (rows,) = {ref._unit_rows[1].nbytes for ref in refs}
        monkeypatch.setattr(np, "stack", None)     # a copy would call it
        tracemalloc.start()
        try:
            for which in ("Xplus", "Xminus", "X3"):
                repspace._expect_stack(refs, which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(ref._expectations.keys() == {"Xplus", "Xminus", "X3"}
                   for ref in refs)
        assert peak <= 2 * rows, peak / rows


def _assert_close(got, want, rel):
    assert abs(got - want) <= rel * max(1.0, abs(want)), (got, want)


def test_state_arrays_are_read_only_and_canonical():
    lm = np.full(16, -math.inf)
    lm[:3] = 0.0
    ph = np.array([0.5, -math.pi, 3 * math.pi] + [7.0] * 13)
    s = StateVector(lm, ph, j_cut=3)
    lm[0] = 5.0     # the state holds its own copy
    assert s.log_mag[0] == 0.0
    for arr in (s.log_mag, s.phase):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # phases wrapped into (-pi, pi], and 0 at the exact zeros
    assert s.phase[:3].tolist() == [0.5, math.pi, math.pi]
    assert not s.phase[3:].any()
    assert dict(s.amplitudes) == {(0, 0): (0.0, 0.5),
                                  (1, -1): (0.0, math.pi),
                                  (1, 0): (0.0, math.pi)}


class TestDenseMatchesSparse:
    """The dense bilinear forms against the sparse operator actions."""

    @pytest.mark.parametrize("which", LABELS)
    def test_expectation_on_basis_states(self, which):
        for j, m in [(0, 0), (1, -1), (3, 2), (7, 0), (8, 8), (8, -5)]:
            s = basis_state(j, m, 8)
            _assert_close(expectation(which, s), sparse_expectation(which, s),
                          1e-12)

    @pytest.mark.parametrize("which", LABELS)
    @pytest.mark.parametrize("seed", range(4))
    def test_expectation_on_random_states(self, which, seed):
        s = random_sparse_state(seed)
        _assert_close(expectation(which, s), sparse_expectation(which, s),
                      1e-12)

    def test_real_amplitudes_give_exactly_real_forms(self):
        # phases of exactly 0 and pi must leave no sin(pi) dust behind
        rng = np.random.default_rng(3)
        lm, ph = np.array([(rng.uniform(-5.0, 0.0), rng.choice([0.0, math.pi]))
                           for _ in range(81)]).T
        s = StateVector(lm, ph, 8)
        for which in ("J3", "Jsq", "Jplus", "Jminus", "X3", "Xplus",
                      "Xminus", "Z1", "Z3"):
            assert expectation(which, s).imag == 0.0
            assert sparse_expectation(which, s).imag == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_norm_on_random_states(self, seed):
        s = random_sparse_state(seed)
        for which, value in [("Z1", 0.3 - 2j), ("Z3", 1.5), ("J3", 0.0),
                             ("X2", 1j)]:
            want = oracles.sparse_residual_norm(which, s, value,
                                                s.j_cut - 2)
            _assert_close(residual_norm(which, s, value), want, 1e-13)


@functools.lru_cache(maxsize=None)
def _seeded_coherent(l_norm, j_cut=None):
    """A coherent state at |l| = l_norm, at a seeded orientation, and its
    label."""
    rng = np.random.default_rng(int(10 * l_norm) + 1)
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    v = rng.normal(size=3)
    v -= (v @ x) * x
    p = SpherePhasePoint(x, l_norm * v / np.linalg.norm(v))
    return coherent_state(p, j_cut), phase_to_z(p)


class TestSlicesMatchTables:
    """The shifted-slice expectations and residuals against the operator
    table kernel they replaced, kept in tests/oracles.py."""

    @pytest.mark.parametrize("l_norm", [0.0, 5.0, 12.0, 21.5, 100.0])
    @pytest.mark.parametrize("which", LABELS)
    def test_coherent_states(self, which, l_norm):
        base, zl = _seeded_coherent(l_norm)
        s = StateVector(base.log_mag, base.phase, base.j_cut)
        want = oracles.table_expectation(which, s)
        got = expectation(which, s)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)
        # Z_i against its eigenvalue, as the report takes it, relative to
        # the label size; J and X against their mean, relative to it
        if which in ("Z1", "Z2", "Z3"):
            value = complex(zl.z[int(which[1]) - 1])
            size = float(np.linalg.norm(zl.z))
        else:
            value, size = want, max(1.0, abs(want))
        got = residual_norm(which, s, value)
        want = oracles.table_residual_norm(which, s, value, s.j_cut - 2)
        assert abs(got - want) <= 1e-13 * size, (got, want)


@pytest.mark.parametrize("which", ["Z1", "Z2", "Z3"])
def test_z_residual_where_its_weight_overflows(which):
    # past j = 709 the lowering weight e^{j} of Z overflows a double on its
    # own; the residual combines it with the amplitudes as logs.  The
    # coherent state has finite, tiny amplitudes up to the cut; its levels
    # above 40 carry less than e^-1000 of the norm, so the sparse oracle
    # reads the levels up to 40 only, at cut 42, which keeps their image.
    # The high state's image spans e^{685} to e^{-746}, past the double
    # range, so its oracle runs on mpmath values.
    base, zl = _seeded_coherent(3.0, 720)
    s = StateVector(base.log_mag, base.phase, base.j_cut)
    value = complex(zl.z[int(which[1]) - 1])
    # an amplitude at j = 715 whose image, e^{685}-sized, is finite
    lm = np.full(s.log_mag.size, -math.inf)
    lm[[5 * 6, 715 * 716 + 2]] = [0.0, -30.0]
    high = StateVector(lm, np.zeros(lm.size), 720)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [residual_norm(which, s, value),
               residual_norm(which, high, 0.0)]
        image = apply_Z(which, high)
    assert all(map(math.isfinite, got))
    sn = state_scale(s, math.exp(-0.5 * s.log_norm_sq()))
    low = restricted(StateVector(sn.log_mag[:43 ** 2], sn.phase[:43 ** 2],
                                 42), 40)
    want = [oracles.sparse_residual_norm(which, low, value, 718),
            oracles.sparse_residual_norm(which, high, 0j, 718, mp=True)]
    assert abs(got[0] - want[0]) <= 1e-13 * float(np.linalg.norm(zl.z))
    assert got[1] == pytest.approx(want[1], rel=1e-13)
    # the image itself, e^{685}-sized at j = 714
    sparse = oracles.sparse_apply(which, high, mp=True)
    assert image.amplitudes.keys() == sparse.amplitudes.keys()
    assert image.log_norm_sq() == pytest.approx(sparse.log_norm_sq(),
                                                rel=1e-13)


@pytest.mark.parametrize("which", ["Z1", "Z2", "Z3"])
def test_z_residual_holds_one_coefficient_at_a_time(which):
    """The tracemalloc peak of a Z residual at cut 200, counted in padded
    complex arrays of (j_cut + 1) x (2 j_cut + 1) entries.  What _image holds
    at once, past the state's rows kept on it, is the image d (1) and the
    branch being added: each coefficient is formed inside the sum that adds
    it, so the last one is gone by then.  Z2's coefficient is made complex
    by the -+i/2 of X2 (1), next to the real X+- branch it is scaled from
    (1/2) while it is formed; times its row scales, it is held with that
    product (2), and it is freed before the product times the rows (1, or 0
    where numpy multiplies in place) is formed.  Z1's and Z3's coefficients
    are real (1/2), and so is their product with the row scales (1/2), whose
    product with the rows is complex (1).  That is at most 3 arrays for Z2
    and 2.5 for Z1 and Z3; each bound leaves half an array more for the
    row-length arrays, numpy's casting buffers and the interpreter.  A
    coefficient kept alive while the next branch is formed, as by generator
    frames that held the last branch (3.71, 3.71 and 3.11), exceeds it."""
    base, zl = _seeded_coherent(90.0)
    s = StateVector(base.log_mag, base.phase, base.j_cut)
    value = complex(zl.z[int(which[1]) - 1])
    residual_norm(which, s, value)     # builds the rows the state keeps
    tracemalloc.start()
    try:
        residual_norm(which, s, value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.j_cut == 200
    array = (s.j_cut + 1) * (2 * s.j_cut + 1) * 16
    bound = 3.5 if which == "Z2" else 3
    assert peak <= bound * array, peak / array


@pytest.mark.parametrize("which, diagonals, roots", [("Z1", 4, 4),
                                                     ("Z2", 4, 4),
                                                     ("Z3", 0, 2)])
def test_residual_forms_each_coefficient_once(monkeypatch, which,
                                              diagonals, roots):
    """The row scales are read off the branch list's shifts and weights, so
    a residual forms each branch's coefficient once, in the sum: Z1 and Z2
    have four branches, each a _diagonal table of one _root, and Z3 two,
    each one _root."""
    s = random_sparse_state(3)
    calls = dict.fromkeys(("_diagonal", "_root"), 0)
    for name in calls:
        def counted(*args, name=name, original=getattr(repspace, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(repspace, name, counted)
    residual_norm(which, s, 0.5)
    assert calls == {"_diagonal": diagonals, "_root": roots}


def _dense_terms(which, j_cut):
    """{(source, target): coefficient} of every nonzero dense branch."""
    from cohstates.repspace import _dense_branches, grid
    j, m = grid(j_cut)
    out = {}
    for dj, dm, coef, weight in _dense_branches(which, j, m):
        coef = coef()
        for k in np.flatnonzero(coef != 0):
            key = ((j[k], m[k]), (j[k] + dj, m[k] + dm))
            out[key] = out.get(key, 0) + coef[k] * math.exp(weight[k])
    return out


def _scalar_terms(which, j_cut):
    """The same table from the scalar matrix elements of the sparse path, at
    unit radius."""
    from oracles import jminus_coef, jplus_coef, x_terms, z_terms
    cart = {"X1": (("Xplus", 0.5), ("Xminus", 0.5)),
            "X2": (("Xplus", -0.5j), ("Xminus", 0.5j)),
            "J1": (("Jplus", 0.5), ("Jminus", 0.5)),
            "J2": (("Jplus", -0.5j), ("Jminus", 0.5j))}
    out = {}
    if which in cart:
        for ladder, f in cart[which]:
            for key, c in _scalar_terms(ladder, j_cut).items():
                out[key] = out.get(key, 0) + f * c
        return out
    for j in range(j_cut + 1):
        for m in range(-j, j + 1):
            if which == "J3":
                terms = [((j, m), m)]
            elif which == "Jsq":
                terms = [((j, m), j * (j + 1))]
            elif which == "Jplus":
                terms = [((j, m + 1), jplus_coef(j, m))] if m < j else []
            elif which == "Jminus":
                terms = [((j, m - 1), jminus_coef(j, m))] if m > -j else []
            elif which.startswith("X"):
                terms = list(x_terms(which, j, m, 1.0))
            else:
                terms = [(key, c * math.exp(lw))
                         for key, c, lw in z_terms(which, j, m)]
            for key, c in terms:
                if c != 0:
                    out[((j, m), key)] = c
    return out


@pytest.mark.parametrize("j_cut", [10, 40])
@pytest.mark.parametrize("which", LABELS + ("J1", "J2"))
def test_dense_branches_match_scalar_matrix_elements(which, j_cut):
    dense = _dense_terms(which, j_cut)
    scalar = _scalar_terms(which, j_cut)
    assert dense.keys() == scalar.keys()
    # the Z elements are assembled in log form on the scalar side
    rel = 1e-13 if which.startswith("Z") else 0.0
    for key, want in scalar.items():
        assert abs(dense[key] - want) <= rel * abs(want), (key, dense[key],
                                                          want)


def library_apply(which, s):
    """The library's action of any label apply_J, apply_X or apply_Z
    accepts."""
    if which in repspace._J_LABELS:
        return apply_J(which, s)
    return (apply_X if which in repspace._X_LABELS else apply_Z)(which, s)


class TestBandTables:
    """Operators held as tables, and the library's actions, against the
    sparse operator actions."""

    @pytest.mark.parametrize("which", ["J1", "J2", "X1", "X2"])
    def test_cartesian_bands_are_the_scaled_ladder_pair(self, which):
        factors = {"1": (0.5, 0.5), "2": (-0.5j, 0.5j)}[which[1]]
        want = {}
        for f, side in zip(factors, ("plus", "minus")):
            ladder = operator_table(which[0] + side, 12)
            want.update({key: f * c for key, c in ladder.bands.items()})
        got = operator_table(which, 12).bands
        assert got.keys() == want.keys()
        for key, c in got.items():
            assert np.array_equal(c, want[key]), key

    @pytest.mark.parametrize("which", LABELS)
    def test_application_matches_sparse_action(self, which):
        # amplitudes spanning e^-30..e^5, the top level j_cut included
        for seed in range(6):
            s = random_sparse_state(seed)
            want = oracles.sparse_apply(which, s)
            for got in (oracles.apply_table(operator_table(which, s.j_cut), s),
                        library_apply(which, s)):
                assert got.amplitudes.keys() == want.amplitudes.keys()
                assert relative_residual(got, want, s) <= 1e-14

    @pytest.mark.parametrize("a,b", [("Z1", "Z3"), ("X1", "Jplus"),
                                     ("Xplus", "Z2"), ("Jsq", "Xminus")])
    def test_product_matches_composition(self, a, b):
        s = random_sparse_state(2)
        table = operator_table(a, 12) @ operator_table(b, 12)
        got = oracles.apply_table(table, s)
        want = from_dict(oracles.apply_operator(
            a, oracles.apply_operator(b, to_dict(s), 12), 12), 12)
        assert relative_residual(got, want, s, want) <= 1e-14

    def test_tables_must_share_cut_and_components(self):
        from cohstates.repspace import identity_table
        with pytest.raises(ValueError):
            operator_table("J3", 6) @ operator_table("J3", 7)
        with pytest.raises(ValueError):
            identity_table(6, 2) + identity_table(6)

    def test_column_norms_are_the_images_norms(self):
        from cohstates.spinor import exp_minus_k_table, v_table
        # at cut 200 the Z1 Z1 norms are about e^392, whose squares
        # overflow a double
        for a, b, j_cut, columns, tol in (
                ("Z2", "X1", 8, (0, 7, 30, 80), dict(abs=1e-14)),
                ("Z1", "Z1", 200, (197 ** 2, 197 ** 2 + 197, 198 ** 2 + 7,
                                   198 ** 2 + 2 * 198), dict(rel=1e-14))):
            t = operator_table(a, j_cut) @ operator_table(b, j_cut)
            norms = t.column_norms(j_cut - 2)
            j, m = grid(j_cut)
            for k in columns:
                image = from_dict(oracles.apply_operator(
                    a, oracles.apply_operator(b, {(int(j[k]), int(m[k])): 1 + 0j},
                                              j_cut), j_cut), j_cut)
                assert math.log(norms[k]) == pytest.approx(
                    0.5 * restricted(image, j_cut - 2).log_norm_sq(), **tol)
        # spinor tables: the up columns, then the down ones, m = +-j included
        j, m = grid(8)
        for t in (v_table(8), exp_minus_k_table(8) @ v_table(8)):
            norms = t.column_norms(6)
            for k in (0, 8, 30, 81 + 9, 81 + 24, 81 + 35):
                comp, flat = divmod(k, 81)
                image = oracles.apply_spinor_table(t, oracles.spinor_basis(
                    int(j[flat]), int(m[flat]), ("up", "down")[comp]))
                assert math.log(norms[k]) == pytest.approx(
                    0.5 * math.log(oracles.dict_norm_sq(image, 6)), abs=1e-14)

    @pytest.mark.parametrize("j_cut", [3, 12, 30])
    def test_coefficients_vanish_off_the_basis(self, j_cut):
        # products and norms read only a target's level, so every table
        # verify builds must be 0 wherever its target is not a basis vector
        from cohstates.repspace import identity_table, jsq_tables
        from cohstates.spinor import (exp_minus_k_table, k_table, v_table,
                                      z_matrix_entries)
        tables = ([operator_table(w, j_cut) for w in LABELS + ("J1", "J2")]
                  + [*jsq_tables(j_cut), *z_matrix_entries(j_cut)]
                  + [identity_table(j_cut, c) for c in (1, 2)]
                  + [v_table(j_cut), k_table(j_cut), exp_minus_k_table(j_cut),
                     exp_minus_k_table(j_cut) @ v_table(j_cut)])
        j, m = grid(j_cut)
        for t in tables:
            for (dj, dm, row, col), c in t.bands.items():
                off = (j + dj < 0) | (np.abs(m + dm) > j + dj)
                assert not c[off].any(), (dj, dm, row, col)

    def test_tables_that_overflow_are_refused(self):
        # the suite turns RuntimeWarnings into errors, so an overflow
        # warning on the way to the ValueError would fail this test
        from cohstates.spinor import exp_minus_k_table
        for build in (lambda: operator_table("Z1", 720),
                      lambda: exp_minus_k_table(720),
                      lambda: operator_table("Z1", 400)
                      @ operator_table("Z1", 400)):
            with pytest.raises(ValueError, match="j_cut="):
                build()


class TestTruncationAccounting:
    def test_raising_past_cut_is_dropped(self):
        s = basis_state(5, 0, 5)
        out = apply_X("X3", s)
        assert (6, 0) not in out.amplitudes

    def test_interior_actions_lose_nothing(self):
        # both branches of X3 from |2, 0> land inside the cut
        out = apply_X("X3", basis_state(2, 0, 10))
        assert math.exp(out.log_norm_sq()) == pytest.approx(9 / 35 + 4 / 15,
                                                            rel=1e-14)

    def test_tail_fraction_reports_top_bands(self):
        s = state_sum([basis_state(0, 0, 6),
                       state_scale(basis_state(6, 0, 6), 1e-8 + 0j)])
        assert s.tail_fraction() == pytest.approx(1e-16, rel=1e-10)


def test_commutator_spot_check():
    # [Jplus, Jminus] = 2 J3 on an interior vector
    s = basis_state(3, 1, 10)
    pm = apply_J("Jplus", apply_J("Jminus", s))
    mp_ = apply_J("Jminus", apply_J("Jplus", s))
    lhs = state_sum([pm, state_scale(mp_, -1 + 0j)])
    rhs = state_scale(apply_J("J3", s), 2 + 0j)
    assert relative_residual(lhs, rhs, s) < 1e-14


@pytest.mark.parametrize("which", ["Z1", "Z2", "Z3"])
def test_subnormal_table_coefficients_stay_finite(which):
    # from |360, 2> Z's branches carry e^{360} and e^-361, a ratio e^-721
    # that is subnormal; the state path keeps each weight as a log per
    # target level, so neither branch is rounded away
    s = basis_state(360, 2, 400)
    assert expectation(which, s) == 0
    want = restricted(oracles.sparse_apply(which, s), 398)
    assert residual_norm(which, s, 0) == pytest.approx(
        math.exp(0.5 * want.log_norm_sq()), rel=1e-13)
