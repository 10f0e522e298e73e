import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import cohstates
from cohstates import cli, sphere
from cohstates.circle import circle_eigen_residual
from cohstates.cli import main
from cohstates.repspace import StateVector
from test_sphere import _l, _x


@pytest.fixture
def run(capsys):
    def _run(argv, expect_code=0):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == expect_code, f"exit {code} for {argv}"
        return out
    return _run


def run_json(run, argv):
    return json.loads(run(argv))


def output(argv):
    """Exit code, stdout and stderr of one main call, argparse's exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


README_SPHERE = ["sphere", "--x", "0,0,1", "--l", "1,0,0", "--check-paths"]
README_FIGURE1 = ["rotator", "--x", "0.412,0.412,0.812",
                  "--l", "8.124,-8.124,0"]
README_FIGURE2 = ["rotator", "--x", "0.411,0.911,0.036",
                  "--l", "-17.490,7.490,10", "--fix-j", "21",
                  "--project-tangent"]


VERIFY_ARGV = ["verify", "--identity-j-cut", "12", "--seed", "7"]


@pytest.fixture(scope="module")
def verify_report():
    """The stdout of one VERIFY_ARGV run, shared by the module's tests."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(VERIFY_ARGV) == 0
    return buf.getvalue()


class TestCircleCommand:
    def test_integer_label_is_exact(self, run):
        d = run_json(run, ["circle", "--phi", "0", "--l", "2"])
        assert abs(d["expect_J"] - 2.0) <= 1e-12
        assert d["eigen_residual"] <= 1e-12

    def test_quarter_integer_within_tolerance(self, run):
        d = run_json(run, ["circle", "--phi", "0", "--l", "0.25"])
        assert abs(d["expect_J"] - 0.25) <= 1e-3

    def test_angle_recovered_from_position_average(self, run):
        d = run_json(run, ["circle", "--phi", "1.5", "--l", "0"])
        assert abs(d["expect_U_arg"] - 1.5) <= 1e-12

    def test_residual_relative_to_the_eigenvalue(self, run):
        # |xi| = e^{-l} is 1e222 here: the absolute residual is 4e206, and
        # the one relative to |xi| must still be at roundoff
        d = run_json(run, ["circle", "--phi", "-2.73", "--l", "-512.86"])
        assert d["eigen_residual_rel"] <= 1e-15
        assert d["eigen_residual"] == pytest.approx(
            d["eigen_residual_rel"] * math.exp(512.86), rel=1e-12)

    def test_report_has_no_cut(self, run):
        d = run_json(run, ["circle", "--phi", "0", "--l", "2"])
        assert "j_cut" not in d and "tail_fraction" not in d

    def test_residual_is_computed_once(self, run, monkeypatch):
        calls = []

        def counted(state):
            calls.append(state)
            return circle_eigen_residual(state)

        monkeypatch.setattr(cli, "circle_eigen_residual", counted)
        d = run_json(run, ["circle", "--phi", "0.4", "--l", "3.7"])
        assert len(calls) == 1
        assert d["eigen_residual"] == d["eigen_residual_rel"] * math.exp(-3.7)

    def test_csv_cells_carry_the_json_numbers(self, run):
        argv = ["circle", "--phi", "0.7", "--l", "-3.3"]
        d = run_json(run, argv)
        rows = list(csv.reader(io.StringIO(run([*argv, "--format", "csv"]))))
        want = [d["expect_J"], *d["expect_U"], d["uncertainty"]["var_J"],
                d["uncertainty"]["bound"]]
        assert rows == [["quantity", "value"]] + [
            [q, repr(v)] for q, v in zip(
                ("expect_J", "expect_U_re", "expect_U_im", "var_J", "bound"),
                want)]


class TestSphereCommand:
    def test_rest_amplitudes_match_generating_state(self, run):
        d = run_json(run, ["sphere", "--x", "0,0,1", "--l", "0,0,0",
                           "--j-cut", "20"])
        by_index = {(a["j"], a["m"]): a for a in d["amplitudes"]}
        assert by_index[(0, 0)]["log_mag"] == pytest.approx(0.0, abs=1e-15)
        want = -1.0 + 0.5 * math.log(3.0)
        assert by_index[(1, 0)]["log_mag"] == pytest.approx(want, rel=1e-13)
        assert all(a["m"] == 0 for a in d["amplitudes"])

    def test_negative_vector_with_an_exponent_parses(self, run):
        # a leading minus made any later exponent read as an unknown flag
        d = run_json(run, ["sphere", "--x", "-0.6,0,8e-01", "--l", "0,5,0"])
        assert d["eigen_residual"] <= 1e-8

    def test_path_agreement_flag(self, run):
        d = run_json(run, ["sphere", "--x", "0,0,1", "--l", "1,0,0",
                           "--check-paths"])
        assert d["path_disagreement"] <= 1e-10

    def test_figure_point_report(self, run):
        d = run_json(run, ["sphere", "--x", "0.412,0.412,0.812",
                           "--l", "8.124,-8.124,0"])
        assert d["eigen_residual"] <= 1e-8
        # the momentum average tracks the label direction with the known
        # 1/(2|l|)-sized contraction
        ratio = d["expect_J"][0] / 8.124
        assert 0.94 < ratio < 1.0

    def test_report_has_no_lost_fraction(self, run):
        # every report state is built in closed form, never by an operator
        # application that could push mass past the cut
        d = run_json(run, ["sphere", "--x", "0,0,1", "--l", "0,0,0"])
        assert "lost_fraction" not in d
        assert d["tail_fraction"] == 0.0

    def test_residual_relative_to_label_size(self, run):
        d = run_json(run, ["sphere", "--x", "0.412,0.412,0.812",
                           "--l", "8.124,-8.124,0"])
        size = math.sqrt(sum(re * re + im * im for re, im in d["z_label"]))
        assert d["label_size"] == pytest.approx(size, rel=1e-15)
        assert d["eigen_residual_rel"] == pytest.approx(
            d["eigen_residual"] / size, rel=1e-15)
        assert d["eigen_residual_rel"] <= 1e-13

    def test_amplitude_log_range(self, run):
        d = run_json(run, ["sphere", "--x", "0.412,0.412,0.812",
                           "--l", "8.124,-8.124,0"])
        logs = [a["log_mag"] for a in d["amplitudes"]]
        assert d["amplitude_log_range"] == max(logs) - min(logs)
        assert d["amplitude_log_range"] > 100

    def test_check_paths_at_the_south_pole(self, run):
        # z3 = -1, where the north pole's generation parameters are
        # singular: the routes run from the other chart
        d = run_json(run, ["sphere", "--x", "0,0,-1", "--l", "0,0,0",
                           "--check-paths"])
        assert d["path_disagreement"] <= 1e-10
        assert "path_disagreement_reason" not in d
        assert d["eigen_residual"] <= 1e-12

    def test_check_paths_beside_z3_minus_one(self, run):
        # x3 = -1/cosh|l|: z3 is -1 to 4e-8, where the routes' sums from the
        # north pole cancel past the double range
        d = run_json(run, ["sphere", "--x", "1.0,0,-8.496708510583178e-18",
                           "--l", "-3.3986834076319546e-16,0,-40.00000004",
                           "--check-paths"])
        assert d["path_disagreement"] <= 1e-10
        assert d["eigen_residual_rel"] <= 1e-13

    def test_check_paths_overflow_is_reported(self, run):
        # z3 = 0, so both charts give |mu| = e^150: the routes' sums
        # cancel past the double range, which is reported, not raised
        d = run_json(run, ["sphere", "--x", "1,0,0", "--l", "0,0,-150",
                           "--check-paths"])
        assert d["path_disagreement"] is None
        assert "overflows" in d["path_disagreement_reason"]

    def test_equator_at_rest_keeps_exact_zeros(self, run):
        # C_n(0) = 0 for odd n: the rows are exactly the j - |m| even ones
        argv = ["--x", "1,0,0", "--l", "0,0,0", "--j-cut", "20"]
        want = {(j, m) for j in range(21) for m in range(-j, j + 1)
                if (j - m) % 2 == 0}
        d = run_json(run, ["sphere", *argv])
        assert {(a["j"], a["m"]) for a in d["amplitudes"]} == want
        rows = list(csv.DictReader(io.StringIO(run(["rotator", *argv,
                                                    "--format", "csv"]))))
        assert {(int(r["j"]), int(r["m"])) for r in rows} == want

    def test_radius_scales_expect_X_only(self, run):
        # the same unit-sphere point at r = 2.5 and at r = 1: every other
        # number depends on x/r alone, bit for bit
        at = ["sphere", "--l", "0,1.5,0"]
        big = run_json(run, [*at, "--x", "1.5,0,2", "--r", "2.5"])
        unit = run_json(run, [*at, "--x", "0.6,0,0.8"])
        assert big["expect_X"] == pytest.approx(
            [2.5 * v for v in unit["expect_X"]], rel=1e-15, abs=1e-15)
        for d in (big, unit):
            del d["x"], d["r"], d["expect_X"]
        assert big == unit

    @pytest.mark.parametrize("argv", [
        ["sphere", "--x", "0,0,1e300", "--r", "1e300", "--l", "20,0,0"],
        ["rotator", "--x", "0,0,1e300", "--r", "1e300", "--l", "20,0,0"],
        ["sphere", "--x", "0,0,1e160", "--r", "1e160", "--l", "355,0,0",
         "--j-cut", "10"],
    ])
    def test_extreme_radius_reports_as_the_unit_sphere(self, argv):
        # cosh|l| x overflows a double here; the label is built on x/r
        code, out, err = output(argv)
        assert (code, err) == (0, "")
        unit = argv[:argv.index("--x")] + ["--x", "0,0,1"] + argv[
            argv.index("--l"):]
        want = json.loads(output(unit)[1])
        got = json.loads(out)
        assert got["r"] == float(argv[argv.index("--r") + 1])
        for d in (got, want):
            d.pop("expect_X", None)
            del d["x"], d["r"]
        assert got == want

    def test_csv_cells_carry_the_json_numbers(self, run):
        argv = ["sphere", "--x", "0.412,0.412,0.812", "--l", "8.124,-8.124,0"]
        amps = run_json(run, argv)["amplitudes"]
        rows = list(csv.reader(io.StringIO(run([*argv, "--format", "csv"]))))
        assert rows[1:] == [[str(a["j"]), str(a["m"]), repr(a["log_mag"]),
                             repr(a["phase"])] for a in amps]

    def test_csv_columns_unchanged(self, run):
        out = run(["sphere", "--x", "0,0,1", "--l", "1,0,0", "--format",
                   "csv"])
        assert next(csv.reader(io.StringIO(out))) == ["j", "m", "log_mag",
                                                      "phase"]


class TestRotatorCommand:
    def test_figure1_peak(self, run):
        d = run_json(run, ["rotator", "--x", "0.412,0.412,0.812",
                           "--l", "8.124,-8.124,0", "--fix-m", "0"])
        assert d["argmax_j"]["0"] == 11
        assert d["peak_j_root"] == pytest.approx(11.0, abs=1e-4)

    def test_figure2_peak(self, run):
        d = run_json(run, ["rotator", "--x", "0.411,0.911,0.036",
                           "--l", "-17.490,7.490,10", "--fix-j", "21",
                           "--project-tangent"])
        assert d["argmax_m"]["21"] == 10

    def test_rest_point_is_dominated_by_the_ground_level(self, run):
        d = run_json(run, ["rotator", "--x", "0,0,1", "--l", "0,0,0",
                           "--fix-m", "0"])
        assert d["argmax_j"]["0"] == 0

    def test_csv_schema(self, run):
        out = run(["rotator", "--x", "0,0,1", "--l", "0,0,0",
                   "--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["j", "m", "p", "ln_p"]
        assert rows[1][0] == "0"
        p00 = float(rows[1][2])
        assert p00 == pytest.approx(0.7049985475373922, rel=1e-12)

    def test_out_file(self, run, tmp_path):
        target = tmp_path / "table.csv"
        out = run(["rotator", "--x", "0,0,1", "--l", "0,0,0",
                   "--format", "csv", "--out", str(target)])
        assert out == ""
        assert target.read_text().startswith("j,m,p,ln_p")


class TestNegativeNumbers:
    """A minus and a number are a value, not a flag."""

    @pytest.mark.parametrize("argv, flag, want", [
        (["circle", "--phi", "-.5", "--l", "1"], "phi", -0.5),
        (["circle", "--phi", "0", "--l", "-5."], "l", -5.0),
        (["circle", "--phi", "0", "--l", "-5.e-1"], "l", -0.5),
        (["sphere", "--x", "0,0,1", "--l", "-.5,0,0"], "l", [-0.5, 0, 0]),
        (["circle", "--phi", "0", "--l", "-1_0.5"], "l", -10.5),
        (README_FIGURE2, "l", [-17.49, 7.49, 10.0]),
    ])
    def test_negative_numbers_are_values(self, run, argv, flag, want):
        # a minus before ".5" or after "5." made the number read as a flag
        assert np.array_equal(getattr(cli.build_parser().parse_args(argv),
                                      flag), want)
        if argv[0] != "rotator":
            assert np.array_equal(run_json(run, argv)[flag], want)

    @pytest.mark.parametrize("token", [
        "-.5", "-5.", "-5.e-1", "-1E+05", "-1_000", "-5,+3,.5e-3", "-inf",
        "-Infinity", "-nan,0,0", "-.", "-e5", "-5,", "-5,,1", "-5e", "-1__0",
        "-1_", "-5._5", "-nanx", "-5.5.5", "-0x10", "-h", "--l"])
    def test_a_value_is_a_list_float_reads(self, token):
        # a minus and a comma list float() reads; argparse reads the rest,
        # "-h" and "--l" among them, as flags
        try:
            list(map(float, token.split(",")))
            readable = True
        except ValueError:
            readable = False
        assert bool(cli._NEGATIVE_TOKEN.match(token)) == readable

    def test_flags_stay_flags(self, capsys):
        parser = cli.build_parser()
        subs = parser._subparsers._group_actions[0].choices.values()
        flags = {f for p in [parser, *subs] for f in p._option_string_actions}
        assert "-h" in flags
        assert not any(cli._NEGATIVE_TOKEN.match(f) for f in flags)
        with pytest.raises(SystemExit) as exc:
            main(["circle", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cohstates circle")
        code, _, err = output(["circle", "--phi", "--l", "1"])
        assert code == 2
        assert err.endswith("argument --phi: expected one argument\n")


class TestExitCodes:
    def test_flag_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sphere", "--x", "0,0,1", "--no-such-flag"])
        assert exc.value.code == 2

    def test_malformed_vector(self):
        with pytest.raises(SystemExit) as exc:
            main(["sphere", "--x", "1,2", "--l", "0,0,0"])
        assert exc.value.code == 2

    def test_constraint_violation(self, capsys):
        code = main(["rotator", "--x", "0.411,0.911,0.036",
                     "--l", "-17.490,7.490,10"])
        assert code == 3
        assert "constraint" in capsys.readouterr().err

    def test_radius_violation(self, capsys):
        code = main(["sphere", "--x", "2,0,0", "--l", "0,0,0"])
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("l, tangent", [("0,0,1e-170", 0.0),
                                            ("1e-200,0,1e-170", 1e-200)])
    def test_radial_l_whose_square_underflows_is_not_tangent(self, l,
                                                               tangent):
        # l @ l is 0 in doubles, yet l points off the tangent plane
        argv = ["sphere", "--x", "0,0,1", "--l", l, "--j-cut", "10"]
        code, out, err = output(argv)
        assert (code, out) == (3, "")
        assert err == ("constraint violation: l.x/(|l| r) = 1 exceeds 1e-09; "
                       "pass project_tangent=True to project l onto the "
                       "tangent plane\n")
        code, out, _ = output([*argv, "--project-tangent"])
        assert code == 0 and json.loads(out)["l"] == [tangent, 0.0, 0.0]

    @pytest.mark.parametrize("argv, flag, message", [
        (["circle", "--phi", "nan", "--l", "1"], "--phi",
         "expected a finite number, got 'nan'"),
        (["circle", "--phi", "0", "--l", "inf"], "--l",
         "expected a finite number, got 'inf'"),
        (["sphere", "--x", "0,0,1", "--l", "inf,0,0"], "--l",
         "expected a finite number, got 'inf'"),
        (["sphere", "--x", "0,0,1", "--l", "nan,0,0"], "--l",
         "expected a finite number, got 'nan'"),
        (["sphere", "--x", "0,0,1", "--l", "0,0,0", "--r", "nan"], "--r",
         "expected a finite number, got 'nan'"),
        (["sphere", "--x", "0,0,1", "--l", "1,x,0"], "--l",
         "expected a number, got 'x'"),
        (["circle", "--phi", "abc", "--l", "1"], "--phi",
         "expected a number, got 'abc'"),
        (["circle", "--phi", "0", "--l", "-inf"], "--l",
         "expected a finite number, got '-inf'"),
        (["sphere", "--x", "0,0,1", "--l", "-nan,0,0"], "--l",
         "expected a finite number, got '-nan'"),
    ], ids=[f"argv{i}" for i in range(9)])
    def test_non_finite_number_is_a_flag_error(self, argv, flag, message,
                                               capsys):
        # a number that is not finite, or not a number at all: one line
        # naming the flag and the text, with no usage block
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"cohstates {argv[0]}: error: argument {flag}: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["sphere", "--x", "0,0,1", "--l", "800,0,0"],
        ["rotator", "--x", "0,0,1", "--l", "0,-356,0"],
        ["circle", "--phi", "0.5", "--l", "-710"],
    ])
    def test_label_past_overflow_is_a_constraint_violation(self, argv,
                                                           capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("constraint violation: ")

    @pytest.mark.parametrize("value", ["4611686018427387904", "-1"])
    def test_fix_j_without_entries_is_a_flag_error(self, value):
        # no level j has a nonzero amplitude: one line, nothing on stdout
        code, out, err = output(["rotator", "--x", "0,0,1", "--l", "0,0,0",
                                 "--fix-j", value])
        assert (code, out) == (2, "")
        assert err == f"error: no entries with j = {value}\n"

    @pytest.mark.parametrize("command", ["sphere", "rotator", "verify"])
    @pytest.mark.parametrize("value", ["731", "100000000"])
    def test_j_cut_past_the_bound_is_a_flag_error(self, command, value):
        # rejected while parsing, before any state is allocated, in one
        # line that names the accepted range
        argv = [command, "--j-cut", value]
        if command != "verify":
            argv += ["--x", "0,0,1", "--l", "0,0,0"]
        assert output(argv) == (
            2, "", f"cohstates {command}: error: argument --j-cut: --j-cut "
                   f"must be 'auto' or an integer in [10, 730], got "
                   f"{value!r}\n")

    @pytest.mark.parametrize("command", ["sphere", "rotator", "verify"])
    def test_j_cut_at_the_bound_is_accepted(self, command):
        # 730 is past the automatic cut at every supported |l|
        argv = [command, "--j-cut", "730"]
        if command != "verify":
            argv += ["--x", "0,0,1", "--l", "0,0,0"]
        assert cli.build_parser().parse_args(argv).j_cut == 730

    def test_label_one_ulp_past_the_bound_names_its_norm(self):
        code, out, err = output(["sphere", "--x", "0,0,1",
                                 "--l", "355.00000000000006,0,0"])
        assert (code, out) == (3, "")
        assert err == ("constraint violation: |l| = 355.00000000000006 is "
                       "above the supported 355, where cosh(2|l|) overflows "
                       "a double\n")

    def test_internal_invariant_failure_exits_4(self, monkeypatch, capsys):
        original = sphere.expectation

        def skewed(which, s):
            # <J-> no longer the conjugate of <J+>: not Hermitian
            return original(which, s) + (1.0 if which == "Jminus" else 0.0)

        monkeypatch.setattr(sphere, "expectation", skewed)
        assert main(["sphere", "--x", "0,0,1", "--l", "1,0,0"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("internal error: hermiticity residue")

    def test_circle_takes_no_j_cut(self):
        # the circle state is its whole window: there is no cut to set
        code, out, err = output(["circle", "--phi", "0", "--l", "2",
                                 "--j-cut", "50"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["sphere", "--x", "0,0,1", "--l", "1,0,0"],
        ["rotator", "--x", "0,0,1", "--l", "1,0,0"],
        ["verify", "--identity-j-cut", "6"],
    ], ids=lambda argv: argv[0])
    def test_auto_j_cut_is_the_default(self, argv):
        got = output([*argv, "--j-cut", "auto"])
        assert got[0] == 0
        assert got == output(argv)


class TestVerifyCommand:
    def test_small_run_passes_and_is_deterministic(self, run, verify_report):
        first = verify_report
        second = run(VERIFY_ARGV)
        assert first == second
        d = json.loads(first)
        assert d["all_passed"] is True
        assert {c["check"] for c in d["checks"]} >= {
            "e3_commutators", "casimirs", "v_squared", "kv_anticommutator",
            "z_commutativity", "z_normalization", "z_route_equality",
            "hyp2f1_identity_grid", "gegenbauer_recurrence_vs_series",
            "three_path_equality", "eigen_residuals", "truncation_tail"}

    def test_csv_schema(self, run, verify_report):
        out = run([*VERIFY_ARGV, "--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check", "measured", "tolerance", "pass"]
        assert all(row[3] in ("true", "false") for row in rows[1:])
        # the same text as the JSON numbers of the same run
        checks = json.loads(verify_report)["checks"]
        assert [row[:3] for row in rows[1:]] == [
            [c["check"], repr(c["measured"]), repr(c["tolerance"])]
            for c in checks]

    def test_timings_add_elapsed_seconds_only(self, run, verify_report):
        assert "elapsed_s" not in verify_report
        plain = json.loads(verify_report)
        timed = json.loads(run([*VERIFY_ARGV, "--timings"]))
        elapsed = [c.pop("elapsed_s") for c in timed["checks"]]
        assert timed == plain
        assert all(t > 0 for t in elapsed)
        rows = list(csv.reader(io.StringIO(
            run([*VERIFY_ARGV, "--timings", "--format", "csv"]))))
        assert rows[0] == ["check", "measured", "tolerance", "pass",
                           "elapsed_s"]
        assert [row[:4] for row in rows[1:]] == [
            [c["check"], repr(c["measured"]), repr(c["tolerance"]),
             str(c["pass"]).lower()] for c in plain["checks"]]
        assert all(float(row[4]) > 0 for row in rows[1:])

    def test_checks_report_case_counts_and_worst_cases(self, verify_report):
        d = json.loads(verify_report)
        by = {c["check"]: c for c in d["checks"]}
        assert all(c["n_cases"] >= 1 and c["worst_at"] is not None
                   for c in d["checks"])
        # identity sweeps: a basis index of the interior j <= 10
        j, m = by["e3_commutators"]["worst_at"]
        assert 0 <= j <= 10 and abs(m) <= j
        assert by["e3_commutators"]["n_cases"] == 12 * 11 ** 2
        assert by["casimirs"]["n_cases"] == 2 * 11 ** 2
        # seeded sweeps: the phase point, one of 14
        paths = by["three_path_equality"]
        assert paths["n_cases"] == 14
        l_norm = math.sqrt(sum(c * c for c in paths["worst_at"]["l"]))
        assert min(abs(l_norm - n) for n in (0, 1, 5, 10, 12, 18, 25)) < 1e-9
        assert by["circle_expect_J_grid"]["n_cases"] == 61
        assert set(by["circle_expect_J_grid"]["worst_at"]) == {"l"}

    @pytest.mark.parametrize("value", ["0", "1", "-3", "2", "201", "x"])
    def test_identity_cut_out_of_range_is_a_flag_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identity-j-cut", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines()
                    if "error:" in line and "--identity-j-cut" in line]) == 1

    @pytest.mark.parametrize("value", ["-1", "1e3"])
    def test_seed_out_of_range_is_a_flag_error(self, value, capsys,
                                               monkeypatch):
        # rejected while parsing, before any check runs
        monkeypatch.setattr(cli, "run_all",
                            lambda **kw: pytest.fail("a check ran"))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", value])
        assert exc.value.code == 2
        err = [line for line in capsys.readouterr().err.splitlines()
               if "error:" in line]
        assert len(err) == 1 and "--seed" in err[0]

    def test_starved_truncation_is_flagged(self, run):
        out = run(["verify", "--identity-j-cut", "12", "--j-cut", "12"],
                  expect_code=1)
        d = json.loads(out)
        assert d["all_passed"] is False
        tail = next(c for c in d["checks"] if c["check"] == "truncation_tail")
        assert tail["pass"] is False
        assert tail["measured"] > tail["tolerance"]


# floats that repr writes in exponent form, the smallest subnormal, -0.0
EDGE_FLOATS = [1e-05, 1e+16, 5e-324, -0.0, -1.5e-300, 2.0 ** 70]

# keys and strings with quotes, backslashes, control characters and
# non-ASCII text; edge floats, as Python and numpy floats; big and negative
# integers; and containers of them, empty ones included, 3 deep
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                              st.characters()), max_size=6)
JSON_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), JSON_TEXT, JSON_FLOATS,
    JSON_FLOATS.map(np.float64), st.integers(),
    st.sampled_from([2**80, -2**80, -1]))


def _nested(inner):
    return st.one_of(inner, st.lists(inner, max_size=4),
                     st.lists(inner, max_size=4).map(tuple),
                     st.dictionaries(JSON_TEXT, inner, max_size=4))


class TestReportWriter:
    # the README sphere and rotator examples, the south pole with its
    # routes, a report that carries path_disagreement_reason, one at
    # |l| = 100 (over 4,096 amplitudes, so several chunks), and a circle
    # report
    REQUESTS = [
        README_SPHERE,
        [*README_FIGURE1, "--fix-m", "0"],
        README_FIGURE2,
        ["sphere", "--x", "0,0,-1", "--l", "0,0,0", "--check-paths"],
        ["sphere", "--x", "1,0,0", "--l", "0,0,-150", "--check-paths"],
        ["sphere", "--x", "0,0,1", "--l", "100,0,0"],
        ["circle", "--phi", "0", "--l", "2"],
        VERIFY_ARGV,
    ]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
    def test_byte_identical_to_the_first_writer(self, argv, fmt,
                                                monkeypatch):
        argv = [*argv, "--format", fmt]
        got = output(argv)
        assert got[0] == 0 and got[1]
        monkeypatch.setattr(cli, "_emit", oracles.emit)
        assert got == output(argv)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_boundaries_leave_no_trace(self, chunk, monkeypatch):
        # a report of one chunk, a rotator table, and one of 12 chunks
        requests = [README_SPHERE, README_FIGURE1,
                    ["sphere", "--x", "0,0,1", "--l", "100,0,0"]]
        formats = [(argv, f) for argv in requests for f in ("json", "csv")]
        want = [output([*argv, "--format", f]) for argv, f in formats]
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert [output([*argv, "--format", f]) for argv, f in formats] == want

    @staticmethod
    def written(writer, fmt, table, json_key=None):
        args = SimpleNamespace(format=fmt, command="sphere", out=None)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            writer(args, {"a": '\n  "amplitudes": []', "b": '"amplitudes": [',
                          "z": 1}, table, json_key)
        return out.getvalue()

    def test_splice_ignores_a_string_that_looks_like_the_list(self):
        # a payload string holding the list's own text, and an empty list
        table = {"j": np.array([0, 1]), "m": np.array([0, -1]),
                 "log_mag": np.array([-0.5, -1.25]),
                 "phase": np.array([0.0, 3.141592653589793])}
        for n in (2, 0):
            part = {k: col[:n] for k, col in table.items()}
            got = self.written(cli._emit, "json", part, "amplitudes")
            assert got == self.written(oracles.emit, "json", part,
                                       "amplitudes")
            assert len(json.loads(got)["amplitudes"]) == n

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([0, 1, cli._CHUNK - 1, cli._CHUNK,
                              cli._CHUNK + 1]),
           j=st.lists(st.integers(0, 730), min_size=1, max_size=6),
           m=st.lists(st.integers(-730, 730), min_size=1, max_size=6),
           x=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(
               allow_nan=False, allow_infinity=False)), min_size=1,
               max_size=6))
    @example(n=cli._CHUNK + 1, j=[0, 730], m=[-730, 0, 730],
             x=EDGE_FLOATS)
    def test_table_matches_the_first_writer(self, n, j, m, x):
        # rows tiled from the drawn values, in the sphere's column order: as
        # its amplitude list and its CSV table, and in CSV with a string
        # column, as circle's and verify's tables have
        table = {"j": np.resize(j, n), "m": np.resize(m, n),
                 "log_mag": np.resize(x, n), "phase": np.resize(x[::-1], n)}
        named = {"check": np.resize(["a", "b_c"], n), **table}
        for fmt, tab, key in (("json", table, "amplitudes"),
                              ("csv", table, None), ("csv", named, None)):
            assert (self.written(cli._emit, fmt, tab, key)
                    == self.written(oracles.emit, fmt, tab, key))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_amplitude_writes_nothing(self, fmt, monkeypatch,
                                                 tmp_path):
        nonzero = StateVector.nonzero

        def spoiled(self):
            j, m, *amp = nonzero(self)
            amp[spoil] = np.where(j == 1, math.nan, amp[spoil])
            return j, m, *amp

        monkeypatch.setattr(StateVector, "nonzero", spoiled)
        # a NaN log-magnitude or phase: the sphere prints both; the rotator
        # prints, in CSV, the probabilities drawn from the log-magnitudes,
        # and in JSON their maxima
        for argv, spoil, column in (
                (["sphere", "--x", "0,0,1", "--l", "1,0,0"], 1, "phase"),
                (["sphere", "--x", "0,0,1", "--l", "1,0,0"], 0, "log_mag"),
                (README_FIGURE1, 0, "ln_p")):
            argv = [*argv, "--format", fmt]
            code, out, err = output(argv)
            assert (code, out) == (4, "")
            assert err.splitlines() == [
                f"internal error: a {column} value is not finite"]
            target = tmp_path / "report"
            assert output([*argv, "--out", str(target)])[:2] == (4, "")
            assert not target.exists()

    @pytest.mark.parametrize("spoil", ["expect_J", "j_cut", "key"])
    def test_payload_value_json_would_not_write_exits_4(self, spoil,
                                                        monkeypatch,
                                                        tmp_path):
        # an infinite <J>, a numpy integer cut and an integer key, each a
        # defect of the report's payload, which CSV does not print
        fields = cli._point_fields
        if spoil == "expect_J":
            monkeypatch.setattr(cli, "expect_J",
                                lambda state: np.array([math.inf, 0.0, 0.0]))
            message = "a expect_J value is not finite"
        elif spoil == "j_cut":
            monkeypatch.setattr(cli, "_point_fields", lambda point, state: {
                **fields(point, state), "j_cut": np.int64(state.j_cut)})
            cut = np.int64(sphere.default_j_cut(1.0))
            message = f"a j_cut value has no JSON form: {cut!r}"
        else:
            monkeypatch.setattr(cli, "_point_fields", lambda point, state: {
                **fields(point, state), "levels": {state.j_cut: 1}})
            message = ("a levels key is not a string: "
                       f"{sphere.default_j_cut(1.0)}")
        argv = ["sphere", "--x", "0,0,1", "--l", "1,0,0"]
        assert output(argv) == (4, "", f"internal error: {message}\n")
        target = tmp_path / "report"
        assert output([*argv, "--out", str(target)]) == (
            4, "", f"internal error: {message}\n")
        assert not target.exists()
        assert output([*argv, "--format", "csv"])[0] == 0

    @pytest.mark.parametrize("value, message", [
        ({1: 0}, "a payload key is not a string: 1"),
        ({"a": {"b": 0, None: 0}}, "a a key is not a string: None"),
        ({"a": [{(1, 2): 0}]}, "a a key is not a string: (1, 2)")])
    def test_a_key_json_would_not_write_is_an_assertion(self, value,
                                                         message):
        # json.dumps would write 1 and None as strings, and sorting mixed
        # keys is a TypeError: either way, a defect named by its field
        with pytest.raises(AssertionError) as exc:
            cli._json(value, [])
        assert str(exc.value) == message

    @staticmethod
    def dumped(value):
        out = []
        cli._json(value, out)
        return "".join(out)

    @settings(max_examples=300, deadline=None)
    @given(value=_nested(_nested(_nested(JSON_SCALARS))))
    @example(value={"é\"\\\n\x01": [[], {}, ()], "a": (
        -0.0, 5e-324, 1e-05, 1e+16, 2.0**70, np.float64(0.1), 2**80, -7,
        True, False, None, "☃\x1f")})
    def test_json_writer_matches_json(self, value):
        assert self.dumped(value) == json.dumps(
            value, indent=2, sort_keys=True, allow_nan=False)

    # each command's payload, as _emit receives it: --check-paths with and
    # without its reason, and --fix-m and --fix-j
    PAYLOAD_REQUESTS = [
        ["circle", "--phi", "0", "--l", "2"],
        ["sphere", "--x", "0,0,1", "--l", "1,0,0"],
        README_SPHERE,
        ["sphere", "--x", "1,0,0", "--l", "0,0,-150", "--check-paths"],
        [*README_FIGURE1, "--fix-m", "0", "3"],
        [*README_FIGURE2, "--fix-m", "10"],
        [*VERIFY_ARGV, "--timings"],
    ]

    @pytest.mark.parametrize("argv", PAYLOAD_REQUESTS, ids=" ".join)
    def test_json_writer_matches_json_on_report_payloads(self, argv,
                                                         monkeypatch):
        payloads = []
        monkeypatch.setattr(cli, "_emit", lambda args, payload, *_, **kw: (
            payloads.append({"command": args.command,
                             "version": cohstates.__version__, **payload})))
        assert output(argv) == (0, "", "")
        [payload] = payloads
        if "-150" in argv:
            assert "path_disagreement_reason" in payload
        assert self.dumped(payload) == json.dumps(
            payload, indent=2, sort_keys=True, allow_nan=False)

    def test_one_parser_serves_every_call(self):
        # flags given in one call (--fix-j 21, --fix-m 10) must not become
        # the defaults of the next
        calls = [README_SPHERE, [*README_FIGURE2, "--fix-m", "10"],
                 ["circle", "--phi", "0", "--l", "2"], README_SPHERE,
                 README_FIGURE1]
        cli._parser.cache_clear()
        reused = [output(argv) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(output(argv))
        assert reused == fresh
        last = json.loads(reused[-1][1])
        assert (last["argmax_j"], last["argmax_m"]) == ({"0": 11}, {})

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_requests_share_no_state(self, fmt):
        # A, B, A in one process, each as a fresh process prints it: nothing
        # a state keeps, its memo included, outlives its request
        a = ["sphere", "--x", "0,0.6,0.8", "--l", "3,0,0", "--j-cut", "30",
             "--check-paths", "--format", fmt]
        b = ["sphere", "--x", "0.6,0,0.8", "--l", "0,4,0", "--j-cut", "45",
             "--format", fmt]
        in_process = [output(argv) for argv in (a, b, a)]
        env = {**os.environ, "PYTHONPATH": str(
            Path(cohstates.__file__).resolve().parents[1])}
        fresh = {}
        for name, argv in (("a", a), ("b", b)):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from cohstates.cli "
                 "import main; sys.exit(main(sys.argv[1:]))", *argv],
                capture_output=True, env=env, timeout=120)
            # decoded as is: text mode would turn CSV's \r\n into \n
            fresh[name] = (proc.returncode, proc.stdout.decode(),
                           proc.stderr.decode())
        assert fresh["a"][0] == 0 and fresh["a"] != fresh["b"]
        assert in_process == [fresh["a"], fresh["b"], fresh["a"]]


class TestOutFile:
    @pytest.mark.parametrize("where", ["no/such/dir/report.json", ""])
    def test_unwritable_path_is_a_flag_error(self, where, tmp_path):
        # a missing directory, and a directory itself
        target = tmp_path / where
        code, out, err = output(["sphere", "--x", "0,0,1", "--l", "1,0,0",
                                 "--out", str(target)])
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        reason = ("No such file or directory" if where else "Is a directory")
        assert err.splitlines() == [f"error: cannot write {target}: {reason}"]
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("argv", [
        ["circle", "--phi", "0", "--l", "2"],
        ["sphere", "--x", "0,0,1", "--l", "100,0,0"],
        ["verify", "--format", "csv"]])
    def test_closed_stdout_is_a_flag_error(self, argv):
        # the reader's end of the pipe is closed before the child writes
        read, write = os.pipe()
        os.close(read)
        env = {**os.environ, "PYTHONPATH": str(
            Path(cohstates.__file__).resolve().parents[1])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cohstates.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 2
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith("error: cannot write standard output: ")


def _assert_reports_or_exits_documented(argv) -> None:
    """A JSON report and nothing on stderr, or exit 2 or 3 with one line."""
    code, out, err = output(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
        json.loads(out)
    else:
        assert out == "" and len(err.splitlines()) == 1, (argv, code, err)


def _vec_text(v) -> str:
    return ",".join(map(repr, v))


# The phase-point strategies of test_sphere, at the radii where cosh|l| x
# or x / r leaves the double range, with every sphere and rotator option;
# a non-finite number is drawn too, and is a one-line flag error of
# argparse's own, made at parse time.
# Nine in ten draws violate a constraint, so the draws rarely reach a valid
# point at an extreme radius: the examples pin that family, and the
# non-finite one, which the derandomized draws need not reach.
@example("sphere", [0.0, 0.0, 1.0], [math.inf, 0.0, 0.0], 1.0, False, False,
         False)
@example("rotator", [0.0, 0.6, -0.8], [0.0, 0.0, 0.0], -math.inf, True,
         False, False)
@example("sphere", [0.0, 0.0, 1.0], [20.0, 0.0, 0.0], 1e300, True, False,
         True)
@example("rotator", [0.0, 0.6, -0.8], [0.0, 240.0, 180.0], 1e300, True,
         True, False)
@example("sphere", [0.0, 0.6, -0.8], [0.0, 240.0, 180.0], 1e-300, True,
         False, True)
@given(st.sampled_from(["sphere", "rotator"]), _x, _l,
       st.one_of(st.sampled_from([1.0, 1e300, 1e-300]), st.floats()),
       st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_finite_phase_point_reports_or_exits_documented(
        command, x, l, r, x_in_units_of_r, project, check_paths):
    if x_in_units_of_r:
        x = [c * r for c in x]
    argv = [command, "--x", _vec_text(x), "--l", _vec_text(l), "--r", repr(r),
            "--j-cut", "10"]
    if project:
        argv.append("--project-tangent")
    if check_paths and command == "sphere":
        argv.append("--check-paths")
    _assert_reports_or_exits_documented(argv)


@given(st.floats(), st.floats())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_finite_circle_label_reports_or_exits_documented(phi, l):
    # non-finite labels included: argparse refuses them in one line
    _assert_reports_or_exits_documented(
        ["circle", "--phi", repr(phi), "--l", repr(l)])
