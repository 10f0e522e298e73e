import contextlib
import csv
import io
import json
import math

import pytest

from cohstates.cli import main


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
        # a valid phase point where the generation routes are singular
        d = run_json(run, ["sphere", "--x", "0,0,-1", "--l", "0,0,0",
                           "--check-paths"])
        assert d["path_disagreement"] is None
        assert "z3 = -1" in d["path_disagreement_reason"]
        assert d["eigen_residual"] <= 1e-12

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
        # the same unit-sphere point at r = 2.5 and at r = 1
        at = ["sphere", "--l", "0,1.5,0"]
        big = run_json(run, [*at, "--x", "1.5,0,2", "--r", "2.5"])
        unit = run_json(run, [*at, "--x", "0.6,0,0.8"])
        assert big["expect_X"] == pytest.approx(
            [2.5 * v for v in unit["expect_X"]], rel=1e-15, abs=1e-15)
        for key in ("relative_X", "uncertainty"):
            assert big[key] == pytest.approx(unit[key], rel=1e-15, abs=1e-15)

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

    @pytest.mark.parametrize("argv", [
        ["circle", "--phi", "nan", "--l", "1"],
        ["circle", "--phi", "0", "--l", "inf"],
        ["sphere", "--x", "0,0,1", "--l", "inf,0,0"],
        ["sphere", "--x", "0,0,1", "--l", "nan,0,0"],
        ["sphere", "--x", "0,0,1", "--l", "0,0,0", "--r", "nan"],
    ])
    def test_non_finite_number_is_a_flag_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            line for line in err.splitlines() if "finite number" in line]

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

    @pytest.mark.parametrize("command", ["sphere", "rotator", "verify"])
    @pytest.mark.parametrize("value", ["731", "100000000"])
    def test_j_cut_past_the_bound_is_a_flag_error(self, command, value,
                                                  capsys):
        # rejected while parsing, before any state is allocated
        argv = [command, "--j-cut", value]
        if command != "verify":
            argv += ["--x", "0,0,1", "--l", "0,0,0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = [line for line in capsys.readouterr().err.splitlines()
               if "error:" in line]
        assert len(err) == 1 and "--j-cut" in err[0] and "730" in err[0]

    def test_circle_j_cut_has_no_upper_bound(self, run):
        d = run_json(run, ["circle", "--phi", "0", "--l", "1",
                           "--j-cut", "731"])
        assert d["j_cut"] == 731


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

    def test_starved_truncation_is_flagged(self, run):
        out = run(["verify", "--identity-j-cut", "12", "--j-cut", "12"],
                  expect_code=1)
        d = json.loads(out)
        assert d["all_passed"] is False
        tail = next(c for c in d["checks"] if c["check"] == "truncation_tail")
        assert tail["pass"] is False
        assert tail["measured"] > tail["tolerance"]
