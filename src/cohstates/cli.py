"""Command-line reports: circle, sphere, rotator, verify.

All reports are deterministic for a fixed seed and configuration; JSON is
emitted with sorted keys and CSV follows RFC 4180.  Exit codes: 0 success,
1 verification failure, 2 flag error, 3 phase-space constraint violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys

import numpy as np

# lets "--l -17.49,7.49,10" parse as a value rather than an unknown flag
_NEGATIVE_TOKEN = re.compile(r"^-\d+(\.\d+)?([,eE][-+\d.,eE]+)?$")

from . import __version__
from .checks import run_all
from .circle import (CirclePhasePoint, circle_coherent, circle_eigen_residual,
                     circle_expect_J, circle_expect_U, circle_relative_U,
                     circle_uncertainty_report)
from .rotator import (argmax_j, argmax_m, classical_peak_j, distribution_from_state,
                      rotator_energy)
from .sphere import (L_NORM_MAX, ConstraintError, SpherePhasePoint,
                     coherent_ladder_generated, coherent_state,
                     coherent_triple_sum, default_j_cut, eigen_residual,
                     expect_J, expect_X, max_amplitude_rel_diff, phase_to_z,
                     relative_X, uncertainty_J)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_FLAG_ERROR = 2
EXIT_CONSTRAINT = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = _NEGATIVE_TOKEN


def _cnum(z: complex) -> list[float]:
    return [z.real, z.imag]


def _finite_arg(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return v


def _vec_arg(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}")
    return np.array([_finite_arg(p) for p in parts])


def _int_arg(flag: str, lo: int, hi: float, auto: bool = False):
    """argparse type: an integer in [lo, hi], or 'auto' where allowed."""
    def parse(text: str):
        if auto and text == "auto":
            return text
        with contextlib.suppress(ValueError):
            if lo <= int(text) <= hi:
                return int(text)
        what = "'auto' or an integer" if auto else "an integer"
        raise argparse.ArgumentTypeError(
            f"{flag} must be {what} in [{lo}, {hi:g}], got {text!r}")
    return parse


# A sphere state at cut n holds (n + 1)^2 amplitudes, and a report prints
# every nonzero one.  The upper bound is the automatic cut at the largest
# supported |l| (355), 730: there a sphere report at --l 355,0,0 (534,361
# nonzero amplitudes) peaks at 950 MB RSS as JSON and 460 MB as CSV, most of
# it the printed amplitude list, and takes 12 s (one Xeon core, numpy 2.4).
SPHERE_J_CUT_RANGE = (10, default_j_cut(L_NORM_MAX))

# The identity sweeps need an interior level j <= j_cut - 2 above the ground
# multiplet, and hold each operator as a table of at most 15 bands over
# (j_cut + 1)^2 complex coefficients per component: under 20 MB per table at
# the upper bound, where the seven identity checks take 1.5 s and 70 MB.
IDENTITY_J_CUT_RANGE = (3, 200)


def _emit(args, payload: dict, fields: list[str], rows) -> None:
    """Write a report: the payload, tagged with its command and version, as
    JSON, or for --format csv only the rows, dicts over fields.  The csv
    module writes a float as its repr, which is the text json gives it."""
    if args.format == "json":
        payload = {"command": args.command, "version": __version__, **payload}
        text = json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_circle(args) -> int:
    point = CirclePhasePoint(args.phi, args.l)
    j_cut = None if args.j_cut == "auto" else args.j_cut
    state = circle_coherent(point, j_cut)
    exp_j = circle_expect_J(point, j_cut)
    exp_u = circle_expect_U(point, j_cut)
    rel_u = circle_relative_U(point, CirclePhasePoint(0.0, args.l), j_cut)
    unc = circle_uncertainty_report(point, j_cut)
    payload = {
        "phi": point.phi,
        "l": point.l,
        "j_cut": state.j_cut,
        "tail_fraction": state.tail_fraction(),
        "expect_J": exp_j,
        "expect_U": _cnum(exp_u),
        "expect_U_abs": abs(exp_u),
        "expect_U_arg": math.atan2(exp_u.imag, exp_u.real),
        "relative_U": _cnum(rel_u),
        "uncertainty": {"var_J": unc.var_j, "bound": unc.bound,
                        "ratio_U2": _cnum(unc.ratio_u2)},
        "eigen_residual": circle_eigen_residual(state),
        "eigen_residual_rel": circle_eigen_residual(state, relative=True),
    }
    rows = [{"quantity": q, "value": v} for q, v in zip(
        ("expect_J", "expect_U_re", "expect_U_im", "var_J", "bound"),
        [exp_j, exp_u.real, exp_u.imag, unc.var_j, unc.bound])]
    _emit(args, payload, ["quantity", "value"], rows)
    return EXIT_OK


def _build_sphere_state(args):
    point = SpherePhasePoint(args.x, args.l, r=args.r,
                             project_tangent=args.project_tangent)
    return point, coherent_state(point, j_cut=args.j_cut)


def _point_fields(point: SpherePhasePoint, state) -> dict:
    return {"x": list(point.x), "l": list(point.l), "r": point.r,
            "j_cut": state.j_cut}


def cmd_sphere(args) -> int:
    point, state = _build_sphere_state(args)
    zl = phase_to_z(point)
    unc = uncertainty_J(state)
    residual = eigen_residual(state, zl)
    # the Hermitian size sqrt(sum |z_i|^2) of the label, at least 1 on z.z = 1
    label_size = math.sqrt(float(np.sum(np.abs(zl.z) ** 2)))
    js, ms, logs, phases = state.nonzero()
    payload = {
        **_point_fields(point, state),
        "z_label": [_cnum(complex(v)) for v in zl.z],
        "tail_fraction": state.tail_fraction(bands=2),
        "lost_fraction": state.lost_fraction(),
        "expect_J": list(expect_J(state)),
        "expect_X": list(point.r * expect_X(state)),
        "relative_X": [None if math.isnan(v) else v
                       for v in relative_X(state, point)],
        "uncertainty": {"var_J": unc.var_j, "bound": unc.bound},
        "eigen_residual": residual,
        "eigen_residual_rel": residual / label_size,
        "label_size": label_size,
        "amplitude_log_range": max(logs) - min(logs),
        "amplitudes": [{"j": j, "m": m, "log_mag": lg, "phase": ph}
                       for j, m, lg, ph in zip(js, ms, logs, phases)],
    }
    if args.check_paths:
        try:
            others = [route(zl, state.j_cut) for route in
                      (coherent_triple_sum, coherent_ladder_generated)]
        except ConstraintError as exc:
            # the routes' parametrization, not the phase point, is singular
            payload["path_disagreement_reason"] = str(exc)
            others = []
        payload["path_disagreement"] = max(
            (max_amplitude_rel_diff(state, o) for o in others), default=None)
    _emit(args, payload, ["j", "m", "log_mag", "phase"], payload["amplitudes"])
    return EXIT_OK


def cmd_rotator(args) -> int:
    point, state = _build_sphere_state(args)
    table = distribution_from_state(state, point)
    ln2 = state.log_norm_sq()
    rows = ({"j": j, "m": m, "p": table.probability(j, m),
             "ln_p": 2.0 * lg - ln2}
            for j, m, lg, _ in zip(*state.nonzero()))
    lsq = float(point.l @ point.l)
    root = classical_peak_j(lsq)
    payload = {
        **_point_fields(point, state),
        "total_probability": table.total(),
        "l_squared": lsq,
        "peak_j_root": root,
        "peak_j_nearest": math.ceil(root - 0.5),
        "argmax_j": {str(m): argmax_j(table, m) for m in args.fix_m},
        "argmax_m": {str(j): argmax_m(table, j) for j in args.fix_j},
        "peak_energy": rotator_energy(math.ceil(root - 0.5)),
    }
    _emit(args, payload, ["j", "m", "p", "ln_p"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(seed=args.seed, j_cut=args.identity_j_cut,
                      tail_j_cut=args.j_cut)
    ok = all(r.passed for r in results)
    payload = {
        "seed": args.seed,
        "identity_j_cut": args.identity_j_cut,
        "all_passed": ok,
        "checks": [
            {"check": r.name, "measured": r.measured,
             "tolerance": r.tolerance, "pass": r.passed,
             "n_cases": r.n_cases, "worst_at": r.worst_at}
            for r in results
        ],
    }
    rows = ({"check": r.name, "measured": r.measured,
             "tolerance": r.tolerance, "pass": str(r.passed).lower()}
            for r in results)
    _emit(args, payload, ["check", "measured", "tolerance", "pass"], rows)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cohstates",
        description="Coherent states on the circle and the sphere: "
                    "reports and verification.")
    parser.add_argument("--version", action="version", version=__version__)
    # subparsers are of the parser's own class, _Parser
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, j_cut_max=SPHERE_J_CUT_RANGE[1]):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of stdout")
        p.add_argument("--j-cut", default="auto",
                       type=_int_arg("--j-cut", SPHERE_J_CUT_RANGE[0],
                                     j_cut_max, auto=True),
                       help="truncation level or 'auto' (the label's default)")

    pc = sub.add_parser("circle", help="circle coherent-state report")
    common(pc, j_cut_max=math.inf)
    pc.add_argument("--phi", type=_finite_arg, required=True,
                    help="angle label")
    pc.add_argument("--l", type=_finite_arg, required=True,
                    help="angular-momentum label")
    pc.set_defaults(func=cmd_circle)

    def phase_point(p):
        p.add_argument("--x", type=_vec_arg, required=True,
                       help="position as x1,x2,x3")
        p.add_argument("--l", type=_vec_arg, required=True,
                       help="angular momentum as l1,l2,l3")
        p.add_argument("--r", type=_finite_arg, default=1.0,
                       help="sphere radius")
        p.add_argument("--project-tangent", action="store_true",
                       help="repair l by projecting out its radial component")

    ps = sub.add_parser("sphere", help="sphere coherent-state report")
    common(ps)
    phase_point(ps)
    ps.add_argument("--check-paths", action="store_true",
                    help="also build the state by the other two routes and "
                         "report the worst amplitude disagreement")
    ps.set_defaults(func=cmd_sphere)

    pr = sub.add_parser("rotator", help="energy distribution report")
    common(pr)
    phase_point(pr)
    pr.add_argument("--fix-m", type=int, nargs="*", default=[0],
                    help="report argmax over j at these m values")
    pr.add_argument("--fix-j", type=int, nargs="*", default=[],
                    help="report argmax over m at these j values")
    pr.set_defaults(func=cmd_rotator)

    pv = sub.add_parser("verify", help="run the full invariant suite")
    common(pv)
    pv.add_argument("--seed", type=int, default=0,
                    help="seed for randomized sweeps")
    pv.add_argument("--identity-j-cut", default=30,
                    type=_int_arg("--identity-j-cut", *IDENTITY_J_CUT_RANGE),
                    help="truncation level for the operator-identity sweeps "
                         "(3 to 200)")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAG_ERROR


if __name__ == "__main__":
    sys.exit(main())
