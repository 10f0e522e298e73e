"""Command-line reports: circle, sphere, rotator, verify.

All reports are deterministic for a fixed seed and configuration (but for
the times of `verify --timings`); JSON is emitted with sorted keys and CSV
follows RFC 4180.  Exit codes: 0 success, 1 verification failure, 2 flag
error or an output that cannot be written (an --out path or standard
output), 3 phase-space constraint violation, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import re
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

import numpy as np

# "--l -.5,0,0": a minus and numbers as float() reads them are not a flag
_D = r"(\d(_?\d)*)"     # digits, an underscore allowed between two
_NUM = rf"(({_D}(\.{_D}?)?|\.{_D})(e[-+]?{_D})?|inf(inity)?|nan)"
_NEGATIVE_TOKEN = re.compile(rf"-{_NUM}(,[-+]?{_NUM})*$", re.IGNORECASE)

from . import __version__
from .checks import run_all
from .circle import (CirclePhasePoint, circle_coherent, circle_eigen_residual,
                     circle_expect_J, circle_expect_U, circle_relative_U,
                     circle_uncertainty_report)
from .rotator import (argmax_j, argmax_m, classical_peak_j,
                      distribution_from_state, rotator_energy)
from .errors import ConstraintError
from .floattext import reprs
from .sphere import (SpherePhasePoint, coherent_state, eigen_residual,
                     expect_J, expect_X, path_disagreement, phase_to_z,
                     relative_X, uncertainty_J)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_FLAG_ERROR = 2
EXIT_CONSTRAINT = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = _NEGATIVE_TOKEN

    def error(self, message):
        """Exit 2 with the one line `<prog>: error: <message>`, no usage."""
        self.exit(EXIT_FLAG_ERROR, f"{self.prog}: error: {message}\n")


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
    """argparse type: an integer in [lo, hi], or where allowed 'auto', which
    parses to None, the library's automatic cut."""
    def parse(text: str):
        if auto and text == "auto":
            return None
        with contextlib.suppress(ValueError):
            if lo <= int(text) <= hi:
                return int(text)
        what = "'auto' or an integer" if auto else "an integer"
        raise argparse.ArgumentTypeError(
            f"{flag} must be {what} in [{lo}, {hi:g}], got {text!r}")
    return parse


# A sphere state at cut n holds (n + 1)^2 amplitudes, and a report prints
# every nonzero one.  The upper bound, 730 = 2 * 355 + 20, lets an explicit
# cut reach far past the automatic cut at the largest supported |l| (355),
# which is 385, and past every level that carries a state there: a report
# at --l 355,0,0 --j-cut 730 (534,361 nonzero amplitudes) takes 1.14-1.35 s
# as a child process, JSON or CSV (3 runs each, a shared 2-core Xeon), and
# peaks at 120-121 MB.
SPHERE_J_CUT_RANGE = (10, 730)

# The identity sweeps need an interior level j <= j_cut - 2 above the ground
# multiplet, and hold each operator as a table of at most 12 bands of
# (j_cut + 1)^2 finite coefficients each, under 6 MB per table at 200, where
# the 7 checks take 0.70-0.74 s (verify --timings, 3 runs on a shared 2-core
# Xeon) and the process peaks at 73-74 MB.
IDENTITY_J_CUT_RANGE = (3, 200)


# Rows are formatted and written this many at a time, so that a report never
# holds its whole text, or a Python object per printed number.
_CHUNK = 4096


def _json(v, out: list, field=None, pad="\n") -> None:
    """Append to out the text of v as json.dumps(v, indent=2, sort_keys=True,
    allow_nan=False) writes it at the depth pad indents, where json runs its
    pure-Python encoder, which took 1.7 times as long on report payloads.
    An iterator, the texts of a table's rows, each after a comma, goes into
    out itself, to be written in place.  A value or key json would not
    write as it is is a defect: AssertionError names its top-level field."""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise AssertionError(f"a {field} value is not finite")
        out.append(float.__repr__(v))
    elif isinstance(v, dict):
        if bad := [k for k in v if not isinstance(k, str)]:
            raise AssertionError(
                f"a {field or 'payload'} key is not a string: {bad[0]!r}")
        sep = "{"
        for k in sorted(v):
            out.append(f"{sep}{pad}  {encode_basestring_ascii(k)}: ")
            sep = ","
            _json(v[k], out, k if field is None else field, pad + "  ")
        out.append(pad + "}" if v else "{}")
    elif isinstance(v, (list, tuple)):
        sep = "["
        for x in v:
            out.append(f"{sep}{pad}  ")
            sep = ","
            _json(x, out, field, pad + "  ")
        out.append(pad + "]" if v else "[]")
    elif isinstance(v, str):
        out.append(encode_basestring_ascii(v))
    elif v is None or v is True or v is False:
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, Iterator):
        # the first row's comma becomes the bracket that opens the list
        first = next(v, None)
        out += ["[]"] if first is None else [
            first.replace(",", "[", 1), v, pad + "]"]
    else:
        raise AssertionError(f"a {field} value has no JSON form: {v!r}")


def _chunks(texts: list[str], columns: list[np.ndarray]):
    """The rows of equal-length columns, texts[0], column 0's value, ...,
    texts[-1], joined _CHUNK rows to a string, floats as json writes them:
    a chunk's float columns are converted together by floattext.reprs, the
    text of float.__repr__ a block of values at a time."""
    # a row's fixed text, its slots, and those of floats
    row, slots, floats, before = [], [], [], texts[0]
    for col, after in zip(columns, texts[1:]):
        if col.dtype.kind == "i" and len(col):
            # k with the text around it, from a table rolled so that k, even
            # a negative k, which counts from the end, indexes its own entry
            ks = range(min(col.min(), 0), max(col.max(), -1) + 1)
            write, before = [f"{before}{k}{after}" for k in
                             np.roll(ks, ks.start)].__getitem__, ""
        else:
            row += [before] if before else []
            write, before = str, after
        if col.dtype.kind == "f":
            floats.append((len(row), col))
        else:
            slots.append((len(row), col, write))
        row.append(None)
    row += [before] if before else []
    for i in range(0, len(columns[0]), _CHUNK):
        n = len(columns[0][i:i + _CHUNK])
        parts = row * n
        for k, col, write in slots:
            parts[k::len(row)] = map(write, col[i:i + _CHUNK].tolist())
        if floats:
            text = reprs(np.concatenate([c[i:i + _CHUNK] for _, c in floats]))
            for j, (k, _) in enumerate(floats):
                parts[k::len(row)] = text[j * n:(j + 1) * n]
        yield "".join(parts)


def _emit(args, payload: dict, table: dict, json_key=None) -> None:
    """Write a report: the payload, tagged with its command and version, as
    JSON, or for --format csv only the table, {field: column}, one row per
    index of columns of numbers or of names RFC 4180 leaves unquoted.  JSON
    holds a table of numbers under json_key, which _json writes in place, a
    chunk of rows at a time.  Every check precedes the first byte; a
    non-finite table value, like a payload value json would not write, is a
    bug."""
    table = {name: np.asarray(col) for name, col in table.items()}
    if bad := [k for k, c in table.items()
               if c.dtype.kind == "f" and not np.isfinite(c).all()]:
        raise AssertionError(f"a {bad[0]} value is not finite")
    if args.format == "csv":
        parts = itertools.chain([",".join(table) + "\r\n"], _chunks(
            ["", *[","] * (len(table) - 1), "\r\n"], list(table.values())))
    else:
        payload = {"command": args.command, "version": __version__, **payload}
        rows = None
        if json_key is not None:
            names = sorted(table)
            keys = [f",\n      {encode_basestring_ascii(k)}: " for k in names]
            rows = payload[json_key] = _chunks(
                [",\n    {" + keys[0][1:], *keys[1:], "\n    }"],
                [table[k] for k in names])
        out = []
        _json(payload, out)
        out.append("\n")
        # a table's text, which is long, streams from the iterator _json left
        # in out, each piece as it is; the rest of the text is joined
        parts = ["".join(out)] if rows is None else itertools.chain(
            *[p if p is rows else [p] for p in out])
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(parts)
        else:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # what is left in the buffer then goes nowhere at exit
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise ValueError(f"cannot write {args.out or 'standard output'}: "
                         f"{exc.strerror or exc}") from None


def cmd_circle(args) -> int:
    point = CirclePhasePoint(args.phi, args.l)
    exp_j = circle_expect_J(point)
    exp_u = circle_expect_U(point)
    rel_u = circle_relative_U(point)
    unc = circle_uncertainty_report(point)
    residual, residual_rel = circle_eigen_residual(circle_coherent(point))
    payload = {
        "phi": point.phi,
        "l": point.l,
        "expect_J": exp_j,
        "expect_U": _cnum(exp_u),
        "expect_U_abs": abs(exp_u),
        "expect_U_arg": math.atan2(exp_u.imag, exp_u.real),
        "relative_U": _cnum(rel_u),
        "uncertainty": {"var_J": unc.var_j, "bound": unc.bound,
                        "ratio_U2": _cnum(unc.ratio_u2)},
        "eigen_residual": residual,
        "eigen_residual_rel": residual_rel,
    }
    names = ["expect_J", "expect_U_re", "expect_U_im", "var_J", "bound"]
    _emit(args, payload, {"quantity": names, "value": [
        exp_j, exp_u.real, exp_u.imag, unc.var_j, unc.bound]})
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
    js, ms, logs, phases = state.nonzero()
    payload = {
        **_point_fields(point, state),
        "z_label": [_cnum(complex(v)) for v in zl.z],
        "tail_fraction": state.tail_fraction(),
        "expect_J": list(expect_J(state)),
        "expect_X": list(point.r * expect_X(state)),
        "relative_X": [None if math.isnan(v) else v
                       for v in relative_X(state, point)],
        "uncertainty": {"var_J": unc.var_j, "bound": unc.bound},
        "eigen_residual": residual,
        "eigen_residual_rel": residual / zl.size(),
        "label_size": zl.size(),
        "amplitude_log_range": float(logs.max() - logs.min()),
    }
    if args.check_paths:
        worst = path_disagreement(state, zl)
        if worst == math.inf:
            payload["path_disagreement_reason"] = (
                "the generation routes' disagreement overflows a double")
            worst = None
        payload["path_disagreement"] = worst
    _emit(args, payload, {"j": js, "m": ms, "log_mag": logs,
                          "phase": phases}, json_key="amplitudes")
    return EXIT_OK


def cmd_rotator(args) -> int:
    point, state = _build_sphere_state(args)
    table = distribution_from_state(state)
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
    _emit(args, payload, {"j": table.j, "m": table.m, "p": table.p,
                          "ln_p": table.ln_p})
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(seed=args.seed, j_cut=args.identity_j_cut,
                      tail_j_cut=args.j_cut)
    ok = all(r.passed for r in results)
    timed = ["elapsed_s"] if args.timings else []
    payload = {
        "seed": args.seed,
        "identity_j_cut": args.identity_j_cut,
        "all_passed": ok,
        "checks": [
            {"check": r.name, "measured": r.measured,
             "tolerance": r.tolerance, "pass": r.passed,
             "n_cases": r.n_cases, "worst_at": r.worst_at,
             **{k: r.elapsed_s for k in timed}}
            for r in results
        ],
    }
    rows = [(r.name, r.measured, r.tolerance, str(r.passed).lower(),
             *(r.elapsed_s for _ in timed)) for r in results]
    _emit(args, payload, dict(zip(["check", "measured", "tolerance", "pass",
                                   *timed], zip(*rows))))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cohstates",
        description="Coherent states on the circle and the sphere: "
                    "reports and verification.")
    parser.add_argument("--version", action="version", version=__version__)
    # subparsers are of the parser's own class, _Parser
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, j_cut=True):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of stdout")
        if j_cut:
            p.add_argument("--j-cut", default="auto",
                           type=_int_arg("--j-cut", *SPHERE_J_CUT_RANGE,
                                         auto=True),
                           help="truncation level or 'auto' (the label's "
                                "default)")

    pc = sub.add_parser("circle", help="circle coherent-state report")
    common(pc, j_cut=False)
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
    pv.add_argument("--seed", type=_int_arg("--seed", 0, math.inf),
                    default=0, help="seed for randomized sweeps")
    pv.add_argument("--identity-j-cut", default=30,
                    type=_int_arg("--identity-j-cut", *IDENTITY_J_CUT_RANGE),
                    help="truncation level for the operator-identity sweeps "
                         "(3 to 200)")
    pv.add_argument("--timings", action="store_true",
                    help="add each check's elapsed seconds, elapsed_s")
    pv.set_defaults(func=cmd_verify)
    return parser


# Built on the first call of main and reused: building it is most of the
# cost of a small request made in-process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAG_ERROR
    except AssertionError as exc:
        # an invariant of the computation (hermiticity, a real expectation,
        # an uncertainty bound) failed: a defect, not a verdict on the input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
