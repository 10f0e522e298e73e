"""Correctness gates applied to every request's output.

Every gate runs on every report that parses, and so does the comparison
with the golden values; a request fails if any of them fails.  Each test is
written as ``not value <= tolerance``, so a NaN fails it.

The residual gates are relative to the label size, because the absolute
residuals grow with the label: 4e-5 at sphere |l| = 21.5 (1e-14 of |z|),
and 5 at circle l = -31.6 (9e-14 of e^{-l}).  The largest absolute residual
is still reported, so the absolute figure stays visible.  The workloads keep
to inputs on which the program passes every gate (see ``workloads.py``), so
any failure is a wrong answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

EIGEN_REL_TOL = 1e-12
PATH_TOL = 1e-10
PROBABILITY_TOL = 1e-12
PHASE_TOL = 1e-12
GOLDEN_REL_TOL = 1e-9
DEFAULT_TAIL_TOL = 1e-24

# Expectation fields compared with the golden values recorded at the seed
# commit.  The norm is floored at 1 (the units of J, X and U), so an exactly
# zero golden vector is not compared bit for bit.
GOLDEN_FIELDS = {
    "sphere": ("expect_J", "expect_X", "relative_X"),
    "circle": ("expect_J", "expect_U", "relative_U"),
}


@dataclass
class Outcome:
    """Result of one request: time, exit status and captured streams.
    `start` and `end` are perf_counter times, `seconds` the time measured
    by the benchmark's clock."""

    argv: list
    seconds: float
    exit_code: int | None
    exception: str | None
    stdout: str
    stderr: str
    start: float = 0.0
    end: float = 0.0


@dataclass
class Verdict:
    """`ok` is false for a failed request, and `reason` then says why."""

    ok: bool
    reason: str = ""
    abs_residual: float | None = None


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _wrap(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _flat(v):
    if isinstance(v, (list, tuple)):
        return [y for x in v for y in _flat(x)]
    return [v]


def golden_key(argv) -> str:
    return " ".join(argv)


def golden_fields(kind: str, report: dict) -> dict:
    return {f: report[f] for f in GOLDEN_FIELDS.get(kind, ())}


def _golden_failures(report: dict, golden: dict) -> list[str]:
    out = []
    for f, want in golden.items():
        got = _flat(report[f])
        want = _flat(want)
        if [g is None for g in got] != [w is None for w in want]:
            out.append(f"{f} undefined components differ from golden")
            continue
        pairs = [(g, w) for g, w in zip(got, want) if w is not None]
        norm = max(1.0, math.sqrt(sum(w * w for _, w in pairs)))
        bad = [abs(g - w) for g, w in pairs
               if not abs(g - w) <= GOLDEN_REL_TOL * norm]
        if bad:
            out.append(f"{f} off golden by {bad[0]:.3g} (norm {norm:.3g})")
    return out


def _sphere_failures(report: dict) -> list[str]:
    out = []
    res = report["eigen_residual"]
    z = math.sqrt(sum(re * re + im * im for re, im in report["z_label"]))
    if not res / max(1.0, z) <= EIGEN_REL_TOL:
        out.append(f"eigen_residual/|z| = {res / max(1.0, z):.3g}")
    pd = report.get("path_disagreement")
    if pd is not None and not pd <= PATH_TOL:
        out.append(f"path_disagreement {pd:.3g} > {PATH_TOL}")
    return out


def _circle_failures(report: dict) -> list[str]:
    out = []
    l = report["l"]
    res = report["eigen_residual"]
    # residual / max(1, e^{-l}), in logs: e^{-l} overflows near the bottom
    # of the range.  A NaN residual stays NaN and fails.
    rel = math.exp(math.log(res) - max(0.0, -l)) if res > 0 else res
    if not rel <= EIGEN_REL_TOL:
        out.append(f"eigen_residual/max(1, e^-l) = {rel:.3g} at l={l!r}")
    dphi = abs(_wrap(report["expect_U_arg"] - report["phi"]))
    if not dphi <= PHASE_TOL:
        out.append(f"arg <U> off phi by {dphi:.3g} at l={l!r}")
    unc = report["uncertainty"]
    if not unc["var_J"] >= unc["bound"]:
        out.append(f"var_J {unc['var_J']!r} < bound {unc['bound']!r}")
    return out


def _report_failures(kind: str, argv, report: dict) -> list[str]:
    """Every failed gate of one parsed report, golden comparison aside."""
    out = []
    tail_tol = float(_flag(argv, "--tail-tol", DEFAULT_TAIL_TOL))
    tail = report.get("tail_fraction", 0.0)
    if not tail <= tail_tol:
        out.append(f"tail_fraction {tail:.3g} > {tail_tol}")
    if kind == "sphere":
        out += _sphere_failures(report)
    elif kind == "circle":
        out += _circle_failures(report)
    elif kind == "rotator":
        dev = abs(report["total_probability"] - 1.0)
        if not dev <= PROBABILITY_TOL:
            out.append(f"|total_probability - 1| = {dev:.3g}")
    elif kind == "verify":
        bad = [c["check"] for c in report["checks"] if not c["pass"]]
        if bad or report["all_passed"] is not True:
            out.append("verify failed: " + ", ".join(bad))
    else:
        out.append(f"unknown report kind {kind!r}")
    return out


def judge(o: Outcome, golden: dict) -> Verdict:
    """Apply every gate to one request's outcome."""
    if o.exception is not None:
        return Verdict(False, o.exception)
    if o.exit_code != 0:
        return Verdict(False, f"exit {o.exit_code}: {o.stderr.strip()[:200]}")
    kind = o.argv[0]
    try:
        report = json.loads(o.stdout)
    except json.JSONDecodeError as exc:
        return Verdict(False, f"unparsable output: {exc}")
    failures = _report_failures(kind, o.argv, report)
    if golden_key(o.argv) in golden:
        failures += _golden_failures(report, golden[golden_key(o.argv)])
    res = report.get("eigen_residual") if kind in ("sphere", "circle") else None
    return Verdict(not failures, "; ".join(failures), res)
