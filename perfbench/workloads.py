"""Seeded request lists for the three workloads.

A workload is run as a sequence of passes.  Pass `p` of a run with seed `s`
draws its inputs from ``random.Random(s * 1000 + p)`` (``verify`` gets
``--seed s + p``), so the same seed gives the same inputs, and no two passes
of a run repeat a phase point (the README examples excepted, which are quoted
verbatim in every pass).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sphere_report", "verify", "circle_sweep")

# The README's CLI examples, verbatim.
README_SPHERE = ["sphere", "--x", "0,0,1", "--l", "1,0,0", "--check-paths"]
README_ROTATORS = [
    ["rotator", "--x", "0.412,0.412,0.812", "--l", "8.124,-8.124,0",
     "--fix-m", "0"],
    ["rotator", "--x", "0.411,0.911,0.036", "--l", "-17.490,7.490,10",
     "--fix-j", "21", "--project-tangent"],
]
README_CIRCLE = ["circle", "--phi", "0", "--l", "2"]

# ROADMAP's fixed |l| values; 21.5 is the README's largest example.
SPHERE_L_NORMS = (0.0, 5.0, 12.0, 21.5)
SPHERE_ORIENTATIONS = 2

# circle_sweep: |l| log-uniform, one draw per stratum of 1/16 decade, from
# 1e-2 up to 1e3 for positive l and up to 10^1.5 for negative l.  The ranges
# stop well inside those on which the program passes every gate of gates.py;
# beyond them it has known defects (ROADMAP items 3 and 4), and a workload is
# made of requests that succeed.  Scanned at the commit that added the
# benchmark, at seeded random phi (largest value seen / gate):
#   * l <= -709.78 raises OverflowError in CirclePhasePoint.xi;
#   * the relative eigen-residual is below 9e-14 / 1e-12 for l in
#     [-10^1.5, -10^1.25] (600 reports) and 3.4e-13 in [-63, -50]; it fails
#     for some phi from about l = -90 on, and for most below -150;
#   * arg <U> is within 1.7e-13 / 1e-12 of phi for l in [10^2.75, 1e3]
#     (400 reports), 4.8e-13 in [1e3, 10^3.25] and 8e-13 in
#     [10^3.25, 10^3.5]; it misses by up to 1.8e-12 above 10^3.8.
# DEFECT_PROBES are sent once after the timed passes of a circle_sweep run,
# neither timed nor counted, and their verdicts are printed, so that the
# defects stay visible until they are fixed.
CIRCLE_LOG10_RANGES = {1.0: (-2.0, 3.0), -1.0: (-2.0, 1.5)}
CIRCLE_STRATA_PER_DECADE = 16
DEFECT_PROBES = [
    ["circle", "--phi", "0.5", "--l", "-710"],        # OverflowError
    ["circle", "--phi", "-2.73", "--l", "-512.86"],   # residual 2.3e-11
    ["circle", "--phi", "-2.947", "--l", "9301.268"],  # arg <U> off 1.8e-12
]


def _vec(v) -> str:
    return ",".join(repr(float(c)) for c in v)


def _unit(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-6:
            return [c / n for c in v]


def tangent_point(rng: random.Random, l_norm: float):
    """A uniform position on the unit sphere and a tangent l of norm l_norm."""
    x = _unit(rng)
    while True:
        v = _unit(rng)
        dot = sum(a * b for a, b in zip(v, x))
        t = [a - dot * b for a, b in zip(v, x)]
        n = math.sqrt(sum(c * c for c in t))
        if n > 1e-3:
            return x, [l_norm * c / n for c in t]


def sphere_report_pass(rng: random.Random) -> list[list[str]]:
    reqs = [list(README_SPHERE)] + [list(r) for r in README_ROTATORS]
    for _ in range(SPHERE_ORIENTATIONS):
        for l_norm in SPHERE_L_NORMS:
            x, l = tangent_point(rng, l_norm)
            reqs.append(["sphere", "--x", _vec(x), "--l", _vec(l)])
    return reqs


def circle_sweep_pass(rng: random.Random) -> list[list[str]]:
    reqs = []
    for sign, (lo, hi) in CIRCLE_LOG10_RANGES.items():
        n = round((hi - lo) * CIRCLE_STRATA_PER_DECADE)
        width = (hi - lo) / n
        for i in range(n):
            l = sign * 10.0 ** (lo + (i + rng.random()) * width)
            phi = math.pi * (2.0 * rng.random() - 1.0)
            reqs.append(["circle", "--phi", repr(phi), "--l", repr(l)])
    # Sent in random order, so that the cheap small-|l| requests, which set
    # request_p50_s, are spread over the pass among the speed samples that
    # calibrate them, rather than all sent within its first half second.
    rng.shuffle(reqs)
    return [list(README_CIRCLE)] + reqs


def requests(workload: str, seed: int, pass_index: int) -> list[list[str]]:
    """The argv lists of one pass, in the order they are sent."""
    if workload == "verify":
        return [["verify", "--seed", str(seed + pass_index)]]
    rng = random.Random(seed * 1000 + pass_index)
    if workload == "sphere_report":
        return sphere_report_pass(rng)
    if workload == "circle_sweep":
        return circle_sweep_pass(rng)
    raise ValueError(f"unknown workload {workload!r}")
