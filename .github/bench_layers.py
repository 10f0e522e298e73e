"""Time the library's layers by direct calls and write the figures as JSON.

    python .github/bench_layers.py --out BENCH.json
    python .github/bench_layers.py --out tiny.json --repeat 1 --norms 0 \
        --writer-l 5

Each layer is timed best of --repeat runs, each run a loop long enough to
last about 10 ms, and reported in seconds per call.  The layers are read at
the phase point x = (0, 0, 1), l = (L, 0, 0) for each L of --norms (default
0, 5, 12 and 21.5, the benchmark's sphere norms), at the default cut:
  closed_form, gegenbauer_column, triple_sum and ladder (the three
  constructions and the closed form's recurrence), exp_ladder (one ladder
  exponential of the ladder route), unit_rows (a state's unit-norm rows),
  expectation_<label> for the six labels of <J> and <X>, residual_norm_Z1,
  eigen_residual, relative_X, apply_J3, apply_X3, apply_Z3, peak_sum (over
  the state's log-magnitudes) and band_table_matmul (X1 @ J1 as tables).
The writer is timed as well: floattext.reprs and repr on the floats that
pass 0 of the sphere_report workload at seed 1 prints
(perfbench/workloads.py, read only), and cli._chunks on the CSV table of
`sphere --x 0,0,1 --l <--writer-l>,0,0`; cli._json against json's indent
encoder, json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False), on
the payloads of the README circle and sphere reports, the two alternated
in every round; the circle report through cli.main; and pass 0 of the
circle_sweep workload at seed 1 through cli.main.  The file records the
machine, Python and numpy, and the machine's speed: perfbench/calibrate.py's
kernel runs 3 times before the layers, after each group of them (one
group per |l|) and after the writer.  Each group carries speed_factor,
Calibrator.factor_during over its own time (the reference kernel time over
the median of the 5 kernel runs nearest its midpoint, exponent 1), and
each of its times <name>_s again as <name>_ref_s, in reference seconds:
times the factor.  A shared machine drifts between groups, so two files,
or two groups of one file, compare by their _ref_s.  machine_speed holds
the median kernel time of the first 3 runs and of the last 3, and the
speed factor over all of them.  The script imports the cohstates of its
own checkout's src.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from calibrate import Calibrator  # noqa: E402
from cohstates import cli  # noqa: E402
from cohstates.floattext import reprs  # noqa: E402
from cohstates.logdomain import peak_sum  # noqa: E402
from cohstates.repspace import (apply_J, apply_X, apply_Z,  # noqa: E402
                                expectation, operator_table, residual_norm)
from cohstates.specfun import gegenbauer_column  # noqa: E402
from cohstates.sphere import (SpherePhasePoint, _exp_ladder,  # noqa: E402
                              coherent_closed_form, coherent_ladder_generated,
                              coherent_triple_sum, default_j_cut,
                              eigen_residual, generation_params,
                              north_pole_state, phase_to_z, relative_X)
from workloads import (README_CIRCLE, README_SPHERE,  # noqa: E402
                       requests)

LABELS = ("Jplus", "Jminus", "J3", "Xplus", "Xminus", "X3")


def alternated(fs, repeat: int) -> list[float]:
    """The shortest of repeat runs of each of fs, in seconds per call, one
    run of each in turn per round, so that a drift in the machine's speed
    reaches all of them alike; a run loops about 10 ms' worth of calls,
    measured on one call first."""
    numbers = []
    for f in fs:
        start = time.perf_counter()
        f()
        numbers.append(
            max(1, int(0.01 / max(time.perf_counter() - start, 1e-9))))
    runs = [[] for _ in fs]
    for _ in range(repeat):
        for f, number, run in zip(fs, numbers, runs):
            start = time.perf_counter()
            for _ in range(number):
                f()
            run.append((time.perf_counter() - start) / number)
    return [min(run) for run in runs]


def best(f, repeat: int) -> float:
    """The shortest of repeat runs of f, in seconds per call."""
    return alternated([f], repeat)[0]


def layers(norm: float, repeat: int) -> dict:
    point = SpherePhasePoint([0.0, 0.0, 1.0], [norm, 0.0, 0.0])
    zl, cut = phase_to_z(point), default_j_cut(norm)
    s = coherent_closed_form(zl, cut)
    rest = north_pole_state(cut)
    nu = generation_params(zl)[2]

    def fresh_expectation(which):
        s._expectations.clear()
        return expectation(which, s)
    calls = {
        "closed_form": lambda: coherent_closed_form(zl, cut),
        "gegenbauer_column": lambda: gegenbauer_column(cut, zl.z[2]),
        "triple_sum": lambda: coherent_triple_sum(zl, cut),
        "ladder": lambda: coherent_ladder_generated(zl, cut),
        "exp_ladder": lambda: _exp_ladder("Jplus", nu, rest.log_mag,
                                          rest.phase, cut),
        "unit_rows": lambda: (s.__dict__.pop("_unit_rows", None),
                              s._unit_rows),
        **{f"expectation_{which}": (lambda w=which: fresh_expectation(w))
           for which in LABELS},
        "residual_norm_Z1": lambda: residual_norm("Z1", s, complex(zl.z[0])),
        "eigen_residual": lambda: eigen_residual(s, zl),
        "relative_X": lambda: relative_X(s, point),
        "apply_J3": lambda: apply_J("J3", s),
        "apply_X3": lambda: apply_X("X3", s),
        "apply_Z3": lambda: apply_Z("Z3", s),
        "peak_sum": lambda: peak_sum(s.log_mag),
        "band_table_matmul": lambda: (operator_table("X1", cut)
                                      @ operator_table("J1", cut)),
    }
    return {"j_cut": cut, "amplitudes": s.log_mag.size,
            **{f"{name}_s": best(f, repeat) for name, f in calls.items()}}


def pass_floats() -> np.ndarray:
    """The table floats pass 0 of sphere_report at seed 1 prints, as its
    reports hand them to cli._chunks."""
    seen, chunks = [], cli._chunks

    def spy(texts, columns):
        seen.extend(np.asarray(c, dtype=float) for c in columns
                    if np.asarray(c).dtype.kind == "f")
        return chunks(texts, columns)
    cli._chunks = spy
    try:
        for argv in requests("sphere_report", 1, 0):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
    finally:
        cli._chunks = chunks
    return np.concatenate(seen)


def report_payload(argv: list) -> dict:
    """The payload the report of argv hands to cli._emit, tagged with its
    command and version as _emit tags it."""
    seen, emit = [], cli._emit
    cli._emit = lambda args, payload, *_, **kw: seen.append(
        {"command": args.command, "version": cli.__version__, **payload})
    try:
        cli.main(argv)
    finally:
        cli._emit = emit
    return seen[0]


def json_writers(repeat: int) -> dict:
    """cli._json and json's indent encoder on the README circle and sphere
    payloads, alternated in every round."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)

    def written(payload):
        out = []
        cli._json(payload, out)
        return "".join(out)
    result = {}
    for name, argv in (("circle", README_CIRCLE), ("sphere", README_SPHERE)):
        payload = report_payload(argv)
        assert written(payload) == encoder.encode(payload), name
        result[f"json_writer_{name}_s"], result[f"json_encoder_{name}_s"] = (
            alternated([lambda: written(payload),
                        lambda: encoder.encode(payload)], repeat))
    return result


def circle_pass(repeat: int) -> dict:
    """Pass 0 of the circle_sweep workload at seed 1, through cli.main."""
    argvs = requests("circle_sweep", 1, 0)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                cli.main(argv)
    return {"circle_pass_requests": len(argvs),
            "circle_pass_s": best(run, repeat)}


def writer(norm: float, repeat: int) -> dict:
    x = pass_floats()
    point = SpherePhasePoint([0.0, 0.0, 1.0], [norm, 0.0, 0.0])
    s = coherent_closed_form(phase_to_z(point), default_j_cut(norm))
    columns = list(s.nonzero())

    def circle():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["circle", "--phi", "0", "--l", "2"])
    return {
        "pass_floats": len(x),
        "reprs_s": best(lambda: reprs(x), repeat),
        "repr_s": best(lambda: list(map(repr, x.tolist())), repeat),
        "chunks_l": norm,
        "chunks_rows": len(columns[0]),
        "chunks_s": best(lambda: "".join(cli._chunks(
            ["", ",", ",", ",", "\r\n"], columns)), repeat),
        "circle_report_s": best(circle, repeat),
        **json_writers(repeat),
        **circle_pass(repeat),
    }


def calibrated(group, speed: Calibrator, *args) -> dict:
    """The figures group(*args) returns, with the speed factor of its own
    time and each time <name>_s also in reference seconds, <name>_ref_s;
    the kernel runs 3 times after it."""
    start = time.perf_counter()
    figures = group(*args)
    end = time.perf_counter()
    speed.sample(3)
    factor = speed.factor_during(start, end)
    return {**figures, "speed_factor": factor,
            **{f"{name[:-2]}_ref_s": t * factor
               for name, t in figures.items() if name.endswith("_s")}}


def machine() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    return {"cpu": model, "cpus": os.cpu_count(),
            "system": platform.platform(), "python": sys.version.split()[0],
            "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--norms", default="0,5,12,21.5",
                    help="comma-separated |l| of the layers' states")
    ap.add_argument("--writer-l", type=float, default=100.0,
                    help="|l| of the report cli._chunks writes")
    args = ap.parse_args(argv)
    norms = [float(v) for v in args.norms.split(",")]
    if args.repeat < 1 or not all(map(math.isfinite, norms)):
        ap.error("--repeat must be positive and --norms finite")
    speed = Calibrator()
    speed.sample(3)
    result = {"machine": machine(), "repeat": args.repeat,
              "layers": {repr(n): calibrated(layers, speed, n, args.repeat)
                         for n in norms},
              "writer": calibrated(writer, speed, args.writer_l,
                                   args.repeat)}
    kernel = [dt for _, dt in speed.samples]
    result["machine_speed"] = {
        "kernel_before_s": statistics.median(kernel[:3]),
        "kernel_after_s": statistics.median(kernel[-3:]),
        "speed_factor": speed.factor()}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
