"""cohstates benchmark: seeded CLI workloads run in-process, one client.

    python3 perfbench/run.py --workload sphere_report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src`` directory and nowhere else.  Requests go through
``cohstates.cli.main(argv)`` in a closed loop from one thread: the next
request is sent when the previous one has returned.

A run is a sequence of passes over a seeded request list (see
``workloads.py``).  With ``--trace 0`` it runs passes until the next one
would end after ``--seconds`` (always at least one) and reports the
end-to-end metrics.  With ``--trace 1`` it runs the first pass untraced and
then traced, checks that both produce byte-identical output, and reports the
per-layer metrics of the traced pass.  Metric names, units and directions
come from ``BENCHMARK.json``.  Every request is checked by ``gates.py``; the
last line of standard output is the JSON result.

Times are reported in reference seconds (see ``calibrate.py``): measured
seconds corrected for how fast the shared machine ran during each request,
by as much as the workload's requests follow the speed of the kernel.
The measured seconds and each pass's correction factor are printed as well.
The run pins itself, and so the set-up children it starts, to one CPU, so
that the calibration and the work it corrects share a core.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import workloads  # noqa: E402
from calibrate import ELASTICITY, Calibrator  # noqa: E402
from tracer import APPLY_FUNCTIONS, MODULES, Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden_seed0.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import cohstates.cli
cohstates.cli.build_parser()
t1 = time.perf_counter()
print(t1 - t0, cohstates.cli.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def pin_to_one_cpu() -> int:
    """Restrict this process (and the processes it starts) to the
    highest-numbered CPU it may use; CPU 0 takes most housekeeping."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_library():
    """Import cohstates from the checkout's src directory, and only there."""
    if not (SRC / "cohstates" / "cli.py").is_file():
        raise BenchError(f"no cohstates sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cohstates
    import cohstates.cli
    if Path(cohstates.__file__).resolve().parent != SRC / "cohstates":
        raise BenchError(f"cohstates was imported from {cohstates.__file__}")
    return cohstates


def measure_setup() -> float:
    """Median time, in fresh processes, to import cohstates.cli and build
    its parser, in reference seconds."""
    code = _SETUP_CHILD.format(src=str(SRC))
    times = []
    cal = Calibrator()
    for i in range(SETUP_REPEATS + 1):
        cal.sample()
        proc = subprocess.run([sys.executable, "-I", "-c", code],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError("set-up child failed: " + proc.stderr[-500:])
        seconds, path = proc.stdout.split()
        if Path(path).resolve().parent != SRC / "cohstates":
            raise BenchError(f"set-up child imported {path}")
        if i:  # the first child only warms the bytecode cache
            times.append(float(seconds))
    cal.sample()
    return statistics.median(times) * cal.factor()


def send(cli, argv, clock=time.perf_counter) -> gates.Outcome:
    """One request through cli.main, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    exit_code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        t0 = clock()
        try:
            exit_code = cli.main(list(argv))
        except SystemExit as e:
            exit_code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a crash is a failed request, not a crashed run
            exc = f"{type(e).__name__}: {e}"
        seconds = clock() - t0
        end = time.perf_counter()
    return gates.Outcome(list(argv), seconds, exit_code, exc,
                         out.getvalue(), err.getvalue(), start, end)


@dataclass
class Pass:
    """The outcomes of one pass and the machine speed while it ran."""

    outcomes: list
    cal: Calibrator

    @property
    def factor(self) -> float:
        """Reference seconds per measured second over the whole pass."""
        return self.cal.factor()

    @property
    def wall(self) -> float:
        """Total request time, in reference seconds."""
        return sum(self.request_times())

    def request_times(self) -> list[float]:
        return [self.cal.factor_during(o.start, o.end) * o.seconds
                for o in self.outcomes]


def run_pass(cli, reqs, cal: Calibrator,
             tracer: Tracer | None = None) -> Pass:
    """Send the requests one after another while `cal` samples the
    machine's speed."""
    gc.collect()
    cal.sample(2)
    outcomes = []
    with cal.sampling():
        for i, argv in enumerate(reqs):
            if tracer is not None:
                tracer.begin_request(i, argv[0])
            outcomes.append(send(cli, argv, cal.clock))
    cal.sample(2)
    return Pass(outcomes, cal)


class Tally:
    """Attempted and failed requests, and the largest residual."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failures = []       # (argv, reason)
        self.max_residual = (0.0, None)

    def add(self, outcomes) -> None:
        for o in outcomes:
            v = gates.judge(o, self.golden)
            self.attempted += 1
            if not v.ok:
                self.failures.append((o.argv, v.reason))
            if v.abs_residual is not None and v.abs_residual > self.max_residual[0]:
                self.max_residual = (v.abs_residual, o.argv)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def report(self) -> None:
        print(f"attempted: {self.attempted}  failed: {self.failed}  "
              f"failed_frac: {self.failed / self.attempted:.4f} ratio")
        for argv, reason in self.failures:
            print(f"  FAILED: {' '.join(argv)}: {reason}")
        res, argv = self.max_residual
        if argv is not None:
            print(f"largest absolute eigen_residual: {res:.3e} "
                  f"({' '.join(argv)})")


def probe_defects(cli, golden: dict) -> None:
    """Send the known-defect requests once, untimed and uncounted, and
    print whether each still fails."""
    for argv in workloads.DEFECT_PROBES:
        v = gates.judge(send(cli, argv), golden)
        print(f"known-defect probe (not counted): {' '.join(argv)}: "
              + (f"still fails: {v.reason}" if not v.ok else "now passes"))


def run_untraced(cli, workload: str, seed: int, seconds: float,
                 tally: Tally) -> dict:
    setup_s = measure_setup()
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(cli, workloads.requests(workload, seed,
                                                       len(passes)),
                               Calibrator(ELASTICITY[workload])))
        tally.add(passes[-1].outcomes)
        if len(passes) == 1:
            # taken after the first pass, so that it does not depend on how
            # many passes fit in the run
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        t1 = time.perf_counter()
        if t1 - start + (t1 - t0) > seconds:
            break
    request_times = [t for p in passes for t in p.request_times()]
    print(f"passes: {len(passes)}  requests: {len(request_times)}  "
          f"measured wall: {[round(sum(o.seconds for o in p.outcomes), 3) for p in passes]} s  "
          f"speed factors: {[round(p.factor, 3) for p in passes]}")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "request_p50_s": statistics.median(request_times),
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, factor: float) -> dict:
    """Every per-layer metric the traced pass can give, by name; times are
    scaled by `factor` into reference seconds."""
    stats = tracer.function_stats(factor)
    c = tracer.counters
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.self_s"] = st["self_s"]
        if st["s"] is not None:
            out[f"{name}.s"] = st["s"]
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(st["self_s"] for n, st in stats.items()
                                   if n.startswith(mod + "."))
    # self time of every apply_* call, nested ones too, per amplitude that
    # enters the apply layer from outside it
    amps = c.get("repspace.apply.amps_in", 0)
    apply_self = sum(stats.get(f"repspace.{f}", {}).get("self_s", 0.0)
                     for f in APPLY_FUNCTIONS)
    out["repspace.apply.amps_in"] = amps
    out["repspace.apply.ns_per_amp"] = _ratio(apply_self * 1e9, amps)
    for key in ("logdomain.log_complex_sum.terms",
                "sphere.coherent_closed_form.amps_out",
                "circle.circle_coherent.coeffs_out"):
        out[key] = c.get(key, 0)
    out["sphere.builds_per_state"] = _ratio(
        c.get("sphere.builds_in_state", 0),
        stats.get("sphere.coherent_state", {}).get("calls", 0))
    out["sphere.expect_X.calls_per_report"] = _ratio(
        c.get("sphere.expect_X.in_report", 0), c.get("requests.sphere", 0))
    out["circle.builds_per_report"] = _ratio(
        c.get("circle.builds_in_report", 0), c.get("requests.circle", 0))
    return out


def _same_output(a: gates.Outcome, b: gates.Outcome) -> bool:
    return ((a.exit_code, a.exception, a.stdout, a.stderr)
            == (b.exit_code, b.exception, b.stdout, b.stderr))


def run_traced(cohstates, workload: str, seed: int, tally: Tally,
               per_layer_names) -> tuple[dict, bool]:
    reqs = workloads.requests(workload, seed, 0)
    plain = run_pass(cohstates.cli, reqs, Calibrator(ELASTICITY[workload]))
    cal = Calibrator(ELASTICITY[workload])
    tracer = Tracer(clock=cal.clock)
    tracer.install(cohstates)
    try:
        traced = run_pass(cohstates.cli, reqs, cal, tracer)
    finally:
        tracer.uninstall()
    tally.add(plain.outcomes)
    tally.add(traced.outcomes)
    differ = [o.argv for o, t in zip(plain.outcomes, traced.outcomes)
              if not _same_output(o, t)]
    for argv in differ:
        print(f"  traced output differs: {' '.join(argv)}")
    metrics = layer_metrics(tracer, traced.factor)
    metrics["trace.overhead_pct"] = 100.0 * (traced.wall / plain.wall - 1.0)
    print(f"traced output byte-identical: {not differ}  untraced "
          f"{plain.wall:.3f} s, traced {traced.wall:.3f} s (reference s)")
    missing = [n for n in per_layer_names if n not in metrics]
    for n in missing:  # a layer the workload never reaches reads 0
        metrics[n] = 0
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write_spans(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return metrics, not differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the tracer on fixed requests and exit")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cohstates = load_library()
    except (BenchError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main(cohstates, send)

    golden = json.loads(GOLDEN.read_text())
    tally = Tally(golden)
    cpu = pin_to_one_cpu()
    section = "per_layer" if args.trace else "end_to_end"
    wanted = spec[section]
    ok = True
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"trace: {args.trace}  cpu: {cpu}")
    try:
        if args.trace:
            values, ok = run_traced(cohstates, args.workload, args.seed, tally,
                                    [m["name"] for m in wanted])
        else:
            values = run_untraced(cohstates.cli, args.workload, args.seed,
                                  args.seconds, tally)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tally.report()
    if args.workload == "circle_sweep" and not args.trace:
        probe_defects(cohstates.cli, golden)
    metrics = {}
    for m in wanted:
        v = values[m["name"]]
        if not math.isfinite(v):
            print(f"perfbench: metric {m['name']} is {v}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']}: {v:.6g} {m['unit']}")
    print(json.dumps({"correct": ok and not tally.failed,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
