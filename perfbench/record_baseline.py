"""Run every workload over two sets of seeds and record the figures.

    python3 perfbench/record_baseline.py --seeds 1-10 --repeat-seeds 11-20 \
        --out perfbench/baseline.json

For each workload of ``BENCHMARK.json``, and for each of the two seed sets,
runs ``run.py --trace 0`` once per seed and one ``run.py --trace 1`` at the
set's first seed, one after another, and writes:

* per end-to-end metric, every run's value, the median, the quartiles
  (``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median;
* from the traced run, each module's share of the summed self time and the
  tracing overhead;
* under ``repeat``, the same for the second set, and how far each median
  moved from the first set's (second / first - 1);
* the machine and versions: nproc, Python, numpy, and the commit checked
  out (the library is always imported from this checkout's ``src``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}",
          flush=True)
    return result


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def _commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _record_set(spec: dict, workload: str, seeds: list[int]) -> dict:
    runs = [_run(workload, s, spec["run_seconds"], 0) for s in seeds]
    traced = _run(workload, seeds[0], spec["run_seconds"], 1)
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    self_total = sum(layer[f"{m}.self_s"] for m in MODULES)
    return {
        "all_correct": all(r["correct"] for r in runs + [traced]),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "end_to_end": {
            m["name"]: _summary([r["metrics"][m["name"]]["value"]
                                 for r in runs])
            for m in spec["end_to_end"]},
        "traced": {
            "seed": seeds[0],
            "self_s_total": self_total,
            "self_time_share": {m: layer[f"{m}.self_s"] / self_total
                                for m in MODULES},
            "overhead_pct": layer["trace.overhead_pct"],
            "per_layer": layer,
        },
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--repeat-seeds", type=_seeds, default=_seeds("11-20"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    import numpy
    report = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
        "repeat": {
            "about": "A second set of runs of the same code on other seeds, "
                     "to show how far the medians of two sets move.",
            "seeds": args.repeat_seeds,
            "workloads": {},
        },
    }
    for key, seeds in (("workloads", args.seeds),
                       ("repeat", args.repeat_seeds)):
        for w in spec["workloads"]:
            name = w["name"]
            got = _record_set(spec, name, seeds)
            if key == "workloads":
                report["workloads"][name] = got
            else:
                first = report["workloads"][name]["end_to_end"]
                got["median_change"] = {
                    m: s["median"] / first[m]["median"] - 1.0
                    for m, s in got["end_to_end"].items()}
                report["repeat"]["workloads"][name] = got
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
