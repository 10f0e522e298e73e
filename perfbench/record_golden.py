"""Record the golden expectation fields for seed 0.

    python3 perfbench/record_golden.py

Runs pass 0 of sphere_report and circle_sweep at seed 0 and writes the
fields listed in ``gates.GOLDEN_FIELDS`` of every successful report to
``golden_seed0.json``.  The committed file was recorded at the commit that
added the benchmark; re-recording it replaces the reference values.
"""

from __future__ import annotations

import json

import gates
import run
import workloads


def main() -> int:
    cli = run.load_library().cli
    golden = {}
    for workload in ("sphere_report", "circle_sweep"):
        for o in run.run_pass(cli, workloads.requests(workload, 0, 0),
                              run.Calibrator()).outcomes:
            kind = o.argv[0]
            if o.exception is None and o.exit_code == 0 and kind in gates.GOLDEN_FIELDS:
                golden[gates.golden_key(o.argv)] = gates.golden_fields(
                    kind, json.loads(o.stdout))
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} reports written to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
