"""Print sha256 digests of the outputs that a change meant to keep every
output byte-identical must leave alone.

    python .github/digest.py

Pass 0 of the sphere_report, circle_sweep and verify workloads
(perfbench/workloads.py), at seeds 0 and 1, is sent through
cohstates.cli.main in this process, once as the workload writes it (JSON)
and once with --format csv appended: 596 requests.  Each of the first 12
lines is the sha256 of the (exit code, stdout, stderr) of every request of
one (workload, seed, format), in order.  The last two are the sha256 of the
report `sphere --x 0,0,1 --l 355,0,0` writes, the largest label the CLI
accepts, in each format.  Two checkouts print the same lines exactly when
all of those outputs are the same; the script imports the cohstates in its
own checkout's src.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cohstates import cli  # noqa: E402
from workloads import WORKLOADS, requests  # noqa: E402

SEEDS = (0, 1)
FORMATS = {"json": [], "csv": ["--format", "csv"]}
LARGEST = ["sphere", "--x", "0,0,1", "--l", "355,0,0"]


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one request through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:    # argparse's exit on a malformed request
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest_lines(groups) -> list[str]:
    """One line per (name, requests) group: its name, its request count and
    the sha256 of its requests' outputs, each written as one JSON line."""
    lines = []
    for name, reqs in groups:
        h = hashlib.sha256()
        for argv in reqs:
            h.update(json.dumps(run(argv)).encode() + b"\n")
        lines.append(f"{name} ({len(reqs)} requests) {h.hexdigest()}")
    return lines


def workload_groups():
    for workload in WORKLOADS:
        for seed in SEEDS:
            for fmt, extra in FORMATS.items():
                yield (f"{workload} seed {seed} {fmt}",
                       [argv + extra for argv in requests(workload, seed, 0)])


def main() -> int:
    for line in digest_lines(workload_groups()):
        print(line, flush=True)
    for fmt, extra in FORMATS.items():
        code, out, err = run(LARGEST + extra)
        print(f"{' '.join(LARGEST)} {fmt}: exit {code}, stderr {err!r}, "
              f"stdout {hashlib.sha256(out.encode()).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
