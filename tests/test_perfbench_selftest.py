"""The benchmark's tracer self-test, run against the library as it stands.

It pins call structure no unit test watches: the number of
``circle_coherent`` calls per circle report, the lengths the tracer reads
from ``circle_coherent(...).coeffs`` and ``StateVector.amplitudes``, and the
three ``apply_X`` calls behind ``apply_X("X1", s)``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
