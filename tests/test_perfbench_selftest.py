"""The benchmark's tracer self-test, run against the library as it stands.

It pins what ``perfbench/selftest.py`` checks, which no unit test watches:

* a traced request prints byte for byte what the untraced one prints, for
  the sphere report ``sphere --x 0,0,1 --l 0,0,0`` and the README circle
  example; the tracer's hooks read the lengths of
  ``coherent_closed_form(...).amplitudes``, ``circle_coherent(...).coeffs``
  and the ``amplitudes`` of an ``apply_*`` input, so each must exist;
* the tracer's call count of every wrapped function equals the count
  ``sys.setprofile`` takes of the same code object, on those two requests;
* that sphere report makes 4 ``coherent_closed_form`` calls (the state and
  ``relative_X``'s three axis references) and 6 ``expect_X`` calls;
* that circle report makes 7 ``circle_coherent`` calls;
* the README sphere and rotator examples never reach the ``spinor``
  module;
* ``repspace.apply.amps_in`` counts the input of ``apply_X("X1", s)`` once
  over its 3 ``apply_X`` calls, although ``X1`` calls ``apply_X`` for
  ``Xplus`` and ``Xminus``.
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
