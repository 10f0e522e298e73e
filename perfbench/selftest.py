"""Self-test of the tracer on fixed requests.

    python3 perfbench/run.py --self-test

Checks, with the library as it stands:

* a traced request prints byte for byte what the untraced one prints;
* the tracer's call count of every wrapped function equals an independent
  count of calls to the same code object taken with ``sys.setprofile``;
* one sphere report makes 4 ``coherent_closed_form`` and 6 ``expect_X``
  calls, and one circle report makes 7 ``circle_coherent`` calls (the call
  structure of the library when the benchmark was defined; a change that
  alters it updates these numbers);
* the README's sphere and rotator examples, which make up the fixed part of
  ``sphere_report``, never reach the ``spinor`` module;
* ``repspace.apply.amps_in`` counts the input of ``apply_X("X1", s)`` once,
  although ``X1`` calls ``apply_X`` for ``Xplus`` and ``Xminus``.
"""

from __future__ import annotations

import sys
from collections import Counter

import workloads
from tracer import Tracer

FIXED_SPHERE = ["sphere", "--x", "0,0,1", "--l", "0,0,0"]
PINNED_CALLS = (
    (FIXED_SPHERE, {"sphere.coherent_closed_form": 4, "sphere.expect_X": 6}),
    (workloads.README_CIRCLE, {"circle.circle_coherent": 7}),
)


def _traced(cohstates, send, reqs):
    tracer = Tracer()
    tracer.install(cohstates)
    try:
        outcomes = [send(cohstates.cli, argv) for argv in reqs]
    finally:
        tracer.uninstall()
    return tracer, outcomes


def _profiled_calls(cohstates, send, argv) -> Counter:
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        send(cohstates.cli, argv)
    finally:
        sys.setprofile(None)
    return calls


def main(cohstates, send) -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    for argv, pinned in PINNED_CALLS:
        label = " ".join(argv)
        plain = send(cohstates.cli, argv)
        tracer, (traced,) = _traced(cohstates, send, [argv])
        check((plain.exit_code, plain.stdout, plain.stderr)
              == (traced.exit_code, traced.stdout, traced.stderr),
              f"traced output byte-identical: {label}")
        stats = tracer.function_stats()
        profiled = _profiled_calls(cohstates, send, argv)
        wrong = [name for name, fn in tracer.functions.items()
                 if stats.get(name, {"calls": 0})["calls"]
                 != profiled[fn.__code__]]
        check(not wrong, f"tracer call counts match sys.setprofile: {label}"
              + (f" (differ: {', '.join(wrong)})" if wrong else ""))
        for name, n in pinned.items():
            got = stats.get(name, {"calls": 0})["calls"]
            check(got == n, f"{name} calls = {got} (expected {n}): {label}")

    readme = [workloads.README_SPHERE, *workloads.README_ROTATORS]
    tracer, _ = _traced(cohstates, send, readme)
    spinor = {n: st["calls"] for n, st in tracer.function_stats().items()
              if n.startswith("spinor.")}
    check(not spinor, f"spinor is idle on the README sphere/rotator requests"
          + (f" (called: {spinor})" if spinor else ""))
    state = cohstates.repspace.state_sum(
        [cohstates.repspace.basis_state(j, 0, 4) for j in (1, 2, 3)])
    tracer = Tracer()
    tracer.install(cohstates)
    try:
        cohstates.repspace.apply_X("X1", state)
    finally:
        tracer.uninstall()
    amps = tracer.counters.get("repspace.apply.amps_in", 0)
    x_calls = tracer.function_stats()["repspace.apply_X"]["calls"]
    check(amps == len(state.amplitudes) and x_calls == 3,
          f"repspace.apply.amps_in = {amps} over {x_calls} apply_X calls "
          f"(expected {len(state.amplitudes)} over 3) for apply_X X1")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0
