"""Per-module tracing of the cohstates library, from outside the library.

Every public function of every cohstates module is replaced, at each module
attribute that holds it, by a wrapper that records a span (name, start, end,
parent span, request).  Callers that look the function up through any
module's globals, e.g. ``cohstates.cli.coherent_state`` or
``cohstates.spinor.state_sum``, therefore go through the wrapper.

Spans live in memory and are written out when the run ends.  The per-layer
metrics are computed from them:

* ``<module>.<function>.calls``: number of calls;
* ``<module>.<function>.s``: inclusive time, counting only the outermost span
  of a function when it recurses into itself;
* ``<module>.<function>.self_s``: inclusive time minus the time covered by
  its direct child spans;
* ``<module>.self_s``: the module's total self time.

Only module-level functions are wrapped.  The methods of
``logdomain.LogComplex``, the library's per-scalar value type (its
constructor, arithmetic operators, ``is_zero`` and the ``from_*``
builders), run untraced, so their time counts as self time of the layer
that calls them: ``repspace``, ``sphere`` and ``circle`` above all.  A
faster LogComplex therefore shows as a gain in those layers' ``self_s``,
not in ``logdomain.self_s``, which covers ``log_complex_sum``,
``wrap_phase`` and the other module functions.  They are left unwrapped
because they are too small to time one by one: a sphere report at
|l| = 12 makes about 1.5 million LogComplex method calls, and wrapping them
made that report's traced run 3.6 times as long as its untraced one.

Functions of the two leaf modules, ``logdomain`` and ``specfun``, are called
millions of times by ``verify``.  Their calls are folded into running totals
at the parent span instead of being stored one by one; their time still
counts as child time of the parent.

``repspace.apply.amps_in`` counts the amplitudes entering an ``apply_*``
call that no other ``apply_*`` call encloses, so an operator built from
others (``apply_X("X1", s)`` calls ``apply_X`` twice more) counts its input
once.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Callable

MODULES = ("logdomain", "specfun", "repspace", "spinor", "sphere", "rotator",
           "circle", "checks", "cli")
LEAF_MODULES = frozenset({"logdomain", "specfun"})

APPLY_FUNCTIONS = ("apply_J", "apply_X", "apply_Z", "apply_Z_vector_form")


def _public_functions(mod) -> dict:
    """Functions defined in `mod` that callers outside it may use."""
    names = set(getattr(mod, "__all__", ()))
    short = mod.__name__.rsplit(".", 1)[1]
    if short == "cli":
        names = {"main"}
    if short == "checks":
        names |= {n for n in vars(mod) if n.startswith("check_")}
    out = {}
    for n in sorted(names):
        fn = getattr(mod, n, None)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            out[n] = fn
    return out


@dataclass(slots=True)
class _Frame:
    span_id: int
    child_s: float = 0.0    # time covered by direct child spans


@dataclass
class Tracer:
    """Span recorder; `install` patches the package, `uninstall` restores it."""

    # (id, parent id, request, name, start, end, child_s, outermost)
    spans: list = field(default_factory=list)
    leaf: dict = field(default_factory=dict)      # name -> [calls, self_s]
    counters: dict = field(default_factory=dict)  # name -> number
    functions: dict = field(default_factory=dict)  # name -> original function
    clock: Callable[[], float] = time.perf_counter
    request_id: int = -1
    request_kind: str = ""
    _stack: list = field(default_factory=list)
    _active: dict = field(default_factory=dict)   # name -> open spans of that name
    _patches: list = field(default_factory=list)
    _next_id: int = 0

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        mods = [importlib.import_module(f"{package.__name__}.{m}")
                for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for n, fn in _public_functions(mod).items():
                self.functions[f"{short}.{n}"] = fn
                wrappers[fn] = self._wrap(f"{short}.{n}", fn,
                                          short in LEAF_MODULES)
        for mod in [package, *mods]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def begin_request(self, request_id: int, kind: str) -> None:
        self.request_id = request_id
        self.request_kind = kind
        self._count(f"requests.{kind}")

    def _count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name: str, fn, leaf: bool):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)
        stack = self._stack
        active = self._active
        clock = self.clock

        if leaf:
            totals = self.leaf.setdefault(name, [0, 0.0])

            def traced_leaf(*args, **kwargs):
                if hook is not None:
                    hook(args)
                frame = _Frame(-1)
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    totals[0] += 1
                    totals[1] += dur - frame.child_s
                    if stack:
                        stack[-1].child_s += dur

            traced_leaf.__wrapped__ = fn
            return traced_leaf

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            self._next_id += 1
            frame = _Frame(self._next_id)
            parent = stack[-1].span_id if stack else 0
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1].child_s += t1 - t0
                span_name = name
                if name.startswith("checks.check_") and result is not None:
                    span_name = "checks." + result.name
                self.spans.append((frame.span_id, parent, self.request_id,
                                   span_name, t0, t1, frame.child_s,
                                   active[name] == 0))
                if post is not None and result is not None:
                    post(result)

        traced.__wrapped__ = fn
        return traced

    # -- counters at layer boundaries ---------------------------------------

    def _hook_logdomain_log_complex_sum(self, args):
        self._count("logdomain.log_complex_sum.terms", len(args[0]))

    def _apply_hook(self, args):
        if not any(self._active.get(n) for n in self._apply_names):
            self._count("repspace.apply.amps_in", len(args[1].amplitudes))

    _apply_names = tuple(f"repspace.{f}" for f in APPLY_FUNCTIONS)

    _hook_repspace_apply_J = _apply_hook
    _hook_repspace_apply_X = _apply_hook
    _hook_repspace_apply_Z = _apply_hook
    _hook_repspace_apply_Z_vector_form = _apply_hook

    def _hook_sphere_coherent_closed_form(self, args):
        if self._active.get("sphere.coherent_state"):
            self._count("sphere.builds_in_state")

    def _hook_sphere_expect_X(self, args):
        if self.request_kind == "sphere":
            self._count("sphere.expect_X.in_report")

    def _hook_circle_circle_coherent(self, args):
        if self.request_kind == "circle":
            self._count("circle.builds_in_report")

    def _post_sphere_coherent_closed_form(self, result):
        self._count("sphere.coherent_closed_form.amps_out",
                    len(result.amplitudes))

    def _post_circle_circle_coherent(self, result):
        self._count("circle.circle_coherent.coeffs_out", len(result.coeffs))

    # -- results ------------------------------------------------------------

    def function_stats(self, factor: float = 1.0) -> dict:
        """name -> {calls, s, self_s} over every recorded call, with the
        times multiplied by `factor`."""
        stats = {}
        for _, _, _, name, t0, t1, child_s, outermost in self.spans:
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += factor * ((t1 - t0) - child_s)
            if outermost:
                st["s"] += factor * (t1 - t0)
        for name, (calls, self_s) in self.leaf.items():
            if calls:
                stats[name] = {"calls": calls, "s": None,
                               "self_s": factor * self_s}
        return stats

    def write_spans(self, path) -> None:
        """Write the stored spans as gzipped JSON lines, one span each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, req, name, t0, t1, child_s, _ in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "request": req, "name": name,
                                     "start": t0, "end": t1,
                                     "child_s": child_s}) + "\n")
            fh.write(json.dumps({"leaf_totals": self.leaf}) + "\n")
