"""Spans recorded from outside the program, by wrapping public functions.

Each target is a name that a caller looks up at call time (a module global
or a class attribute).  `Recorder.install` replaces it with a wrapper that
records a span ``(id, parent, name, start, end)`` and `Recorder.restore`
puts the original object back.  A target whose owner or attribute no
longer exists is listed in `Recorder.missing` and never reported as zero.

Clock: `time.monotonic`, which on Linux reads CLOCK_MONOTONIC; that clock
is shared by all processes, so a start time taken in the benchmark's
parent process can be compared with one taken in a job or sweep worker.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

clock = time.monotonic

# (owner, attribute, span name).  The owner is the module or class in which
# the caller looks the name up, so that `from .x import f` call sites are
# covered; one span name may have several call sites.  `solver.run` (looked
# up by the CLI as `run_sim`) is not listed: the job wraps it in every run,
# traced or not, because `cell_steps_per_s` needs its time.
LAYER_TARGETS = [
    ("degenrd.cli", "save_run", "cli.save_run"),
    ("degenrd.cli", "load_run", "cli.load_run"),
    ("degenrd.cli", "build_grid", "grid.build_grid"),
    ("degenrd.cli", "build_ledger", "constants.build_ledger"),
    ("degenrd.cli", "audit", "verify.audit"),
    ("degenrd.cli", "solver_checks", "diagnostics.solver_checks"),
    ("degenrd.solver", "build_grid", "grid.build_grid"),
    ("degenrd.solver", "step", "solver.step"),
    ("degenrd.solver.Stepper", "__init__", "solver.Stepper"),
    ("degenrd.solver.CatalystSpec", "values", "solver.CatalystSpec.values"),
    ("degenrd.constants", "geometry_constants", "weights.geometry_constants"),
    ("degenrd.constants", "neumann_eigenvalue_1", "grid.neumann_eigenvalue_1"),
    ("degenrd.constants", "compute_sobolev_constant",
     "constants.compute_sobolev_constant"),
    ("degenrd.constants", "compute_analysis_constants",
     "constants.compute_analysis_constants"),
    ("degenrd.constants", "compute_chain", "constants.compute_chain"),
    ("degenrd.verify", "solver_checks", "diagnostics.solver_checks"),
    ("degenrd.verify", "tilted_form_checks", "verify.tilted_form_checks"),
    ("degenrd.verify", "beta1_chain_check", "verify.beta1_chain_check"),
    ("degenrd.verify", "frequency_trace", "logconv.frequency_trace"),
    ("degenrd.verify", "observation_estimate_check",
     "logconv.observation_estimate_check"),
    ("degenrd.verify", "interpolation_window_check",
     "logconv.interpolation_window_check"),
    ("degenrd.verify", "weight_fields", "weights.weight_fields"),
    ("degenrd.logconv", "weight_fields", "weights.weight_fields"),
]

# Each callable that `Stepper.__init__` stores in `self.solve` (what
# `scipy.sparse.linalg.factorized` returns) is wrapped under this name.
LINEAR_SOLVE = "solver.linear_solve"


def resolve(owner: str):
    """Import `owner` ("pkg.module" or "pkg.module.Class"); None if absent."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Recorder:
    """Span buffer and the wrappers that fill it, for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.events: list[dict] = []
        self.stack: list[tuple] = []
        self.missing: list[tuple[str, str]] = []   # (target, span name)
        self._installed: list[tuple] = []
        self._next = 0
        self.pid = os.getpid()

    def reset_after_fork(self) -> None:
        """In a forked child: drop the parent's open spans and buffer."""
        self.spans, self.events, self.stack = [], [], []
        self.pid = os.getpid()

    def wrap(self, fn, name: str, on_result=None):
        """Return `fn` wrapped so each call records a span called `name`."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec.stack
            parent = stack[-1] if stack else None
            rec._next += 1
            sid = (rec.pid, rec._next)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec.spans.append((sid, parent, name, t0, t1))
            if on_result is not None:
                on_result(args, out, t0, t1)
            return out
        return traced

    def patch(self, owner: str, attr: str, make, name: str) -> bool:
        """Replace `owner.attr` by `make(original)`; False if it is absent.

        An absent target is listed in `missing` with the span `name` whose
        figures it makes incomplete.
        """
        obj = resolve(owner)
        original = vars(obj).get(attr) if obj is not None else None
        if original is None:
            self.missing.append((f"{owner}.{attr}", name))
            return False
        self._installed.append((obj, attr, original))
        setattr(obj, attr, make(original))
        return True

    def install(self, targets=LAYER_TARGETS, hooks=None) -> None:
        """Wrap every target; a Stepper target also wraps its solves.

        `hooks` maps a span name to an ``on_result(args, out, t0, t1)``
        callback for `wrap`.
        """
        hooks = hooks or {}
        for owner, attr, name in targets:
            def make(fn, name=name):
                if name == "solver.Stepper":
                    fn = self._stepper(fn)
                return self.wrap(fn, name, on_result=hooks.get(name))
            self.patch(owner, attr, make, name)

    def _stepper(self, init):
        rec = self

        @functools.wraps(init)
        def stepper_init(stepper, *args, **kwargs):
            init(stepper, *args, **kwargs)
            stepper.solve = [rec.wrap(s, LINEAR_SOLVE) for s in stepper.solve]
        return stepper_init

    def restore(self) -> None:
        """Put every wrapped original back, newest wrapper first."""
        while self._installed:
            obj, attr, original = self._installed.pop()
            setattr(obj, attr, original)

    def take(self) -> dict:
        """Return and clear the buffered spans and events."""
        out = {"spans": self.spans, "events": self.events}
        self.spans, self.events = [], []
        return out

    def flush(self, path: str) -> None:
        """Append the buffer to `path` as one JSON line and clear it."""
        data = self.take()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(data) + "\n")


def self_times(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Spans are ``(id, parent, name, start, end)``
    with ids ``(pid, n)``, as tuples or as lists read back from JSON.
    """
    children: dict = {}
    for sid, parent, name, t0, t1 in spans:
        if parent is not None:
            children.setdefault(tuple(parent), []).append((t0, t1))
    out: dict = {}
    for sid, parent, name, t0, t1 in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(tuple(sid), [])):
            c0, c1 = max(c0, end, t0), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - covered
    return out
