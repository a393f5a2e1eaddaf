"""Run one `degenrd` command in a fresh interpreter and record what it cost.

    python3 perfbench/job.py ROOT RECORD SPAWNED TRACE -- <degenrd args>

ROOT is the checkout (the package is imported from ROOT/src), RECORD the
JSON file to write, SPAWNED the CLOCK_MONOTONIC time at which the parent
started this process, and TRACE 1 to record a span for every layer target
(0 records only the probes below).  Probes, present in every run:

* `solver.run` as the CLI looks it up (`cli.run_sim`): time and
  cells x steps of each simulation, for `cell_steps_per_s`;
* the first call of `solver.step`, for `setup_s`; the probe then puts the
  callee back, so later steps run unwrapped;
* `cli._sweep_one`: a forked sweep worker leaves without running `atexit`,
  so after each sweep point it appends its buffer to RECORD.w<pid>.

Host-speed readings (`calibrate.Probes`, listed in RECORD as `probes`) are
taken after the imports and after the command.  Untraced runs also take
them at the first time step, before the audit, and every PERIOD_S (on
SIGALRM); in a sweep, the workers take them, before, during and after each
point, and add them to their buffers.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402
import tracing  # noqa: E402

PERIOD_S = 0.5


def _cell_steps(rec):
    def on_result(args, run, t0, t1):
        nsteps = round(run.config.t_end / run.dt)
        rec.events.append({"run": [t0, t1],
                           "cell_steps": run.grid.ncells * nsteps})
    return on_result


def _first_step(rec, owner, attr, probe):
    def make(fn):
        @functools.wraps(fn)
        def step(*args, **kwargs):
            setattr(owner, attr, fn)
            rec.events.append({"first_step": tracing.clock()})
            probe()
            return fn(*args, **kwargs)
        return step
    return make


def _probe_before(probe):
    def make(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            probe()
            return fn(*args, **kwargs)
        return call
    return make


def _read_every(period: float, probes) -> None:
    """Take a reading every `period` s in this process; 0 stops it."""
    if period:
        signal.signal(signal.SIGALRM, probes.take)
    signal.setitimer(signal.ITIMER_REAL, period, period)


def _flushing(rec, record: str, probes, probe, period: float):
    def make(fn):
        # keeps the name, so the pool pickles the wrapper by reference
        @functools.wraps(fn)
        def sweep_one(*args, **kwargs):
            probe()
            _read_every(period, probes)
            try:
                return fn(*args, **kwargs)
            finally:
                _read_every(0, probes)
                probe()
                rec.events.append({"probes": probes.drain()})
                rec.flush(f"{record}.w{os.getpid()}")
        return sweep_one
    return make


def _weight_fields_key(rec):
    def on_result(args, out, t0, t1):
        params, grid = args[0], args[1]
        rec.events.append({"weight_fields": f"{os.getpid()}:{id(grid)}:"
                                            f"{params!r}"})
    return on_result


def main(argv: list[str]) -> int:
    t_start = tracing.clock()
    root, record, spawned, trace = argv[0], argv[1], float(argv[2]), \
        argv[3] == "1"
    cli_args = argv[argv.index("--") + 1:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import degenrd.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"degenrd imported from {cli.__file__}, "
                          f"not from {src}")
    import degenrd.solver as solver
    t_imported = tracing.clock()
    probes = calibrate.Probes()
    probes.take()
    # readings inside the command would fall in spans: untraced runs only;
    # there also every PERIOD_S, so that long phases are read too, except
    # in a sweep's main process, which waits while its workers run
    mid_probe = probes.take if not trace else (lambda: None)
    period = PERIOD_S if not trace else 0

    rec = tracing.Recorder()
    os.register_at_fork(after_in_child=rec.reset_after_fork)
    os.register_at_fork(after_in_child=probes.drain)
    if trace:
        rec.install(hooks={"weights.weight_fields": _weight_fields_key(rec)})
    rec.patch("degenrd.cli", "run_sim",
              lambda fn: rec.wrap(fn, "solver.run",
                                  on_result=_cell_steps(rec)), "solver.run")
    rec.patch("degenrd.solver", "step",
              _first_step(rec, solver, "step", mid_probe), "solver.step")
    if not trace:
        rec.patch("degenrd.cli", "audit", _probe_before(mid_probe),
                  "verify.audit")
    rec.patch("degenrd.cli", "_sweep_one",
              lambda fn: _flushing(rec, record, probes, mid_probe, period)(
                  rec.wrap(fn, "cli._sweep_one") if trace else fn),
              "cli._sweep_one")

    if cli_args[:1] != ["sweep"]:
        _read_every(period, probes)
    error = None
    t_main = tracing.clock()
    try:
        code = rec.wrap(cli.main, "cli.main")(cli_args)
    except Exception:                     # a raw traceback is a failure
        error = traceback.format_exc(limit=-3)
        code = 1
    t_end = tracing.clock()
    _read_every(0, probes)
    probes.take()

    buffered = rec.take()
    spans, events = buffered["spans"], buffered["events"]
    spans.append(((rec.pid, -1), None, "interpreter.start", spawned, t_start))
    spans.append(((rec.pid, -2), None, "cli.import", t_start, t_imported))
    covered = sum(a["self_s"] for a in tracing.self_times(spans).values())
    for name in os.listdir(os.path.dirname(record)):
        path = os.path.join(os.path.dirname(record), name)
        if name.startswith(os.path.basename(record) + ".w"):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    part = json.loads(line)
                    spans += part["spans"]
                    events += part["events"]
            os.remove(path)
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    doc = {
        "exit": code, "error": error, "spawned": spawned,
        "main_s": t_end - t_main,
        "probes": probes.readings,
        "children_cpu_s": kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "missing": rec.missing,
        "events": events,
        # per span name, over this process and its sweep workers
        "layers": tracing.self_times(spans) if trace else {},
        # time covered by this process's own spans (workers excluded)
        "covered_s": covered,
    }
    rec.restore()
    doc["done"] = tracing.clock()          # the rest is interpreter exit
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
