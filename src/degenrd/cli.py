"""Command-line entry point.

Subcommands: simulate, verify, constants, interp-check, sweep, plot-data.
Exit codes: 0 success, 1 usage/config error, 2 numerical failure or a
malformed run-directory file, 3 invariant/verification failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from .config import FORMAT_VERSION, ConfigError, RunConfig, load_config, \
    parse_config
from .constants import build_ledger
from .diagnostics import TraceSeries, fit_decay_rate, nearest_index, \
    solver_checks
from .grid import build_grid, Domain
from .logconv import InterpInput, interp_check, read_times
from .solver import RunResult, init_state, run as run_sim, step_plan
from .verify import audit

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_INVARIANT = 0, 1, 2, 3


def _g(x: float) -> str:
    return "%.17g" % float(x)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_trace_csv(path: Path, trace: TraceSeries) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", *trace.channels])
        for i in range(trace.times.size):
            row = [_g(trace.times[i])]
            row += [_g(trace[c][i]) for c in trace.channels]
            w.writerow(row)


class MalformedFile(ValueError):
    """A file of a run directory that cannot be read back (exit 2)."""


@contextmanager
def _reading(path: Path, error=MalformedFile):
    """Yield `path`; re-raise an error of reading it as `error` naming it."""
    try:
        yield path
    except (ValueError, KeyError, IndexError, TypeError, BadZipFile) as exc:
        raise error(f"{path} is malformed ({type(exc).__name__}: {exc})") \
            from exc


def _read_columns(path: Path, error=MalformedFile) -> dict[str, np.ndarray]:
    """The columns of a CSV file, a header row over rows of numbers."""
    with _reading(path, error), \
            open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
        header, data = rows[0], np.array(rows[1:], dtype=float)
        if data.ndim != 2 or data.shape[1] != len(header):
            raise ValueError("not a header over rows of as many numbers")
    return dict(zip(header, data.T))


def _read_trace_csv(path: Path) -> TraceSeries:
    col = _read_columns(path)
    with _reading(path):
        return TraceSeries(col.pop("t"), col)


def save_run(run: RunResult, rc: RunConfig, out_dir: Path) -> dict:
    """Persist a finished run; returns the summary dict."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json",
                {"format_version": FORMAT_VERSION, "config": rc.raw})
    _write_trace_csv(out_dir / "trace.csv", run.trace)
    np.savez(out_dir / "fields.npz", times=run.snapshot_times,
             a=run.snapshots[:, 0], b=run.snapshots[:, 1],
             dim=run.grid.domain.dim, resolution=run.config.resolution)
    try:
        fit = fit_decay_rate(run.trace, "l2_dist")
    except ValueError:
        fit = None
    checks = [c.as_dict() for c in solver_checks(run)]
    summary = {
        "format_version": FORMAT_VERSION,
        "label": rc.label,
        "config": rc.raw,
        "grid": run.grid.summary(),
        "dt": run.dt,
        "B0": run.B0,
        "decay_fit": fit,
        "invariant_flags": [c["invariant_id"] for c in checks
                            if not c["pass"]],
        "checks": checks,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def load_run(run_dir: Path) -> tuple[RunResult, RunConfig]:
    """Reload a persisted run directory into an in-memory RunResult.

    Raises MalformedFile naming the file when one is malformed, fields.npz
    included when its snapshots are not finite or not one per grid cell.
    """
    run_dir = Path(run_dir)
    with _reading(run_dir / "config.json") as path:
        rc = parse_config(json.loads(path.read_text())["config"])
    with _reading(run_dir / "summary.json") as path:
        summary = json.loads(path.read_text())
        B0, dt = float(summary["B0"]), float(summary["dt"])
    grid = build_grid(Domain(rc.sim.dim), rc.sim.resolution)
    trace = _read_trace_csv(run_dir / "trace.csv")
    # a file of our own: np.load leaves its handle open on a bad zip
    with _reading(run_dir / "fields.npz") as path, open(path, "rb") as fh, \
            np.load(fh) as npz:
        times, a, b = npz["times"], npz["a"], npz["b"]
    shape = (times.size, grid.ncells)
    if a.shape != shape or b.shape != shape \
            or not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise MalformedFile(f"{path} is malformed (the snapshots must be "
                            f"finite, with {grid.ncells} cells each)")
    return RunResult(config=rc.sim, grid=grid, trace=trace,
                     snapshot_times=times,
                     snapshots=np.stack([a, b], axis=1),
                     B0=B0, dt=dt), rc


def _ledger(rc: RunConfig, grid, u0, B0: float):
    """The constant ledger of a config for the initial state u0 = (a0, b0).

    Raises ConfigError for a catalyst floor k0 = 0 (pure diffusion), for
    which the ledger's beta1 = max(..., 1/(8*B0*k0)) is undefined.
    """
    cat = rc.sim.catalyst
    if cat.k0 == 0:
        raise ConfigError("catalyst.k0 = 0 has no constant ledger (beta1 "
                          "needs 1/(8*B0*k0)); constants and a full verify "
                          "need catalyst.k0 > 0")
    return build_ledger(grid, rc.weights, *u0, B0, k0=cat.k0,
                        k_sup=cat.k_max, d1=rc.sim.d1, d2=rc.sim.d2,
                        T=rc.weights.T)


def _output(path: str, directory: bool) -> Path:
    """`path`, checked before the work: a directory to make with parents,
    or a file in an existing directory.  Raises OSError naming it."""
    path = Path(path)
    if directory:
        base = next(p for p in (path, *path.parents) if p.exists())
        if not base.is_dir():
            raise OSError(f"output {path}: {base} is not a directory")
    elif path.is_dir() or not path.parent.is_dir():
        raise OSError(f"output {path}: a directory, or not in one")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    rc = load_config(args.config)            # parse before touching disk
    out_dir = _output(args.output, directory=True)
    # the sparse solver's import is paid here, not inside solver.run
    import scipy.sparse.linalg  # noqa: F401
    run = run_sim(rc.sim)
    save_run(run, rc, out_dir)
    return EXIT_OK


def cmd_verify(args) -> int:
    run, rc = load_run(Path(args.run_dir))
    if args.quick:
        entries = audit(run)
    else:
        times = read_times(rc.weights.T)
        missing = [t for t in times
                   if nearest_index(run.snapshot_times, t) is None]
        if missing:
            raise ConfigError(
                f"full verify reads snapshots at t = {times}, set by "
                f"weights.T, and this run has none near t = {missing}; "
                f"put them on the stepper.field_stride grid")
        ledger = _ledger(rc, run.grid, run.snapshots[0], run.B0)
        entries = audit(run, ledger=ledger, params=rc.weights)
    report = {"format_version": FORMAT_VERSION, "checks": entries,
              "pass": all(e["pass"] for e in entries)}
    _write_json(Path(args.run_dir) / "verification.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_INVARIANT


def cmd_constants(args) -> int:
    rc = load_config(args.config)
    out = args.output and _output(args.output, directory=False)
    grid = build_grid(Domain(rc.sim.dim), rc.sim.resolution)
    u, B0 = init_state(grid, rc.sim)
    step_plan(grid, rc.sim, u)               # the config must simulate
    ledger = _ledger(rc, grid, u, B0)
    doc = {"format_version": FORMAT_VERSION, "ledger": ledger.as_json()}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_interp_check(args) -> int:
    col = _read_columns(Path(args.series), ConfigError)
    for need in ("t", "y", "N"):
        if need not in col:
            raise ConfigError(f"{args.series} has no {need!r} column")
    n = col["t"].size
    inp = InterpInput(
        times=col["t"], y=col["y"], N=col["N"],
        F1=col.get("F1", np.full(n, args.F1)),
        F2=col.get("F2", np.full(n, args.F2)),
        C0=args.C0, C1=args.C1, h=args.h, T=args.T,
        t1=args.t1, t2=args.t2, t3=args.t3)
    report = interp_check(inp)
    report["format_version"] = FORMAT_VERSION
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_INVARIANT


_SWEEPABLE = {
    "d1": ("physics", "d1"),
    "d2": ("physics", "d2"),
    "k0": ("catalyst", "k0"),
    "x0": ("catalyst", "x0"),
    "r": ("catalyst", "r"),
}


def _sweep_one(payload):
    rc, out_dir, param, value = payload
    fit = save_run(run_sim(rc.sim), rc, Path(out_dir))["decay_fit"] \
        or {"rate": 0.0, "r_squared": 0.0}
    return {"param": param, "value": value, "beta_obs": fit["rate"],
            "r_squared": fit["r_squared"]}


def cmd_sweep(args) -> int:
    rc = load_config(args.config)
    if args.param not in _SWEEPABLE:
        raise ConfigError(
            f"sweepable parameters are {sorted(_SWEEPABLE)}; "
            f"got {args.param!r}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1; got {args.jobs}")
    section, key = _SWEEPABLE[args.param]
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {exc}") from exc
    for i, v in enumerate(values):           # one output directory per value
        if v in values[:i]:
            raise ConfigError(f"--values repeats {_g(v)}")
    points = []                              # every point parses first
    for v in values:
        raw = json.loads(json.dumps(rc.raw))
        raw.setdefault(section, {})[key] = v
        try:
            points.append(parse_config(raw))
        except ConfigError as exc:
            raise ConfigError(f"sweep point {section}.{key} = {_g(v)}: "
                              f"{exc}") from exc
    # imported once before the pool forks, not again in every worker
    import scipy.sparse.linalg  # noqa: F401
    out_root = Path(args.output)
    out_root.mkdir(parents=True, exist_ok=True)
    payloads = [(point, str(out_root / f"{args.param}_{_g(v)}"),
                 args.param, v) for point, v in zip(points, values)]
    # the pool starts all its workers at once: no more than there are points
    jobs = min(args.jobs, len(values))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_one, payloads))
    else:
        results = [_sweep_one(p) for p in payloads]
    with open(out_root / "comparison.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["param", "value", "beta_obs", "r_squared"])
        for r in results:                    # input order: deterministic
            w.writerow([r["param"], _g(r["value"]), _g(r["beta_obs"]),
                        _g(r["r_squared"])])
    return EXIT_OK


def cmd_plot_data(args) -> int:
    trace = _read_trace_csv(Path(args.run_dir) / "trace.csv")
    out = Path(args.output) if args.output \
        else Path(args.run_dir) / "plot_data.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "channel", "value"])
        for name in sorted(trace.channels):
            for i in range(trace.times.size):
                w.writerow([_g(trace.times[i]), name,
                            _g(trace[name][i])])
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="degenrd",
        description="Two-species reaction-diffusion simulator with a "
                    "quantitative-decay verification harness.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run one simulation")
    s.add_argument("config")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("verify", help="audit a finished run directory")
    s.add_argument("run_dir")
    s.add_argument("--quick", action="store_true",
                   help="conservation checks only (no constant ledger)")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("constants", help="emit the constant ledger")
    s.add_argument("config")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_constants)

    s = sub.add_parser("interp-check",
                       help="three-time interpolation check on a series")
    s.add_argument("series", help="CSV with columns t,y,N[,F1,F2]")
    for name in ("t1", "t2", "t3", "T", "h"):
        s.add_argument(f"--{name}", type=float, required=True)
    s.add_argument("--C0", type=float, default=0.0)
    s.add_argument("--C1", type=float, default=0.0)
    s.add_argument("--F1", type=float, default=0.0)
    s.add_argument("--F2", type=float, default=0.0)
    s.set_defaults(func=cmd_interp_check)

    s = sub.add_parser("sweep", help="parameter sweep with rate table")
    s.add_argument("config")
    s.add_argument("--param", required=True,
                   help=f"one of {sorted(_SWEEPABLE)}")
    s.add_argument("--values", required=True, help="comma-separated list")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("-j", "--jobs", type=int, default=2)
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("plot-data",
                       help="tidy long-format CSV for external plotting")
    s.add_argument("run_dir")
    s.add_argument("-o", "--output")
    s.set_defaults(func=cmd_plot_data)
    return p


def main(argv=None) -> int:
    """Run one subcommand on `argv` (default: sys.argv[1:]); return its
    exit code.

    The first call in a process moves every object then alive into the
    garbage collector's permanent generation (`gc.freeze`); an in-process
    caller's live objects are frozen with the imported modules, once.
    """
    # The imported modules (numpy, mpmath and this package: some 26k
    # tracked objects) live until exit anyway.  Frozen, no full collection
    # walks them again: not during the command, not in the final collection
    # at interpreter exit (most of the exit time), and not in the sweep's
    # forked workers, which inherit the frozen generation.
    if not gc.get_freeze_count():
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:    # OSError: an unusable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedFile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (RuntimeError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
