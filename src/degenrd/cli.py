"""Command-line entry point.

Subcommands: simulate, verify, constants, interp-check, sweep, plot-data.
Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 invariant/verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import FORMAT_VERSION, ConfigError, RunConfig, load_config, \
    parse_config
from .constants import build_ledger
from .diagnostics import TraceSeries, fit_decay_rate, solver_checks
from .grid import build_grid, Domain
from .logconv import InterpInput, interp_check
from .solver import RunResult, init_state, run as run_sim
from .verify import audit

TRACE_COLUMNS = ["t", "mass", "l2_dist", "l3_sum", "min_ab",
                 "dissipation_grad_a", "dissipation_grad_b",
                 "dissipation_reaction", "u_l3_max", "l2_ball"]

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_INVARIANT = 0, 1, 2, 3


def _g(x: float) -> str:
    return "%.17g" % float(x)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_trace_csv(path: Path, trace: TraceSeries) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for i in range(trace.times.size):
            row = [_g(trace.times[i])]
            row += [_g(trace[c][i]) for c in TRACE_COLUMNS[1:]]
            w.writerow(row)


def _read_trace_csv(path: Path) -> TraceSeries:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    channels = {name: data[:, j] for j, name in enumerate(header)
                if name != "t"}
    return TraceSeries(data[:, header.index("t")], channels)


def save_run(run: RunResult, rc: RunConfig, out_dir: Path) -> dict:
    """Persist a finished run; returns the summary dict."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json",
                {"format_version": FORMAT_VERSION, "config": rc.raw})
    _write_trace_csv(out_dir / "trace.csv", run.trace)
    ts = np.array([t for (t, _, _) in run.snapshots])
    n = run.grid.ncells
    a = np.stack([a for (_, a, _) in run.snapshots]) if run.snapshots \
        else np.empty((0, n))
    b = np.stack([b for (_, _, b) in run.snapshots]) if run.snapshots \
        else np.empty((0, n))
    np.savez(out_dir / "fields.npz", times=ts, a=a, b=b,
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
    """Reload a persisted run directory into an in-memory RunResult."""
    run_dir = Path(run_dir)
    cfg_doc = json.loads((run_dir / "config.json").read_text())
    rc = parse_config(cfg_doc["config"])
    summary = json.loads((run_dir / "summary.json").read_text())
    grid = build_grid(Domain(rc.sim.dim), rc.sim.resolution)
    trace = _read_trace_csv(run_dir / "trace.csv")
    npz = np.load(run_dir / "fields.npz")
    snaps = [(float(t), npz["a"][i].copy(), npz["b"][i].copy())
             for i, t in enumerate(npz["times"])]
    return RunResult(config=rc.sim, grid=grid, trace=trace,
                     snapshots=snaps, B0=float(summary["B0"]),
                     dt=float(summary["dt"])), rc


def _ledger(rc: RunConfig, grid, a0, b0, B0: float):
    """The constant ledger of a config for the initial state (a0, b0)."""
    cat = rc.sim.catalyst
    return build_ledger(grid, rc.weights, a0, b0, B0, k0=cat.k0,
                        k_sup=cat.k_max, d1=rc.sim.d1, d2=rc.sim.d2,
                        T=rc.weights.T, seed=rc.sim.seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    rc = load_config(args.config)            # parse before touching disk
    out_dir = Path(args.output)
    run = run_sim(rc.sim)
    save_run(run, rc, out_dir)
    return EXIT_OK


def cmd_verify(args) -> int:
    run, rc = load_run(Path(args.run_dir))
    entries = None
    if args.quick:
        entries = audit(run)
    else:
        _, a0, b0 = run.snapshots[0]
        ledger = _ledger(rc, run.grid, a0, b0, run.B0)
        entries = audit(run, ledger=ledger, params=rc.weights)
    report = {"format_version": FORMAT_VERSION, "checks": entries,
              "pass": all(e["pass"] for e in entries)}
    _write_json(Path(args.run_dir) / "verification.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_INVARIANT


def cmd_constants(args) -> int:
    rc = load_config(args.config)
    grid = build_grid(Domain(rc.sim.dim), rc.sim.resolution)
    state, B0 = init_state(grid, rc.sim)
    ledger = _ledger(rc, grid, state.a.values, state.b.values, B0)
    doc = {"format_version": FORMAT_VERSION, "ledger": ledger.as_json()}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_interp_check(args) -> int:
    with open(args.series, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    col = {name: data[:, j] for j, name in enumerate(header)}
    for need in ("t", "y", "N"):
        if need not in col:
            raise ConfigError(f"series file must have a {need!r} column")
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
    raw_json, out_dir, param, value = payload
    raw = json.loads(raw_json)
    rc = parse_config(raw)
    run = run_sim(rc.sim)
    save_run(run, rc, Path(out_dir))
    try:
        fit = fit_decay_rate(run.trace, "l2_dist")
    except ValueError:
        fit = {"rate": 0.0, "intercept": 0.0, "r_squared": 0.0}
    return {"param": param, "value": value, "beta_obs": fit["rate"],
            "r_squared": fit["r_squared"]}


def cmd_sweep(args) -> int:
    rc = load_config(args.config)
    if args.param not in _SWEEPABLE:
        raise ConfigError(
            f"sweepable parameters are {sorted(_SWEEPABLE)}; "
            f"got {args.param!r}")
    section, key = _SWEEPABLE[args.param]
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {exc}") from exc
    out_root = Path(args.output)
    out_root.mkdir(parents=True, exist_ok=True)
    payloads = []
    for v in values:
        raw = json.loads(json.dumps(rc.raw))
        raw.setdefault(section, {})[key] = v
        raw.setdefault("catalyst", {}).setdefault("kind",
                                                  rc.sim.catalyst.kind)
        sub = out_root / f"{args.param}_{_g(v)}"
        payloads.append((json.dumps(raw), str(sub), args.param, v))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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
    for name, default in (("t1", None), ("t2", None), ("t3", None),
                          ("T", None), ("h", None)):
        s.add_argument(f"--{name}", type=float, required=default is None)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
