"""Benchmark of the `degenrd` commands users run: simulate, verify, sweep.

    python3 perfbench/run.py --workload ref1d --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40   # all, round-robin
    python3 perfbench/run.py --record-references           # rewrite seed 0

Each command runs in a fresh interpreter (`job.py`) through
`degenrd.cli.main`, imported from the checkout's `src/`.  A round runs one
workload's commands once; a run repeats rounds for `--seconds` and reports
medians.  Times are at a reference host speed: each command's process
reads the host's speed between its phases (`calibrate.py`).  With
`--trace 1` rounds alternate between traced and untraced, the per-layer
metrics come from the traced rounds and the tracing overhead is their
difference.  The last line of standard output is the JSON result;
the exit code is 1 if any command failed or wrote a wrong output.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
REFERENCES = BENCH / "references.json"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

SWEEP_VALUES = "0.1,0.025"
SWEEP_POINTS = len(SWEEP_VALUES.split(","))
SWEEP_JOBS = 2
RUN_LIMIT_S = 170.0          # a single-workload run ends within 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path                  # seed-0 configuration
    sweep: bool = False           # `sweep` + `verify --quick`, else
                                  # `simulate` + `verify`


WORKLOADS = {w.name: w for w in (
    Workload("ref1d", BENCH / "workloads" / "ref1d.json"),
    Workload("disk2d", BENCH / "workloads" / "disk2d.json"),
    Workload("sweep_disk64", BENCH / "workloads" / "sweep_disk64.json",
             sweep=True))}


def make_config(wl: Workload, seed: int, path: Path) -> None:
    """Write the workload's configuration for `seed` to `path`.

    Seed 0 copies the seed-0 file byte for byte.  Other seeds draw the
    initial amplitude from [0.25, 0.35] and one centre, for the catalyst
    ball and the observation ball together, from 0.2540, 0.2541, ...,
    0.2555.  The 2-D ledger's geometry sampling refines to a number of
    points that jumps with the centre (20k to 320k between 0.2 and 0.3),
    which moves verify's time and memory; at each of these centres it
    stops at 40k points, as at 0.25.  The corners of this box, and of the
    wider box [0.25, 0.35] x [0.2, 0.3], simulate and verify (full verify on
    ref1d and disk2d, quick verify of every sweep point).
    """
    if seed == 0:
        shutil.copyfile(wl.config, path)
        return
    raw = json.loads(wl.config.read_text())
    rng = random.Random(seed)
    raw["initial"]["amplitude"] = round(rng.uniform(0.25, 0.35), 6)
    centre = round(0.2540 + 0.0001 * rng.randrange(16), 4)
    raw["catalyst"]["x0"] = centre
    raw["weights"]["x0_abs"] = centre
    path.write_text(json.dumps(raw, indent=2) + "\n")


# ---------------------------------------------------------------------------
# one command in a fresh interpreter
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One command: its cost, its record and what was wrong with it."""

    role: str                      # "simulate" or "verify"
    wall_s: float
    cpu_s: float
    exit: int | None
    record: dict
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit != 0 or bool(self.problems)

    def seconds(self, a: float | None = None,
                b: float | None = None) -> tuple[float, float]:
        """(measured, reference-speed) seconds of [a, b] outside the
        job's host-speed probes; by default the whole command."""
        if "spawned" not in self.record:      # died before it wrote one
            return self.wall_s, self.wall_s
        a = self.record["spawned"] if a is None else a
        b = self.record["spawned"] + self.wall_s if b is None else b
        # the job's readings and those its sweep workers added
        readings = self.record["probes"] + [
            r for e in self.record["events"] if "probes" in e
            for r in e["probes"]]
        return calibrate.at_reference_speed(readings, a, b)


def run_job(role: str, args: list[str], trace: bool, record: Path,
            deadline: float) -> Op:
    """Run `degenrd <args>` through job.py; never raises for its failure."""
    record.unlink(missing_ok=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = tracing.clock()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "job.py"), str(ROOT), str(record),
         repr(spawned), "1" if trace else "0", "--", *args],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    problems = []
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the job and its sweep workers
        _, err = proc.communicate()
        problems.append("timed out")
    except BaseException:                    # interrupted: leave nothing
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    wall = tracing.clock() - spawned
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime
                                               + before.ru_stime)
    try:
        rec = json.loads(record.read_text())
    except (OSError, json.JSONDecodeError):   # killed, or died before it
        rec = {}
    if rec.get("error"):
        problems.append(rec["error"].strip().splitlines()[-1])
    elif proc.returncode != 0 and err.strip():
        problems.append(err.strip().splitlines()[-1])
    return Op(role, wall, cpu, proc.returncode, rec, problems)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_simulate(wl: Workload, seed: int, out: Path, refs: dict | None
                   ) -> list[str]:
    """Problems with what `simulate`/`sweep` wrote to `out`."""
    problems = []
    summaries = sorted(out.rglob("summary.json"))
    if len(summaries) != (SWEEP_POINTS if wl.sweep else 1):
        problems.append(f"{len(summaries)} run directories written")
    for path in summaries:
        flags = json.loads(path.read_text())["invariant_flags"]
        if flags:
            problems.append(f"{path.parent.name}: solver checks fail {flags}")
    if wl.sweep:
        table = out / "comparison.csv"
        rows = table.read_text().splitlines()[1:] if table.is_file() else []
        if len(rows) != SWEEP_POINTS:
            problems.append(f"comparison.csv has {len(rows)} rows")
    if seed == 0:
        problems += _against_reference(
            wl, out, refs, lambda r: not r.endswith("verification.json"))
    return problems


def check_verify(wl: Workload, seed: int, out: Path, target: Path,
                 refs: dict | None) -> list[str]:
    """Problems with the verification report written to `target`."""
    report = target / "verification.json"
    if not report.is_file():
        return ["no verification.json"]
    problems = []
    if not json.loads(report.read_text())["pass"]:
        problems.append("verification report does not pass")
    if seed == 0:
        rel = report.relative_to(out).as_posix()
        problems += _against_reference(wl, out, refs, lambda r: r == rel)
    return problems


def _checked(check, *args) -> list[str]:
    """Run an output check; output it cannot read is a failure, not a crash."""
    try:
        return check(*args)
    except Exception as exc:                  # malformed output
        return [f"unreadable output: {exc!r}"]


def _against_reference(wl, out, refs, select) -> list[str]:
    if refs is None or wl.name not in refs:
        return [f"no seed-0 reference for {wl.name}"]
    return oracle.compare_tree(out, refs[wl.name], select)


# ---------------------------------------------------------------------------
# rounds and their metrics
# ---------------------------------------------------------------------------

def run_round(wl: Workload, seed: int, trace: bool, refs: dict | None,
              deadline: float) -> list[Op]:
    """Run the workload's commands once and check their outputs."""
    tag = f"{wl.name}-seed{seed}"
    cfg, out = WORK / f"{tag}.json", WORK / tag
    make_config(wl, seed, cfg)
    shutil.rmtree(out, ignore_errors=True)
    if wl.sweep:
        args = ["sweep", str(cfg), "--param", "r", "--values", SWEEP_VALUES,
                "-j", str(SWEEP_JOBS), "-o", str(out)]
    else:
        args = ["simulate", str(cfg), "-o", str(out)]
    sim = run_job("simulate", args, trace, WORK / f"{tag}.sim.json",
                  deadline)
    if sim.exit == 0:
        sim.problems += _checked(check_simulate, wl, seed, out, refs)
    ops = [sim]
    # sweep points get a quick verify: full verify fails at n=64 (ROADMAP
    # item 3)
    targets = (sorted(out.glob("r_*")) or [out / "missing"]) if wl.sweep \
        else [out]
    quick = ["--quick"] if wl.sweep else []
    for target in targets:
        ver = run_job("verify", ["verify", *quick, str(target)], trace,
                      WORK / f"{tag}.ver.json", deadline)
        if ver.exit in (0, 3):
            ver.problems += _checked(check_verify, wl, seed, out, target,
                                     refs)
        ops.append(ver)
    return ops


def end_to_end(ops: list[Op]) -> dict:
    """End-to-end metrics of one round (a metric it cannot give is absent).

    The first op is `simulate` (or `sweep`); `verify_s` is the median of
    the verify commands that follow it.  Times leave out the jobs'
    host-speed probes and are at the reference speed (`Op.seconds`);
    `cpu_s` is scaled as its op's wall time is.  The values as measured
    are kept as `raw.<name>`.
    """
    sim = ops[0]
    whole = [o.seconds() for o in ops]
    cpu = [o.cpu_s - (o.wall_s - m) for o, (m, _) in zip(ops, whole)]
    raw = {"simulate_s": whole[0][0],
           "verify_s": statistics.median(m for m, _ in whole[1:]),
           "cpu_s": sum(cpu)}
    out = {"simulate_s": whole[0][1],
           "verify_s": statistics.median(s for _, s in whole[1:]),
           "cpu_s": sum(c * s / m for c, (m, s) in zip(cpu, whole))}
    rss = [o.record["peak_rss_mb"] for o in ops if o.record]
    if rss:
        out["peak_rss_mb"] = max(rss)
    events = sim.record.get("events", [])
    first = [e["first_step"] for e in events if "first_step" in e]
    if first:
        raw["setup_s"], out["setup_s"] = sim.seconds(
            b=statistics.median(first))
    runs = [sim.seconds(*e["run"]) for e in events if "run" in e]
    if runs:
        cells = sum(e["cell_steps"] for e in events if "run" in e)
        raw["cell_steps_per_s"] = cells / sum(m for m, _ in runs)
        out["cell_steps_per_s"] = cells / sum(s for _, s in runs)
    out.update((f"raw.{k}", v) for k, v in raw.items())
    return out


def per_layer(wl: Workload, ops: list[Op], out: Path) -> dict:
    """Per-layer metrics of one traced round."""
    metrics: dict = {}
    for o in ops:
        for name, agg in o.record.get("layers", {}).items():
            for key, value in agg.items():
                k = f"{name}.{key}"
                metrics[k] = metrics.get(k, 0) + value
    metrics["cli.bytes_written"] = sum(
        p.stat().st_size for p in out.rglob("*") if p.is_file())
    keys = [e["weight_fields"] for o in ops
            for e in o.record.get("events", []) if "weight_fields" in e]
    metrics["weights.weight_fields.distinct_ratio"] = \
        len(set(keys)) / len(keys) if keys else 0.0
    sim = ops[0]
    metrics["cli.sweep.cpu_util"] = (
        sim.record["children_cpu_s"] / (sim.record["main_s"] * SWEEP_JOBS)
        if wl.sweep and sim.record else 0.0)
    done = [o for o in ops if "done" in o.record]
    metrics["interpreter.exit.s"] = sum(
        o.record["spawned"] + o.wall_s - o.record["done"] for o in done)
    # time of the round's commands between interpreter start and exit that
    # no span of their own process covers: the job's own bookkeeping
    metrics["trace.unaccounted_s"] = sum(
        o.record["done"] - o.record["spawned"] - o.record["covered_s"]
        - sum(t1 - t0 for t0, t1, _ in o.record["probes"]) for o in done)
    return metrics


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def columns(rows: list[dict]) -> dict:
    """Rows of metrics to one list of values per metric name."""
    names = sorted({k for r in rows for k in r})
    return {n: [r[n] for r in rows if n in r] for n in names}


def run_workloads(names: list[str], seed: int, seconds: float,
                  trace: bool, refs: dict | None) -> dict:
    """Round-robin rounds over `names` for about `seconds` per workload."""
    start = tracing.clock()
    budget = seconds * len(names)
    deadline = start + budget + RUN_LIMIT_S - seconds
    state = {n: {"untraced": [], "traced": [], "layers": [], "ops": []}
             for n in names}
    durations: list[float] = []
    i = 0
    while True:
        wl = WORKLOADS[names[i % len(names)]]
        st = state[wl.name]
        traced = trace and len(st["traced"]) <= len(st["untraced"])
        t0 = tracing.clock()
        ops = run_round(wl, seed, traced, refs, deadline)
        durations.append(tracing.clock() - t0)
        st["ops"] += ops
        (st["traced"] if traced else st["untraced"]).append(end_to_end(ops))
        if traced:
            st["layers"].append(per_layer(wl, ops, WORK / f"{wl.name}-seed"
                                          f"{seed}"))
            st.setdefault("missing", set()).update(
                tuple(m) for o in ops for m in o.record.get("missing", []))
        i += 1
        done = i % len(names) == 0 and (not trace or all(
            s["traced"] and s["untraced"] for s in state.values()))
        est = statistics.median(durations) * len(names)
        if done and tracing.clock() - start + est > budget:
            break
    return state


def summarize(wl: str, st: dict, spec: dict, trace: bool) -> dict:
    ops = st["ops"]
    failed = sum(o.failed for o in ops)
    e2e = columns(st["untraced"])
    result = {"workload": wl, "attempted": len(ops), "failed": failed,
              "fail_frac": failed / len(ops),
              "rounds": {"untraced": len(st["untraced"]),
                         "traced": len(st["traced"])},
              "samples": e2e,
              "problems": sorted({f"{o.role}: {p}" for o in ops
                                  for p in o.problems}),
              "missing": [], "metrics": {}}
    if not trace:
        for m in spec["end_to_end"]:
            if e2e.get(m["name"]):
                result["metrics"][m["name"]] = {
                    "value": statistics.median(e2e[m["name"]]),
                    "unit": m["unit"]}
        return result
    layers = columns(st["layers"])
    traced = columns(st["traced"])
    for key in ("simulate_s", "verify_s"):
        layers[f"trace.overhead.{key}"] = [
            statistics.median(traced[key]) - statistics.median(e2e[key])]
    missing_spans = {name for _, name in st.get("missing", set())}
    result["missing"] = sorted(f"{t} ({n})" for t, n in st.get("missing",
                                                                 set()))
    for m in spec["per_layer"]:
        name = m["name"]
        span = name.rsplit(".", 1)[0]
        if span in missing_spans:
            continue                          # reported as missing, not 0
        values = layers.get(name)
        if values is None and name.endswith((".s", ".self_s", ".calls")):
            values = [0]                      # layer not called here
        if values is None:
            continue
        result["metrics"][name] = {"value": statistics.median(values),
                                   "unit": m["unit"]}
    result["all_layers"] = {k: statistics.median(v)
                            for k, v in layers.items()}
    return result


def host_info() -> dict:
    import mpmath
    import numpy
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    for mod in (numpy, scipy):
        try:
            cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = {k: cfg.get(k) for k in
                                  ("name", "version", "openblas configuration")}
        except Exception as exc:              # report, do not fail the run
            blas[mod.__name__] = f"unavailable: {exc}"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and \
            Path(lines[0]).resolve() == ROOT else "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        commit = "git unavailable"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREAD" in k or k.startswith(("OMP_", "OPENBLAS",
                                                         "MKL_", "BLIS_"))},
        "commit": commit,
    }


def print_result(res: dict, trace: bool) -> None:
    print(f"workload {res['workload']}: rounds {res['rounds']}, attempted "
          f"{res['attempted']}, failed {res['failed']}, fail_frac "
          f"{res['fail_frac']:.3g}")
    for name, m in res["metrics"].items():
        n = len(res["samples"].get(name, [])) if not trace else ""
        raw = res["samples"].get(f"raw.{name}") if not trace else None
        raw = f"as measured {statistics.median(raw):.6g}" if raw else ""
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:6s} {n:<3} {raw}")
    for miss in res["missing"]:
        print(f"  MISSING layer target {miss}")
    for p in res["problems"]:
        print(f"  FAILED {p}")


def record_references() -> int:
    refs = {}
    for wl in WORKLOADS.values():
        ops = run_round(wl, 0, False, None, tracing.clock() + 600)
        bad = [p for o in ops for p in o.problems
               if not p.startswith("no seed-0 reference")]
        if any(o.exit != 0 for o in ops) or bad:
            print(f"{wl.name}: not recorded: {bad}", file=sys.stderr)
            return 1
        refs[wl.name] = oracle.fingerprint_tree(WORK / f"{wl.name}-seed0")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "degenrd" / "cli.py").is_file():
        print(f"error: no degenrd sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(ROOT / "src", quiet=1)   # no .pyc writes timed
    if args.record_references:
        return record_references()
    if args.workload is None:
        p.error("--workload is required")
    spec = load_spec()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() \
        else None
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    host = host_info()
    state = run_workloads(names, args.seed, args.seconds, bool(args.trace),
                          refs)
    results = [summarize(n, state[n], spec, bool(args.trace)) for n in names]
    for res in results:
        print_result(res, bool(args.trace))
    doc = {"host": host, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "results": results}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(doc, indent=1) + "\n")
    print("host " + json.dumps(host, sort_keys=True))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}.{k}": v for r in results
        for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
