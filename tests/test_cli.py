"""Command-line workflows: persisted artifacts, exit codes, determinism."""

import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from degenrd.cli import main
from degenrd.config import _SECTIONS
from degenrd.diagnostics import TraceSeries, solver_checks
from degenrd.verify import audit

CFG = {
    "format_version": "1.0",
    "domain": {"dim": 1},
    "grid": {"resolution": 128},
    "catalyst": {"kind": "bump", "k0": 1.0, "x0": 0.25, "r": 0.1},
    "initial": {"kind": "cosine", "amplitude": 0.3},
    "stepper": {"t_end": 2.0, "record_stride": 0.05, "field_stride": 0.25},
    "output": {"label": "cli-test"},
    "weights": {"x0_abs": 0.25, "r": 0.1, "s": 0.5, "h": 0.1, "T": 2.0},
}


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(CFG))
    return p


@pytest.fixture()
def run_dir(cfg_path, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", str(cfg_path), "-o", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_artifacts(run_dir):
    for name in ("config.json", "trace.csv", "fields.npz", "summary.json"):
        assert (run_dir / name).exists()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["format_version"] == "1.0"
    assert summary["invariant_flags"] == []
    assert summary["decay_fit"]["rate"] > 0
    npz = np.load(run_dir / "fields.npz")
    assert npz["a"].shape[1] == 128
    with open(run_dir / "trace.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "t" and "l2_dist" in header


def test_trace_columns_documented(run_dir):
    """Every column of a saved trace.csv has a row in the data dictionary."""
    doc = (Path(__file__).resolve().parents[1] / "docs"
           / "data_dictionary.md").read_text(encoding="utf-8")
    with open(run_dir / "trace.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert [c for c in header if f"| `{c}` |" not in doc] == []


def test_config_keys_documented():
    """Every key the parser accepts has a row in its section's table in
    docs/config_schema.md, and every key in such a table is accepted; a
    combined row such as `x0`, `r` counts."""
    doc = (Path(__file__).resolve().parents[1] / "docs"
           / "config_schema.md").read_text(encoding="utf-8")
    documented = {}
    for part in doc.split("\n### ")[1:]:
        head, _, body = part.partition("\n")
        first_cells = [line.split("|")[1] for line in body.splitlines()
                       if line.startswith("| `")]
        documented[head.split("`")[1]] = set(
            re.findall(r"`([^`]+)`", " ".join(first_cells)))
    assert [f"{section}.{key}" for section, keys in _SECTIONS.items()
            for key in sorted(keys)
            if key not in documented.get(section, ())] == []
    assert [f"{section}.{key}" for section, keys in documented.items()
            for key in sorted(keys)
            if key not in _SECTIONS.get(section, ())] == []


def test_simulate_bitwise_idempotent(cfg_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", str(cfg_path), "-o", str(out1)]) == 0
    assert main(["simulate", str(cfg_path), "-o", str(out2)]) == 0
    for name in ("trace.csv", "summary.json", "config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    n1, n2 = np.load(out1 / "fields.npz"), np.load(out2 / "fields.npz")
    assert np.array_equal(n1["a"], n2["a"])
    assert np.array_equal(n1["b"], n2["b"])


def test_simulate_malformed_config_exits_1_no_partial_dir(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": {"dim": 1}, "nonsense_section": {}}')
    out = tmp_path / "never"
    assert main(["simulate", str(bad), "-o", str(out)]) == 1
    assert not out.exists()


def test_simulate_unknown_key_named_in_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(json.dumps(CFG))
    doc["grid"]["resolutionn"] = 64
    bad.write_text(json.dumps(doc))
    assert main(["simulate", str(bad), "-o", str(tmp_path / "x")]) == 1
    assert "resolutionn" in capsys.readouterr().err


def test_weight_window_past_t_end_rejected_at_parse(tmp_path, capsys):
    doc = json.loads(json.dumps(CFG))
    doc["stepper"]["t_end"] = 10.0
    doc["weights"]["T"] = 20.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["simulate", str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert "weights.T" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "constants"])
@pytest.mark.parametrize("dim", [0, 3])
def test_unsupported_dimension_rejected_at_parse(tmp_path, capsys, command,
                                                 dim):
    doc = json.loads(json.dumps(CFG))
    doc["domain"]["dim"] = dim
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main([command, str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert "domain.dim" in err
    assert not out.exists()


@pytest.mark.parametrize("resolution", [4, True, 64.7, "abc"])
def test_bad_resolution_rejected_at_parse(tmp_path, capsys, resolution):
    """Below the floor, a bool, a fraction (once truncated to 64) and a
    string all exit 1 naming the key, before any grid is built."""
    doc = json.loads(json.dumps(CFG))
    doc["grid"]["resolution"] = resolution
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["simulate", str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert "grid.resolution" in err
    assert not out.exists()


@pytest.mark.parametrize("section,key,value", [
    # each of these crashed after parse: ZeroDivisionError, IndexError,
    # np.gradient on two trace samples (exit 2), OverflowError, and a
    # singular factorization (exit 2)
    ("stepper", "record_stride", 0),
    ("stepper", "record_stride", -0.1),
    ("stepper", "record_stride", 3.0),
    ("stepper", "t_end", float("inf")),
    ("physics", "d1", float("inf")),
    # t_end = 2: one stride is only two trace samples; one step too
    ("stepper", "record_stride", 2.0),
    ("stepper", "dt", 2.0),
    ("stepper", "dt", float("inf")),
    ("stepper", "record_stride", float("nan")),
    # wrong types: a seed that only verify's SeedSequence rejected, a
    # string read as true, strides that meant "snapshot every record"
    ("stepper", "seed", "x"),
    ("stepper", "seed", 1.5),
    ("stepper", "seed", -1),
    ("stepper", "save_fields", "no"),
    # deleted keys: a seed that changed no output, and a false save_fields
    # that left a run no full verify could read
    ("stepper", "seed", 0),
    ("stepper", "save_fields", False),
    ("stepper", "field_stride", 0),
    ("stepper", "field_stride", -0.25),
    # numbers of the other sections: each of these ended in a raw
    # traceback, exited 2, named no key, or (the bool) was read as 1.0
    ("initial", "amplitude", "abc"),
    ("catalyst", "r", "abc"),
    ("catalyst", "x0", "abc"),
    ("catalyst", "k0", "abc"),
    ("weights", "s", "abc"),
    ("weights", "h", [1]),
    ("catalyst", "r", True),
    # h**2 underflowed to 0, and a full verify divided by it
    ("weights", "h", 1e-300),
    # integers beyond double range ended in an OverflowError traceback
    ("catalyst", "r", 10 ** 400),
    ("stepper", "t_end", 10 ** 400),
], ids=lambda v: "10**400" if v == 10 ** 400 else str(v))
def test_bad_stepper_value_rejected_at_parse(tmp_path, capsys, section, key,
                                            value):
    doc = json.loads(json.dumps(CFG))
    doc.setdefault(section, {})[key] = value
    if key == "t_end":
        del doc["weights"]["T"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))          # inf and nan as Infinity, NaN
    out = tmp_path / "never"
    assert main(["simulate", str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert f"{section}.{key}" in err
    assert not out.exists()


@pytest.mark.parametrize("section,update,key", [
    ("weights", {"s": 1.5}, "weights.s"),
    ("weights", {"h": 0.0}, "weights.h"),
    ("weights", {"x0_abs": 0.0}, "weights.x0_abs"),
    ("weights", {"r": 0.4}, "weights.r"),
    ("catalyst", {"k_max": 0.5}, "catalyst.k_max"),
    ("catalyst", {"k0": -1.0}, "catalyst.k0"),
    # a radius <= 0 ran with weights.r set: it is checked on its own now
    ("catalyst", {"r": -1.0}, "catalyst.r"),
    ("catalyst", {"r": 0.0}, "catalyst.r"),
    ("catalyst", {"kind": "ring"}, "catalyst.kind"),
    ("catalyst", {"kind": "time-modulated-bump", "period": 0.0},
     "catalyst.period"),
    ("catalyst", {"kind": "annular-zero"}, "catalyst.annulus_inner"),
    ("initial", {"kind": "ring"}, "initial.kind"),
    # each of these exited 2 after parse: the annulus meets the ball, the
    # profiles are not positive, the first step is above the reaction bound
    ("catalyst", {"kind": "annular-zero", "annulus_inner": 0.2,
                  "annulus_outer": 0.3}, "catalyst.annulus_inner"),
    ("initial", {"amplitude": 1.2}, "initial.amplitude"),
    ("initial", {"kind": "gaussian", "floor": -1.0}, "initial.floor"),
    ("initial", {"kind": "constant", "value_a": 0.0}, "initial.value_a"),
    ("stepper", {"dt": 0.5}, "stepper.dt"),
    # a step the clock t += dt cannot reach t_end with: the stable step
    # underflowed to 0 (a ZeroDivisionError), or over 2**52 steps (a run
    # that never ended)
    ("catalyst", {"k0": 1e308}, "catalyst.k_max"),
    ("catalyst", {"k0": 1e200}, "catalyst.k_max"),
    ("stepper", {"dt": 1e-300}, "stepper.dt"),
], ids=str)
def test_config_error_before_first_step_names_key(tmp_path, capsys, section,
                                                  update, key):
    doc = json.loads(json.dumps(CFG))
    doc["grid"]["resolution"] = 32
    doc[section].update(update)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["simulate", str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert key in err
    assert not out.exists()


def test_default_dt_stays_under_the_stability_bound(tmp_path):
    """With d1 != d2, max(a + b) grows past its t = 0 value; the default
    step is bounded with a + b <= 2*max(a0, b0), so the run does not trip
    the step's own stability guard (it exited 2, asking to reduce a dt
    that was never set)."""
    doc = {"domain": {"dim": 1}, "grid": {"resolution": 12},
           "physics": {"d1": 1.0, "d2": 2.0},
           "catalyst": {"kind": "bump", "k0": 5.0},
           "initial": {"kind": "cosine"},
           "stepper": {"t_end": 1.0, "record_stride": 0.05},
           "weights": {"T": 1.0}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["dt"] == 0.025


def _bump_config(tmp_path, k0=1.0, d1=1.0, d2=1.0, **stepper):
    doc = json.loads(Path("configs/degenerate_bump.json").read_text())
    doc["grid"]["resolution"] = 32
    doc["catalyst"]["k0"] = k0
    doc["physics"].update(d1=d1, d2=d2)
    doc["stepper"].update({"t_end": 2.0, **stepper})
    doc["weights"]["T"] = doc["stepper"]["t_end"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return cfg


def _one_line_naming(capsys, key):
    err = capsys.readouterr().err.strip()
    return err.startswith("error: ") and "\n" not in err and key in err


@pytest.mark.parametrize("k0", [1e75, 1e100, 1e150, 1e308])
def test_constants_rejects_a_huge_catalyst(tmp_path, capsys, k0):
    """`constants` applies the step budget `simulate` does: a ceiling
    whose stable step needs over 2**52 steps exits 1 naming it."""
    assert main(["constants", str(_bump_config(tmp_path, k0))]) == 1
    assert _one_line_naming(capsys, "catalyst.k_max")


def test_ledger_overflow_exits_1(tmp_path, capsys):
    """A horizon short enough for the step budget still leaves K0 out of
    double range: `constants` and a full verify exit 1 naming
    catalyst.k_max."""
    cfg = _bump_config(tmp_path, 1e200, t_end=1e-199,
                       record_stride=2e-200, field_stride=2.5e-200)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    for argv in (["constants", str(cfg)], ["verify", str(out)]):
        capsys.readouterr()
        assert main(argv) == 1
        assert _one_line_naming(capsys, "catalyst.k_max")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_tiny_horizon_run_writes_strict_json(tmp_path, capsys):
    """With samples 1.25e-200 apart, the energy check's time derivative and
    its allowance stay finite: simulate exits 0 with nothing on stderr
    (numpy's warnings are errors under pytest), and summary.json is strict
    JSON with finite margins.  np.gradient divided by zero here, and the
    energy_identity margin was written as a bare NaN."""
    cfg = _bump_config(tmp_path, 1e200, t_end=1e-199,
                       record_stride=2e-200, field_stride=2.5e-200)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert all(math.isfinite(c["margin"]) for c in summary["checks"])


@pytest.mark.parametrize("d1", [1e200, 1e150, 1e-30, 1e-300])
def test_ledger_rejects_an_extreme_diffusivity(tmp_path, capsys, d1):
    """A diffusivity that overflows C3 or C5, or rounds C0 to 1, is named:
    `constants` exits 1 in one line (1e200 was an OverflowError traceback,
    the others exit 2), and so does a full verify of a tiny one's run."""
    cfg = _bump_config(tmp_path, d1=d1)
    assert main(["constants", str(cfg)]) == 1
    assert _one_line_naming(capsys, "physics.d1")
    if d1 < 1:
        out = tmp_path / "run"
        assert main(["simulate", str(cfg), "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert _one_line_naming(capsys, "physics.d1")


@pytest.mark.parametrize("physics,stepper,keys", [
    ({"d1": 1e150}, {}, ["physics.d1"]),
    ({"d1": 1e200}, {}, ["physics.d1"]),
    ({"d2": 1e150}, {}, ["physics.d2"]),
    ({"d2": 1e200}, {}, ["physics.d2"]),
    ({"d1": 1e150, "d2": 1e150}, {"dt": 0.01},
     ["physics.d1", "physics.d2", "stepper.dt"]),
], ids=["d1-1e150", "d1-1e200", "d2-1e150", "d2-1e200", "both-dt-1e150"])
def test_simulate_names_an_unfactorizable_diffusivity(tmp_path, capsys,
                                                      physics, stepper, keys):
    """A Crank-Nicolson matrix I - (dt/2)*d*L that rounds to singular exits
    1 before the first step, naming the diffusivity (and a set stepper.dt);
    it exited 2 naming no key."""
    cfg = _bump_config(tmp_path, **physics, **stepper)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert err.startswith(f"error: {', '.join(keys)}: ")
    assert not out.exists()


@pytest.mark.parametrize("physics", [{"d1": 1e200, "d2": 1e200},
                                     {"d1": 1e200}], ids=["both", "d1"])
def test_lost_positivity_names_the_step_and_keys(tmp_path, capsys, physics):
    """A diffusivity that factorizes but rings below zero is a numerical
    failure (exit 2) in one line naming the step, its time, stepper.dt and
    the diffusivities with their values; it named none of them."""
    cfg = _bump_config(tmp_path, **physics, dt=0.01)
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("numerical failure: positivity lost") \
        and "\n" not in err
    d1, d2 = physics["d1"], physics.get("d2", 1.0)
    assert re.search(r": step \d+ from t = \S+, stepper\.dt = ", err)
    assert err.endswith(f"stepper.dt = 0.01 (set), physics.d1 = {d1:g}, "
                        f"physics.d2 = {d2:g}")
    assert not out.exists()


_REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("config,recorded", [
    ("configs/degenerate_bump.json", "constants_degenerate_bump.json"),
    ("perfbench/workloads/disk2d.json", "constants_disk2d.json"),
], ids=["degenerate_bump", "disk2d"])
def test_constants_reproduces_the_recorded_ledger(tmp_path, capsys, config,
                                                  recorded):
    """`constants` writes the ledger recorded in tests/data byte for byte.
    A change that means to move a ledger value re-records these files and
    lists every moved number."""
    out = tmp_path / "ledger.json"
    assert main(["constants", str(_REPO / config), "-o", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() \
        == (_REPO / "tests" / "data" / recorded).read_bytes()


def test_half_t_end_strides_accepted(tmp_path):
    """The largest accepted dt and record_stride give three samples."""
    doc = json.loads(json.dumps(CFG))
    doc["grid"]["resolution"] = 16
    doc["catalyst"] = {"kind": "constant", "k0": 0.0}
    doc["stepper"].update(dt=1.0, record_stride=1.0)
    cfg = tmp_path / "half.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    assert main(["verify", str(out), "--quick"]) == 0
    with open(out / "trace.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3


@pytest.mark.parametrize("command", ["simulate", "sweep", "constants"])
def test_unusable_output_path_exits_1(cfg_path, tmp_path, capsys,
                                      monkeypatch, command):
    """An output path that is a file (or, for `constants`, a directory)
    exits 1 with a one-line error naming it, before any simulation or
    ledger is computed."""
    monkeypatch.setattr("degenrd.cli.run_sim", None)
    monkeypatch.setattr("degenrd.cli.build_ledger", None)
    out = tmp_path / "taken"
    if command == "constants":
        out.mkdir()
    else:
        out.write_text("")
    extra = ["--param", "k0", "--values", "1", "-j", "1"] \
        if command == "sweep" else []
    capsys.readouterr()
    assert main([command, str(cfg_path), *extra, "-o", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "taken" in err and "\n" not in err


def test_simulate_missing_file_exits_1(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "x")]) == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_quick_pass(run_dir, capsys):
    assert main(["verify", str(run_dir), "--quick"]) == 0
    report = json.loads((run_dir / "verification.json").read_text())
    assert report["pass"] and report["checks"]
    out = capsys.readouterr().out
    assert json.loads(out)["pass"]


def test_verify_detects_tampering(run_dir, tmp_path):
    rows = (run_dir / "trace.csv").read_text().splitlines()
    header = rows[0].split(",")
    i = header.index("mass")
    parts = rows[5].split(",")
    parts[i] = "2.5"
    rows[5] = ",".join(parts)
    (run_dir / "trace.csv").write_text("\n".join(rows) + "\n")
    assert main(["verify", str(run_dir), "--quick"]) == 3
    report = json.loads((run_dir / "verification.json").read_text())
    assert not report["pass"]


_DISSIPATION = ("dissipation_grad_a", "dissipation_grad_b",
                "dissipation_reaction")


def _sample(channel, value):
    """Sets sample 5 of `channel` to value(channels, B0)."""
    def mutate(t, ch, B0):
        ch[channel][5] = value(ch, B0)
    return mutate


def _dissipation_after(t0, factor):
    """Scales the three dissipation channels by `factor` for t > t0."""
    def mutate(t, ch, B0):
        for name in _DISSIPATION:
            ch[name][t > t0] *= factor
    return mutate


_BLIND = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 10: energy_identity divides its margin by the run's "
    "largest l2_dist, so it cannot see the dissipation after the "
    "transient (margin 0.1258 -> 0.1153 zeroed, 0.1104 x10)"))

# One trace mutation per quick-audit check that the check must fail.  The
# sample mutations overstep the check's tolerance twice; mean_zero_shift
# reads the mass channel, as mass_conservation does.
_MASS_SHIFT = _sample("mass", lambda ch, B0: ch["mass"][5] + 2e-8)
_TAMPERING = [
    pytest.param("mass_conservation", _MASS_SHIFT, id="mass+2e-8"),
    pytest.param("mean_zero_shift", _MASS_SHIFT, id="mean_zero-mass+2e-8"),
    pytest.param("l2_monotone",
                 _sample("l2_dist", lambda ch, B0: ch["l2_dist"][4] + 2e-8),
                 id="l2_dist-uptick"),
    pytest.param("l3_monotone",
                 _sample("l3_sum", lambda ch, B0: ch["l3_sum"][0] + 2e-6),
                 id="l3_sum-above-start"),
    pytest.param("min_principle", _sample("min_ab", lambda ch, B0: B0 - 2e-6),
                 id="min_ab-below-B0"),
    pytest.param("energy_identity", _dissipation_after(0.05, 0.0),
                 id="dissipation-zeroed-after-0.05"),
    pytest.param("energy_identity", _dissipation_after(0.2, 0.0),
                 id="dissipation-zeroed-after-0.2", marks=_BLIND),
    pytest.param("energy_identity", _dissipation_after(0.5, 10.0),
                 id="dissipation-x10-after-0.5", marks=_BLIND),
]


def test_every_quick_check_has_a_mutation(ref_run):
    assert {p.values[0] for p in _TAMPERING} \
        == {c.invariant_id for c in solver_checks(ref_run)}


@pytest.mark.parametrize("check,mutate", _TAMPERING)
def test_quick_audit_fails_its_mutation(ref_run, check, mutate):
    """The in-memory form of the tampering above, on the reference run:
    the quick audit fails `check` once its trace input is mutated."""
    ch = {name: v.copy() for name, v in ref_run.trace.channels.items()}
    mutate(ref_run.trace.times, ch, ref_run.B0)
    tampered = replace(ref_run, trace=TraceSeries(ref_run.trace.times, ch))

    def passed(run):
        return {e["invariant_id"]: e["pass"] for e in audit(run)}[check]
    assert passed(ref_run) and not passed(tampered)


def _simulated(tmp_path, stepper, weights):
    doc = json.loads(json.dumps(CFG))
    doc["stepper"].update(stepper)
    doc["weights"].update(weights)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    return out


@pytest.mark.parametrize("stepper,weights,key", [
    ({"t_end": 1.0}, {"T": 1.0}, "weights.T"),        # T-L = 0.875
    ({"t_end": 0.5}, {"T": 0.5}, "0.375, 0.4375")])   # T-2L, T-L
def test_verify_without_needed_snapshots_exits_1(tmp_path, capsys,
                                                 monkeypatch, stepper,
                                                 weights, key):
    """One line naming what is missing, before the ledger is built."""
    out = _simulated(tmp_path, stepper, weights)
    monkeypatch.setattr("degenrd.cli.build_ledger", None)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert key in err
    assert main(["verify", str(out), "--quick"]) == 0


def test_verify_of_a_run_without_snapshots_exits_1(run_dir, capsys,
                                                   monkeypatch):
    """A fields.npz that holds no snapshot gives the same one line, naming
    every time a full verify reads."""
    npz = dict(np.load(run_dir / "fields.npz"))
    for name in ("times", "a", "b"):
        npz[name] = npz[name][:0]
    np.savez(run_dir / "fields.npz", **npz)
    monkeypatch.setattr("degenrd.cli.build_ledger", None)
    capsys.readouterr()
    assert main(["verify", str(run_dir)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert "none near t = [0.0, 1.0, 1.5, 1.75, 2.0]" in err


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("corrupt", ["nan", "short"])
def test_verify_rejects_corrupt_fields(run_dir, capsys, corrupt, quick):
    """A fields.npz with a non-finite value or the wrong cell count gives
    exit 2 and a one-line error naming the file."""
    npz = dict(np.load(run_dir / "fields.npz"))
    if corrupt == "nan":
        npz["a"][-1, 3] = np.nan
    else:
        npz["a"], npz["b"] = npz["a"][:, :-1], npz["b"][:, :-1]
    np.savez(run_dir / "fields.npz", **npz)
    capsys.readouterr()
    assert main(["verify", str(run_dir), *(["--quick"] if quick else [])]) \
        == 2
    err = capsys.readouterr().err.strip()
    assert "fields.npz" in err and "\n" not in err
    assert not (run_dir / "verification.json").exists()


@pytest.mark.parametrize("name,corrupt", [
    ("summary.json", lambda p: p.write_text(json.dumps(
        {k: v for k, v in json.loads(p.read_text()).items() if k != "B0"}))),
    ("trace.csv", lambda p: p.write_text("garbage\n")),
    ("trace.csv", lambda p: p.write_text("t,mass\n0,2\n1\n")),
    ("config.json", lambda p: p.write_text("{not json")),
    ("fields.npz", lambda p: p.write_bytes(p.read_bytes()[:300])),
], ids=["summary-without-B0", "trace-garbage", "trace-short-row",
        "config-not-json", "fields-truncated"])
def test_verify_rejects_corrupt_run_files(run_dir, capsys, name, corrupt):
    """A malformed file of the run directory gives exit 2 and a one-line
    error naming it, not a traceback."""
    corrupt(run_dir / name)
    capsys.readouterr()
    assert main(["verify", str(run_dir), "--quick"]) == 2
    err = capsys.readouterr().err.strip()
    assert re.match(rf"error: \S*{re.escape(name)} is malformed \(", err)
    assert "\n" not in err


@pytest.mark.parametrize("record_stride", [0.15, 0.4])
def test_snapshots_kept_whatever_the_record_stride(tmp_path, record_stride):
    """field_stride 0.25 keeps all 9 snapshots of t_end = 2 when it is not
    a multiple of record_stride, each a row of the trace, and a full
    verify reaches the report."""
    doc = json.loads(json.dumps(CFG))
    doc["grid"]["resolution"] = 32
    doc["stepper"]["record_stride"] = record_stride
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    with np.load(out / "fields.npz") as npz:
        times = npz["times"]
    np.testing.assert_allclose(times, np.arange(9) * 0.25, atol=1e-12)
    with open(out / "trace.csv", newline="") as fh:
        trace_t = [float(r[0]) for r in list(csv.reader(fh))[1:]]
    assert set(times.tolist()) <= set(trace_t)
    assert main(["verify", str(out)]) in (0, 3)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_command(cfg_path, tmp_path, capsys):
    out = tmp_path / "ledger.json"
    assert main(["constants", str(cfg_path), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    led = doc["ledger"]
    assert led["C0"]["value"] < 1.0
    assert led["C1"]["value"] >= 1.0
    assert led["beta"]["log"] is not None
    assert "exact_integer" not in led["ell"]
    capsys.readouterr()


def test_constants_fine_1d_grid(tmp_path, capsys):
    """The ledger's eigen-solve converges on the shipped 1-D config refined
    to 4096 cells, so `constants` exits 0 rather than 2."""
    raw = json.loads(Path("configs/degenerate_bump.json").read_text())
    raw["grid"]["resolution"] = 4096
    cfg = tmp_path / "fine.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "ledger.json"
    assert main(["constants", str(cfg), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["ledger"]["Cp"]["value"] \
        == pytest.approx(1.0 / np.pi ** 2, rel=1e-6)
    capsys.readouterr()


def test_zero_catalyst_floor_has_no_ledger(tmp_path, capsys):
    """A pure-diffusion config (constant catalyst, k0 = 0) simulates and
    passes the quick verify; `constants` and a full verify exit 1 with one
    line naming catalyst.k0."""
    doc = json.loads(json.dumps(CFG))
    doc["grid"]["resolution"] = 32
    doc["catalyst"] = {"kind": "constant", "k0": 0}
    doc["stepper"].update(t_end=1.0, field_stride=0.125)
    doc["weights"]["T"] = 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "-o", str(out)]) == 0
    assert main(["verify", str(out), "--quick"]) == 0
    for argv in (["constants", str(cfg)], ["verify", str(out)]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert "catalyst.k0" in err


# ---------------------------------------------------------------------------
# interp-check
# ---------------------------------------------------------------------------

def _write_series(path, t, y, N):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y", "N"])
        for row in zip(t, y, N):
            w.writerow(["%.17g" % v for v in row])


def test_interp_check_pass_and_fail(tmp_path, capsys):
    t = np.linspace(0, 1, 201)
    good = tmp_path / "good.csv"
    _write_series(good, t, np.exp(-t), np.full_like(t, 0.5))
    args = ["--t1", "0.2", "--t2", "0.5", "--t3", "0.8",
            "--T", "1.0", "--h", "0.1"]
    assert main(["interp-check", str(good)] + args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"]
    assert report["M"] == pytest.approx(3 * math.log(2) / math.log(1.5),
                                        rel=1e-12)

    bad = tmp_path / "bad.csv"
    _write_series(bad, t, np.exp(10 * t), np.full_like(t, 0.5))
    assert main(["interp-check", str(bad)] + args) == 3
    assert not json.loads(capsys.readouterr().out)["pass"]


def test_interp_check_missing_column_exits_1(tmp_path, capsys):
    p = tmp_path / "s.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y"])
        w.writerow(["0", "1"])
        w.writerow(["1", "1"])
    assert main(["interp-check", str(p), "--t1", "0.2", "--t2", "0.5",
                 "--t3", "0.8", "--T", "1.0", "--h", "0.1"]) == 1
    assert "N" in capsys.readouterr().err


_WINDOW = ["--t1", "0.2", "--t2", "0.5", "--t3", "0.8", "--T", "1.0",
           "--h", "0.1"]


@pytest.mark.parametrize("text", ["t,y,N\n0,1,abc\n1,1,1\n",
                                  "t,y,N\n0,1\n1,1,1\n", ""],
                         ids=["non-numeric", "short-row", "empty"])
def test_interp_check_malformed_series_exits_1(tmp_path, capsys, text):
    p = tmp_path / "series.csv"
    p.write_text(text)
    assert main(["interp-check", str(p)] + _WINDOW) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "series.csv" in err
    assert "\n" not in err


@pytest.mark.parametrize("sign,extra,needle", [
    (1, ["--h", "0"], "h must be positive"),
    (1, ["--h", "-0.1"], "h must be positive"),
    (1, ["--t1", "0.6"], "t1 < t2 < t3"),
    (-1, [], "nonnegative"),
])
def test_interp_check_bad_input_exits_1(tmp_path, capsys, sign, extra,
                                        needle):
    """A shift h <= 0 (the lemma's T - t + h reaches 0), times out of order
    and a negative y are usage errors, not numerical failures; a later flag
    overrides the window's."""
    p = tmp_path / "s.csv"
    t = np.linspace(0, 1, 201)
    _write_series(p, t, sign * np.exp(-t), np.full_like(t, 0.5))
    assert main(["interp-check", str(p)] + _WINDOW + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize("t_end,extra,needle", [
    (1.0, ["--C1", "-1"], "C1 must be nonnegative"),
    (2.0, ["--t3", "1.5"], "T + h"),
])
def test_interp_check_outside_the_lemma_exits_1(tmp_path, t_end, extra,
                                                needle):
    """A negative C1, or a series with a sample at or past T + h, exits 1
    naming the flag.  Both once looped without end in the weighted time
    integral, so they run in a process of their own with a timeout."""
    p = tmp_path / "s.csv"
    t = np.linspace(0, t_end, 201)
    _write_series(p, t, np.exp(-t), np.full_like(t, 0.5))
    proc = subprocess.run(
        [sys.executable, "-m", "degenrd.cli", "interp-check", str(p)]
        + _WINDOW + extra, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert needle in proc.stderr


# ---------------------------------------------------------------------------
# sweep and plot-data
# ---------------------------------------------------------------------------

def test_sweep_writes_comparison_table(cfg_path, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg_path), "--param", "k0",
                 "--values", "0.5,1.0", "-o", str(out), "-j", "1"]) == 0
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["param", "value", "beta_obs", "r_squared"]
    assert [r[1] for r in rows[1:]] == ["0.5", "1"]
    rates = [float(r[2]) for r in rows[1:]]
    assert all(r > 0 for r in rates)
    assert rates[0] < rates[1]  # stronger catalyst decays faster
    assert (out / "k0_1" / "summary.json").exists()


def test_sweep_rejects_unknown_param(cfg_path, tmp_path):
    assert main(["sweep", str(cfg_path), "--param", "zeta",
                 "--values", "1", "-o", str(tmp_path / "s")]) == 1


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Replaces the sweep's ProcessPoolExecutor, which `cmd_sweep` imports
    from concurrent.futures when it runs, with one that maps in this
    process, so no worker process starts; returns its max_workers list."""
    import concurrent.futures
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    return sizes


@pytest.mark.parametrize("jobs,workers", [("5000", [2]), ("1", [])],
                         ids=["capped", "serial"])
def test_sweep_workers_capped_by_points(pool_sizes, tmp_path, jobs,
                                        workers):
    doc = json.loads(json.dumps(CFG))
    doc["grid"]["resolution"] = 16
    doc["stepper"].update(t_end=1.0)
    doc["weights"]["T"] = 1.0
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--param", "k0", "--values", "0.5,1.0",
                 "-j", jobs, "-o", str(out)]) == 0
    assert pool_sizes == workers
    assert len((out / "comparison.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_nonpositive_jobs(pool_sizes, cfg_path, tmp_path,
                                        capsys, jobs):
    out = tmp_path / "s"
    assert main(["sweep", str(cfg_path), "--param", "k0", "--values", "1",
                 "-j", jobs, "-o", str(out)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists() and pool_sizes == []


@pytest.mark.parametrize("param,key,weights", [
    ("k0", "catalyst.k0", False),
    ("r", "catalyst.r", False),              # weights.r defaults to r
    ("r", "catalyst.r", True),               # weights.r = 0.1 set
], ids=["k0-catalyst.k0", "r-catalyst.r", "r-catalyst.r-weights.r-set"])
def test_sweep_checks_every_point_first(pool_sizes, tmp_path, capsys, param,
                                        key, weights):
    """A bad value anywhere in --values exits 1 naming its key and value
    before any point runs or any directory is made (the valid 0.1 point
    before it used to run in full and leave its directory; with weights.r
    set, r = -1 ran too)."""
    doc = json.loads(json.dumps(CFG))
    if not weights:
        del doc["weights"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--param", param, "--values", "0.1,-1",
                 "-j", "1", "-o", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert key in err and "= -1:" in err
    assert not out.exists() and pool_sizes == []


@pytest.mark.parametrize("values", ["0.1,0.1", "0.1,0.10000000000000001"])
def test_sweep_rejects_a_repeated_value(pool_sizes, cfg_path, tmp_path,
                                        capsys, values):
    """Equal values, however written, would share one point directory
    (both workers writing it at once under -j 2) and one table row twice."""
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg_path), "--param", "r", "--values", values,
                 "-j", "2", "-o", str(out)]) == 1
    assert "repeats 0.10000000000000001" in capsys.readouterr().err
    assert not out.exists() and pool_sizes == []


def test_plot_data_long_format(run_dir):
    assert main(["plot-data", str(run_dir)]) == 0
    with open(run_dir / "plot_data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "channel", "value"]
    channels = {r[1] for r in rows[1:]}
    assert "l2_dist" in channels and "mass" in channels


# ---------------------------------------------------------------------------
# process-level entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_usage_error():
    proc = subprocess.run([sys.executable, "-m", "degenrd.cli"],
                          capture_output=True)
    assert proc.returncode == 1


def test_main_freezes_the_imports_once(run_dir):
    """The first `main` call moves the live objects into the collector's
    permanent generation; a second call in the same process adds none."""
    code = ("import contextlib, gc, io, sys\n"
            "from degenrd.cli import main\n"
            "counts = [gc.get_freeze_count()]\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(['verify', '--quick', sys.argv[1]]) == 0\n"
            "    counts.append(gc.get_freeze_count())\n"
            "print(*counts)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(run_dir)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, first, second = map(int, proc.stdout.split())
    assert before == 0 and first > 0 and second == first


def test_bundled_configs_parse():
    from degenrd.config import load_config
    for name in ("equilibrium.json", "degenerate_bump.json"):
        rc = load_config(f"configs/{name}")
        assert rc.sim.resolution >= 8
