"""Command-line workflows: persisted artifacts, exit codes, determinism."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from degenrd.cli import main

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
    assert led["ell"]["exact_integer"] is False
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
    assert report["M"] == pytest.approx(5.128533953063608, rel=1e-10)

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


def test_bundled_configs_parse():
    from degenrd.config import load_config
    for name in ("equilibrium.json", "degenerate_bump.json"):
        rc = load_config(f"configs/{name}")
        assert rc.sim.resolution >= 8
