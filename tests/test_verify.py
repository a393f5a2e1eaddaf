"""End-to-end audits: every reported inequality must pass on good runs
and the auditor must report (not crash on) bad ones."""

import numpy as np
import pytest

from degenrd.grid import ball_mask, dirichlet_energy, integrate
from degenrd.solver import CatalystSpec, InitialSpec, SimConfig, run
from degenrd.verify import audit, beta1_chain_check, read_times


@pytest.fixture(scope="module")
def ref_audit(ref_run, ref_ledger):
    return audit(ref_run, ref_ledger)


def test_reference_audit_all_pass(ref_audit):
    failed = [e["invariant_id"] for e in ref_audit if not e["pass"]]
    assert failed == []


def test_reference_audit_coverage(ref_audit):
    ids = {e["invariant_id"] for e in ref_audit}
    expected = {
        "mass_conservation", "l2_monotone", "l3_monotone",
        "min_principle", "mean_zero_shift", "energy_identity",
        "decay_certificate", "theta_contraction", "beta1_dissipation",
        "antisymmetric_residual", "sym_form_two_ways",
        "frequency_growth", "tilted_energy_identity",
        "tilted_derivative_bound", "source_norm_bound",
        "observation_estimate", "interpolation_window",
    }
    assert expected <= ids


FULL_VERIFY_IDS = [
    "mass_conservation", "l2_monotone", "l3_monotone", "min_principle",
    "mean_zero_shift", "energy_identity", "decay_certificate",
    "theta_contraction", "beta1_dissipation", "antisymmetric_residual",
    "sym_form_two_ways", "frequency_growth", "tilted_energy_identity",
    "tilted_derivative_bound", "source_norm_bound", "observation_estimate",
    "interpolation_window",
]


def test_full_verify_report_layout(ref_audit, tmp_path):
    """The ids of a full verify, in order, for the reference 1-D run and a
    2-D n=16 run."""
    import json
    from degenrd.cli import main
    assert [e["invariant_id"] for e in ref_audit] == FULL_VERIFY_IDS
    cfg = {"domain": {"dim": 2}, "grid": {"resolution": 16},
           "catalyst": {"kind": "bump", "k0": 1.0, "x0": 0.25, "r": 0.1},
           "stepper": {"t_end": 2.0},
           "weights": {"x0_abs": 0.25, "r": 0.1, "T": 2.0}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", str(tmp_path / "cfg.json"), "-o", str(out)]) \
        == 0
    assert main(["verify", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert [e["invariant_id"] for e in report["checks"]] == FULL_VERIFY_IDS


def test_read_times_of_a_full_verify():
    """0, T/2 and the window times T - 2L, T - L, T with
    L = min(1/2, T/4)/2."""
    assert read_times(10.0) == [0.0, 5.0, 9.5, 9.75, 10.0]
    assert read_times(0.5) == [0.0, 0.25, 0.375, 0.4375, 0.5]


def test_audit_entries_serializable(ref_audit):
    import json
    json.dumps(ref_audit)
    for e in ref_audit:
        assert set(e) == {"invariant_id", "reference", "pass", "margin",
                          "tolerance"}
        assert e["reference"]  # every entry carries a human explanation


def test_audit_deterministic(ref_run, ref_ledger, ref_audit):
    import json
    again = audit(ref_run, ref_ledger)
    assert json.dumps(again, sort_keys=True) \
        == json.dumps(ref_audit, sort_keys=True)


def test_diagnostics_audit_wrapper(ref_run):
    entries = audit(ref_run)
    assert all(e["pass"] for e in entries)
    assert {e["invariant_id"] for e in entries} >= {"mass_conservation",
                                                    "l2_monotone"}


def test_degenerate_catalyst_skips_beta1(ref_audit):
    entry = next(e for e in ref_audit
                 if e["invariant_id"] == "beta1_dissipation")
    assert "skipped" in entry["reference"]
    assert entry["pass"]


def test_full_catalyst_runs_beta1(ref_ledger):
    cfg = SimConfig(dim=1, resolution=128,
                    catalyst=CatalystSpec(kind="constant", k0=1.0),
                    initial=InitialSpec(kind="cosine", amplitude=0.3),
                    t_end=4.0, record_stride=0.05, field_stride=0.25)
    check = beta1_chain_check(run(cfg), ref_ledger)
    assert "skipped" not in check.reference
    assert check.passed


def _beta1_margin_from_snapshots(r, ledger):
    """The snapshot recomputation that `beta1_chain_check` replaced by
    trace reads, kept as the reference."""
    cfg, grid = r.config, r.grid
    mask = ball_mask(grid, cfg.catalyst.x0, cfg.catalyst.r)
    worst = float("inf")
    for t, (a, b) in zip(r.snapshot_times.tolist(), r.snapshots):
        u1, u2 = a - 1.0, b - 1.0
        total = integrate(grid, u1 * u1 + u2 * u2)
        noise = (2.3e-16 * max(t, r.dt) / r.dt) ** 2
        if total < max(1e-30, 1e4 * noise):
            continue
        k = cfg.catalyst.values(grid, t)
        diss = (cfg.d1 * dirichlet_energy(grid, u1)
                + cfg.d2 * dirichlet_energy(grid, u2)
                + integrate(grid, k * (a + b) * (u2 - u1) ** 2))
        lhs = 2.0 * float(np.dot(grid.volumes[mask],
                                 (u1 * u1 + u2 * u2)[mask]))
        worst = min(worst, (4.0 * ledger.beta1 * diss - lhs) / (2.0 * total))
    return worst


def test_beta1_trace_margin_matches_snapshot_recomputation(ref_ledger):
    cfg = SimConfig(dim=1, resolution=128,
                    catalyst=CatalystSpec(kind="constant", k0=1.0),
                    initial=InitialSpec(kind="cosine", amplitude=0.3),
                    t_end=4.0, record_stride=0.05, field_stride=0.25)
    r = run(cfg)
    check = beta1_chain_check(r, ref_ledger)
    ref = _beta1_margin_from_snapshots(r, ref_ledger)
    assert "skipped" not in check.reference
    assert np.isfinite(ref)
    assert check.margin == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_bad_run_reported_not_crashed():
    """Corrupted trace data must come back as failed entries with finite
    margins, never as an exception."""
    cfg = SimConfig(dim=1, resolution=64,
                    catalyst=CatalystSpec(kind="bump", k0=1.0, x0=0.25,
                                          r=0.1),
                    initial=InitialSpec(kind="cosine", amplitude=0.3),
                    t_end=2.0, record_stride=0.05, field_stride=0.25)
    r = run(cfg)
    r.trace.channels["mass"] = r.trace.channels["mass"] + 1e-3
    bad_l2 = r.trace.channels["l2_dist"].copy()
    bad_l2[len(bad_l2) // 2] *= 10.0
    r.trace.channels["l2_dist"] = bad_l2
    entries = audit(r)
    assert all(np.isfinite(e["margin"]) for e in entries)
    by_id = {e["invariant_id"]: e for e in entries}
    assert not by_id["mass_conservation"]["pass"]
    assert not by_id["l2_monotone"]["pass"]


def test_full_audit_assembles_the_antisymmetric_form_once(monkeypatch):
    """A full audit of the 2-D n=32 workload (9 snapshots up to T) takes
    the cell gradients of <Af,f> for the four rows of one tilted state,
    the T/2 snapshot's, and no others."""
    from pathlib import Path

    from degenrd import grid as grid_mod, logconv
    from degenrd.config import load_config
    from degenrd.constants import build_ledger

    rc = load_config(Path(__file__).resolve().parents[1] / "perfbench"
                     / "workloads" / "disk2d.json")
    r = run(rc.sim)
    ledger = build_ledger(r.grid, rc.weights, rc.sim, r.snapshots[0])
    gradient, calls = grid_mod.cell_gradient, []

    def counted(grid, values):
        calls.append(values.shape)
        return gradient(grid, values)

    monkeypatch.setattr(grid_mod, "cell_gradient", counted)
    monkeypatch.setattr(logconv, "cell_gradient", counted)
    entries = audit(r, ledger)
    assert r.snapshot_times.size == 9
    assert len(calls) == 4
    assert all(e["pass"] for e in entries)
