"""Acceptance suite: ten top-level criteria, one pass/fail line each.

Each test evaluates one criterion at its stated tolerance, prints a single
`criterion NN (<name>): PASS|FAIL` line, and asserts.  Everything runs at
desk scale (1-D, resolutions 128-512, horizons <= 10).
"""

import csv
import json
import math

import numpy as np
import pytest

from degenrd.constants import build_ledger
from degenrd.diagnostics import energy_identity_residuals, fit_decay_rate
from degenrd.grid import build_grid
from degenrd.logconv import (InterpInput, antisym_form, frequency_trace,
                             interp_check, tilt)
from degenrd.solver import CatalystSpec, InitialSpec, SimConfig, run
from degenrd.verify import (decay_certificate_check,
                            observation_estimate_check,
                            theta_contraction_check)
from degenrd.weights import PsiJet, WeightParams, psi_at_x0, weight_fields


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line + (f" -- {detail}" if detail else "")


# ---------------------------------------------------------------------------
# 1. conservation & monotonicity on the reference degenerate run
# ---------------------------------------------------------------------------

def test_criterion_01_conservation_monotonicity(ref_run):
    tr = ref_run.trace
    conds = {
        "mass": float(np.max(np.abs(tr["mass"] - 2.0))) <= 1e-8,
        "l2_monotone": float(np.max(np.diff(tr["l2_dist"]),
                                    initial=0.0)) <= 1e-8,
        "l3_monotone": float(np.max(tr["l3_sum"]
                                    - tr["l3_sum"][0])) <= 1e-6,
        "min_principle": float(np.min(tr["min_ab"])) >= ref_run.B0 - 1e-6,
    }
    _report(1, "conservation and monotonicity", all(conds.values()),
            str(conds))


# ---------------------------------------------------------------------------
# 2. solver accuracy oracle (pure diffusion, slowest cosine mode)
# ---------------------------------------------------------------------------

def _heat_rate_error(res: int, dt: float) -> float:
    cfg = SimConfig(dim=1, resolution=res, dt=dt, t_end=0.5,
                    record_stride=4 * dt,
                    catalyst=CatalystSpec(kind="constant", k0=0.0),
                    initial=InitialSpec(kind="cosine", amplitude=0.3))
    fit = fit_decay_rate(run(cfg).trace, "l2_dist")
    return fit["rate"] / 2.0 - math.pi ** 2   # signed field-rate error


def test_criterion_02_solver_accuracy_oracle():
    err_fine = _heat_rate_error(256, 1e-3)
    within = abs(err_fine) <= 0.02 * math.pi ** 2
    err_coarse = _heat_rate_error(128, 2e-3)
    order = math.log2(abs(err_coarse) / abs(err_fine))
    _report(2, "diffusion rate oracle and refinement order",
            within and order >= 1.9,
            f"rel_err={abs(err_fine) / math.pi ** 2:.3e} "
            f"order={order:.2f}")


# ---------------------------------------------------------------------------
# 3. energy identity at discretization order
# ---------------------------------------------------------------------------

def _energy_residual(res: int, dt: float, stride: float) -> float:
    cfg = SimConfig(dim=1, resolution=res, dt=dt, t_end=2.0,
                    record_stride=stride,
                    catalyst=CatalystSpec(kind="bump", k0=1.0, x0=0.25,
                                          r=0.1),
                    initial=InitialSpec(kind="cosine", amplitude=0.3))
    r = run(cfg)
    # compare over a window common to both refinement levels (the first
    # interior sample sits at a resolution-dependent time otherwise)
    interior_t = r.trace.times[1:-1]
    res, _ = energy_identity_residuals(r.trace)
    return float(np.max(res[interior_t >= 0.1]))


def test_criterion_03_energy_identity():
    coarse = _energy_residual(128, 2e-3, 0.02)
    fine = _energy_residual(256, 1e-3, 0.01)
    order = math.log2(coarse / fine)
    C_est = coarse / ((2e-3) ** 2 + (1.0 / 128) ** 2 + 0.02 ** 2)
    envelope = fine <= 1.25 * C_est * ((1e-3) ** 2 + (1.0 / 256) ** 2
                                       + 0.01 ** 2)
    _report(3, "energy identity residual order", order >= 1.9 and envelope,
            f"order={order:.2f} coarse={coarse:.3e} fine={fine:.3e}")


# ---------------------------------------------------------------------------
# 4. boundary-cancellation of the antisymmetric tilted form
# ---------------------------------------------------------------------------

def _aff_at(res: int, p: WeightParams) -> float:
    g = build_grid(1, res)
    x = g.centers[:, 0]
    a = 1.0 + 0.3 * np.cos(math.pi * (x + 0.5)) \
        + 0.1 * np.cos(3 * math.pi * (x + 0.5))
    b = 1.0 - 0.2 * np.cos(2 * math.pi * (x + 0.5))
    t = 0.5 * p.T
    k = CatalystSpec(kind="bump", k0=1.0, x0=p.x0_abs, r=p.r).values(g, t)
    ts = tilt(g, t, np.array([a, b]), k, weight_fields(p, g), 1.0, 1.0)
    return abs(antisym_form(ts))


@pytest.mark.parametrize("p", [
    WeightParams(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=10.0, dim=1),
    WeightParams(x0_abs=0.2, r=0.08, s=0.3, h=0.2, T=5.0, dim=1),
    WeightParams(x0_abs=0.3, r=0.1, s=0.8, h=0.5, T=2.0, dim=1),
])
def test_criterion_04_antisymmetric_cancellation(p):
    coarse, fine = _aff_at(128, p), _aff_at(256, p)
    order = math.log2(coarse / fine)
    _report(4, f"antisymmetric-form cancellation (s={p.s}, h={p.h}, "
               f"T={p.T}, x0={p.x0_abs})", order >= 1.9,
            f"order={order:.2f}")


# ---------------------------------------------------------------------------
# 5. weight geometry clauses with the ledger's constants
# ---------------------------------------------------------------------------

def test_criterion_05_weight_geometry(ref_ledger, ref_params):
    g = ref_ledger.geometry
    p = ref_params
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-p.radius, p.radius, (10_000, 1))
    jet = PsiJet(p, pts)
    psi = jet.psi
    grad_sq = jet.grad.reshape(-1) ** 2
    peak = psi_at_x0(p)
    phi1, phi3 = psi - peak, -psi - peak
    dist0 = np.abs(pts[:, 0] - p.x0_abs)
    annulus = np.abs(pts[:, 0]) >= g.rho
    inner = ~annulus & (dist0 > 1e-4)
    nbhd = (dist0 <= 0.5 * (p.radius - p.x0_abs)) & (dist0 > 1e-4)
    viol = 0
    viol += int(np.sum(grad_sq > g.c1 * np.abs(phi1) + 1e-12))
    viol += int(np.sum(grad_sq > g.c1 * np.abs(phi3) + 1e-12))
    viol += int(np.sum(np.abs(phi1[annulus])
                       > g.c2 * grad_sq[annulus] + 1e-12))
    viol += int(np.sum(np.abs(phi1[inner]) > g.c2 * grad_sq[inner] + 1e-12))
    viol += int(np.sum((phi3 - phi1)[~annulus] > -g.c3 + 1e-12))
    viol += int(np.sum((peak - psi[nbhd]) < g.c01 * grad_sq[nbhd] - 1e-12))
    viol += int(np.sum((peak - psi[nbhd]) > g.c02 * grad_sq[nbhd] + 1e-12))

    # gradient order-2 against central differences
    errs = []
    sample = pts[::50]
    for eps in (1e-4, 5e-5):
        fd = (PsiJet(p, sample + eps).psi - PsiJet(p, sample - eps).psi) \
            / (2 * eps)
        errs.append(np.max(np.abs(PsiJet(p, sample).grad.reshape(-1)
                                  - fd)))
    order2 = errs[0] / max(errs[1], 1e-15) > 3.0
    _report(5, "weight geometry clauses and gradient order",
            viol == 0 and order2, f"violations={viol}")


# ---------------------------------------------------------------------------
# 6. three-time interpolation checker
# ---------------------------------------------------------------------------

def test_criterion_06_interpolation_checker(ref_ledger):
    t = np.linspace(0.0, 1.0, 201)
    zeros = np.zeros_like(t)
    closed = interp_check(InterpInput(
        times=t, y=np.exp(-t), N=np.full_like(t, 0.5), F1=zeros, F2=zeros,
        C0=0.0, C1=0.0, h=0.1, T=1.0, t1=0.2, t2=0.5, t3=0.8))
    const = interp_check(InterpInput(
        times=t, y=np.ones_like(t), N=zeros, F1=zeros, F2=zeros,
        C0=0.0, C1=0.0, h=0.1, T=1.0, t1=0.2, t2=0.5, t3=0.8))

    cfg = SimConfig(dim=1, resolution=256,
                    catalyst=CatalystSpec(kind="bump", k0=1.0, x0=0.25,
                                          r=0.1),
                    initial=InitialSpec(kind="cosine", amplitude=0.3),
                    t_end=2.0, record_stride=0.05, field_stride=0.05)
    r = run(cfg)
    p = WeightParams(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=2.0, dim=1)
    ft = frequency_trace(r, weight_fields(p, r.grid))
    C0, C1 = ref_ledger.C0, ref_ledger.C1
    n = ft.times.size
    fed = interp_check(InterpInput(
        times=ft.times, y=ft["norm2"], N=ft["N"],
        F1=np.full(n, C1 / p.h), F2=np.full(n, 2.0 * C1 / p.h ** 2),
        C0=C0, C1=C1, h=p.h, T=p.T, t1=0.5, t2=1.0, t3=1.5))
    ok = (closed["pass"] and closed["conclusion_margin"] >= 0
          and const["pass"]
          and fed["hypothesis_violations"] == []
          and fed["conclusion_margin"] >= -fed["fd_tolerance"])
    _report(6, "three-time interpolation checker", ok,
            f"fed_margin={fed['conclusion_margin']:.3e} "
            f"violations={fed['hypothesis_violations']}")


# ---------------------------------------------------------------------------
# 7. observation estimate at three horizons
# ---------------------------------------------------------------------------

def test_criterion_07_observation_estimate(ref_run):
    ok = True
    details = []
    for T in (1.0, 5.0, 10.0):
        p = WeightParams(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=T, dim=1)
        led = build_ledger(ref_run.grid, p, ref_run.config,
                           ref_run.snapshots[0])
        out = observation_estimate_check(ref_run, led)
        # strict: the margin is nonnegative, not just within the check's
        # tolerance
        ok = ok and out.passed and out.margin >= 0.0
        details.append(f"T={T}: margin={out.margin:.6e}")
    _report(7, "observation estimate (three horizons)", ok,
            "; ".join(details))


# ---------------------------------------------------------------------------
# 8. decay certificate and per-window contraction
# ---------------------------------------------------------------------------

def test_criterion_08_decay_certificate(ref_run, ref_ledger):
    cert = decay_certificate_check(ref_run, ref_ledger)
    contr = theta_contraction_check(ref_run, ref_ledger)
    beta_obs = fit_decay_rate(ref_run.trace, "l2_dist")["rate"]
    strict = (ref_ledger.log_beta is not None
              and float(ref_ledger.log_beta) < 0
              and np.isfinite(float(ref_ledger.ln_theta))
              and ref_ledger.ln_theta <= 0.0)
    ok = (cert.passed and contr.passed and beta_obs >= ref_ledger.beta
          and strict)
    _report(8, "decay certificate and contraction", ok,
            f"beta_obs={beta_obs:.3f} ledger_beta={ref_ledger.beta:.3e}")


# ---------------------------------------------------------------------------
# 9. ledger integrity and determinism
# ---------------------------------------------------------------------------

def test_criterion_09_ledger_integrity(ref_run, ref_params, ref_ledger):
    led = ref_ledger
    import mpmath as mp
    integrity = (
        0.0 < led.C0 < 1.0
        and led.C1 > 1.0
        and 0.0 < led.s2 <= 1.0
        and 0.0 < led.theta <= 1.0 and float(led.log_beta) < 0
        and led.gamma * led.theta == pytest.approx(1.0, rel=1e-12)
        and led.ln_theta == -2.0 * led.beta
        and mp.log(led.M_ell) <= led.ln_M_ell_bound
    )
    led2 = build_ledger(ref_run.grid, ref_params, ref_run.config,
                        ref_run.snapshots[0])
    deterministic = json.dumps(led.as_json(), sort_keys=True) \
        == json.dumps(led2.as_json(), sort_keys=True)
    _report(9, "ledger integrity and determinism",
            integrity and deterministic,
            f"integrity={integrity} deterministic={deterministic}")


# ---------------------------------------------------------------------------
# 10. shrinking-support comparison
# ---------------------------------------------------------------------------

def test_criterion_10_shrinking_support(tmp_path):
    from degenrd.cli import main
    cfg = {
        "domain": {"dim": 1},
        "grid": {"resolution": 128},
        "catalyst": {"kind": "bump", "k0": 1.0, "x0": 0.25, "r": 0.1},
        "initial": {"kind": "cosine", "amplitude": 0.3},
        "stepper": {"t_end": 6.0, "record_stride": 0.05},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    code = main(["sweep", str(cfg_path), "--param", "r",
                 "--values", "0.2,0.1,0.05", "-o", str(out), "-j", "1"])
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    rates = [float(r[2]) for r in rows]
    # full-support baseline
    full = run(SimConfig(dim=1, resolution=128,
                         catalyst=CatalystSpec(kind="constant", k0=1.0),
                         initial=InitialSpec(kind="cosine", amplitude=0.3),
                         t_end=6.0, record_stride=0.05))
    rates.insert(0, fit_decay_rate(full.trace, "l2_dist")["rate"])
    ok = code == 0 and all(r > 0 for r in rates)
    _report(10, "exponential decay survives shrinking catalyst support",
            ok, f"rates={['%.3f' % r for r in rates]}")
