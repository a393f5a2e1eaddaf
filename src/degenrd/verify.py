"""Run-level verification: ledger-dependent inequality audits.

Collects every checkable inequality for one finished run into a flat list
of audit entries {invariant_id, reference, pass, margin, tolerance}.  The
solver-level conservation checks live in `diagnostics`; here the ledger
constants and the tilted-norm machinery are brought in.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import TOLERANCES, CheckResult, fd_derivative, solver_checks
from .logconv import (antisym_form, frequency_trace, growth_violations,
                      interpolation_window_check, observation_estimate_check,
                      sym_form, sym_form_direct, tilt)
from .solver import RunResult
from .weights import WeightFields, weight_fields

_FLOOR = TOLERANCES["norm_floor"]


def decay_certificate_check(run: RunResult, ledger) -> CheckResult:
    """ln y(t) <= ln y(0) + 2*beta - beta*t along the whole trace.

    beta comes from the ledger's contraction factor; it is astronomically
    small, so the certified rate is weak but the inequality is genuine.
    """
    tr = run.trace
    beta = ledger.beta
    y = tr["l2_dist"]
    mask = y >= _FLOOR
    if not np.any(mask) or y[0] < _FLOOR:
        return CheckResult("decay_certificate",
                           "certified exponential decay of the squared "
                           "distance (trivial: run starts at equilibrium)",
                           0.0, 0.0)
    ln_y0 = math.log(y[0])
    margins = (ln_y0 + 2.0 * beta - beta * tr.times[mask]
               - np.log(y[mask]))
    return CheckResult("decay_certificate",
                       "certified exponential decay of the squared "
                       "distance to equilibrium",
                       float(np.min(margins)), TOLERANCES["l2_monotone"])


def theta_contraction_check(run: RunResult, ledger) -> CheckResult:
    """y(2m+2) <= theta * y(2m) on every unit-2 subinterval of the run."""
    tr = run.trace
    ln_theta = float(ledger.ln_theta)
    worst = float("inf")
    m = 0
    while 2.0 * (m + 1) <= tr.times[-1] + 1e-9:
        try:
            i0, i1 = tr.index_at(2.0 * m), tr.index_at(2.0 * (m + 1))
        except KeyError:
            break
        y0, y1 = tr["l2_dist"][i0], tr["l2_dist"][i1]
        if y0 >= _FLOOR and y1 >= _FLOOR:
            worst = min(worst, math.log(y0) + ln_theta - math.log(y1))
        m += 1
    if worst == float("inf"):
        return CheckResult("theta_contraction",
                           "per-window contraction factor (trivial: decayed "
                           "or too-short run)", 0.0, 0.0)
    return CheckResult("theta_contraction",
                       "squared distance contracts by theta over each "
                       "window of length 2",
                       worst, TOLERANCES["l2_monotone"])


def beta1_chain_check(run: RunResult, ledger) -> CheckResult:
    """2*||u||^2 <= 4*beta1*(total dissipation), snapshot by snapshot.

    Valid when the catalyst is bounded below by k0 on the whole domain (the
    spectral-gap route needs the reaction term active everywhere); for a
    degenerate catalyst the check is reported as skipped.  The norms and
    the dissipation are the trace's, read at the snapshot times; its
    `l2_ball` is over the catalyst's ball.
    """
    tr = run.trace
    k_min = float(np.min(run.config.catalyst.values(run.grid, 0.0)))
    if k_min < ledger.k0 * (1.0 - 1e-9):
        return CheckResult("beta1_dissipation",
                           "dissipation controls the squared distance "
                           "(skipped: catalyst vanishes somewhere)",
                           0.0, 0.0)
    diss = (tr["dissipation_grad_a"] + tr["dissipation_grad_b"]
            + tr["dissipation_reaction"])
    worst = float("inf")
    for t in run.snapshot_times.tolist():
        i = tr.index_at(t)
        total = tr["l2_dist"][i]
        # accumulated-roundoff noise floor: each implicit solve leaves a
        # relative residual of machine size, so after t/dt steps the field
        # noise is ~eps*(t/dt); below 100x that level (squared) the
        # inequality compares rounding artifacts
        noise = (2.3e-16 * max(t, run.dt) / run.dt) ** 2
        if total < max(_FLOOR, 1e4 * noise):
            continue
        lhs = 2.0 * tr["l2_ball"][i]
        worst = min(worst,
                    (4.0 * ledger.beta1 * diss[i] - lhs) / (2.0 * total))
    return CheckResult("beta1_dissipation",
                       "dissipation on the observation ball is controlled "
                       "by the spectral-gap constant",
                       worst, 1e-9)


def tilted_form_checks(run: RunResult, wf: WeightFields) -> list[CheckResult]:
    """Residual checks on the tilted quadratic forms at a mid-run state.

    The antisymmetric form and the direct/integrated-by-parts disagreement
    both vanish at discretization order; the budget here is a generous
    O(spacing^2) envelope (the refinement tests measure the order sharply).
    The snapshot nearest T/2 is tilted once; every form is read from it.
    """
    cfg = run.config
    t, u = run.snapshot_at(min(0.5 * wf.params.T, run.snapshot_times[-1]))
    ts = tilt(run.grid, t, u, cfg.catalyst.values(run.grid, t), wf, cfg.d1,
              cfg.d2)
    Sff, Aff, Sff_direct = (form(ts) for form in
                            (sym_form, antisym_form, sym_form_direct))
    scale = max(ts.norm2(), abs(Sff), _FLOOR)
    budget = 1e4 * run.grid.spacing ** 2 * scale
    return [
        CheckResult("antisymmetric_residual",
                    "the antisymmetric tilted form vanishes at "
                    "discretization order",
                    budget - abs(Aff), 0.0),
        CheckResult("sym_form_two_ways",
                    "direct and integrated-by-parts assemblies of the "
                    "symmetric form agree at discretization order",
                    budget - abs(Sff - Sff_direct), 0.0),
    ]


def _frequency_trace_checks(run: RunResult, wf: WeightFields,
                            ledger) -> list[CheckResult]:
    """Inequalities along `frequency_trace(run, wf)` with ledger constants;
    the growth check counts the samples where the finite-difference N'
    breaks the growth hypothesis (`growth_violations`, F2 = 2*C1/h^2)."""
    ft = frequency_trace(run, wf)
    params, valid = ledger.params, ~np.isnan(ft["N"])
    flags = []
    if np.count_nonzero(valid) >= 5:
        flags = growth_violations(
            ft.times[valid], ft["N"][valid], ledger.C0, ledger.C1,
            2.0 * ledger.C1 / params.h ** 2, params.T, params.h)
    out = [CheckResult(
        "frequency_growth",
        "finite-difference N'(t) never exceeds its certified growth bound",
        -float(len(flags)), 0.5)]
    n2 = ft["norm2"]
    scale = max(float(np.max(n2)), _FLOOR)
    if params.s <= ledger.s2:
        out.append(CheckResult(
            "sym_form_nonnegative",
            "the symmetric tilted form is nonnegative below the smallness "
            "threshold",
            float(np.min(ft["Sff"])) / scale, 1e-9))
    if ft.times.size < 5:
        return out
    # tilted energy identity: (1/2) d/dt ||f||^2 + <Sf,f> = <source, f>
    dn2, err = fd_derivative(ft.times, n2)
    resid = np.abs(0.5 * dn2 + ft["Sff"] - ft["Fdotf"])
    # differencing allowance: third-derivative model of an exponential at
    # the locally observed frequency (n2' ~ -2 N n2)
    dt = float(np.min(np.diff(ft.times)))
    rate = 2.0 * np.nan_to_num(ft["N"], nan=0.0)
    fd_model = (dt * rate) ** 2 / 6.0 * np.abs(rate) * n2
    budget = 0.5 * err + fd_model + 1e4 * run.grid.spacing ** 2 * scale \
        + 50.0 * dt ** 2 * scale
    out.append(CheckResult(
        "tilted_energy_identity",
        "time derivative of the tilted norm balances the symmetric form "
        "and the source pairing (up to discretization noise)",
        float(np.min(budget - resid)) / scale, 1e-9))
    # two-sided derivative bound with ledger C1
    lhs = np.abs(0.5 * dn2 + ft["Sff"])
    rhs = 0.5 * ft["Sff"] + (ledger.C1 / params.h) * n2
    out.append(CheckResult(
        "tilted_derivative_bound",
        "the tilted-norm derivative obeys the certified two-sided bound",
        float(np.min(rhs + 0.5 * err - lhs)) / scale, 1e-9))
    # source norm bound with ledger C1
    out.append(CheckResult(
        "source_norm_bound",
        "the tilted squared source norm is controlled by the norm and "
        "the symmetric form",
        float(np.min(ledger.C1 * (n2 + ft["Sff"]) - ft["F2"]))
        / scale, 1e-9))
    return out


def audit(run: RunResult, ledger=None) -> list[dict]:
    """Audit of one run; returns serializable entries.

    Quick, `audit(run)`: the conservation/monotonicity checks alone.  Full,
    `audit(run, ledger)`: those, then the decay, contraction and
    dissipation checks, the tilted-form residuals, the frequency-trace
    bounds, the observation estimate and the interpolation window, with
    the weights `ledger.params` the ledger was built for.  Every check is
    one `CheckResult`.
    """
    checks = list(solver_checks(run))
    if ledger is not None:
        checks += [decay_certificate_check(run, ledger),
                   theta_contraction_check(run, ledger),
                   beta1_chain_check(run, ledger)]
        wf = weight_fields(ledger.params, run.grid)
        checks += [*tilted_form_checks(run, wf),
                   *_frequency_trace_checks(run, wf, ledger),
                   observation_estimate_check(run, ledger),
                   interpolation_window_check(run, wf, ledger)]
    return [c.as_dict() for c in checks]
