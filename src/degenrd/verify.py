"""Run-level verification: ledger-dependent inequality audits.

Collects every checkable inequality for one finished run into a flat list
of audit entries {invariant_id, reference, pass, margin, tolerance}.  The
solver-level conservation checks live in `diagnostics`; every check that
reads the ledger is built here, from the numbers `logconv` computes on
the tilted state (its forms, the frequency trace, the window norms), and
so is the list of snapshot times a full audit reads (`read_times`).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .constants import DPS, interp_margin, logaddexp, to_float, window_length
from .diagnostics import TOLERANCES, CheckResult, fd_derivative, solver_checks
from .grid import ball_mask, ball_norm2
from .logconv import (antisym_form, frequency_trace, growth_violations,
                      ln_tilted_norms, reaction_source, sym_form,
                      sym_form_direct, tilt)
from .solver import RunResult
from .weights import PsiJet, WeightParams, weight_fields

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


def tilted_form_checks(run: RunResult, jet: PsiJet) -> list[CheckResult]:
    """Residual checks on the tilted quadratic forms at a mid-run state.

    The antisymmetric form and the direct/integrated-by-parts disagreement
    both vanish at discretization order; the budget here is a generous
    O(spacing^2) envelope (the refinement tests measure the order sharply).
    The snapshot nearest T/2 is tilted once; every form is read from it.
    """
    cfg = run.config
    t, u = run.snapshot_at(0.5 * jet.params.T)
    ts = tilt(run.grid, t, u, cfg.catalyst.values(run.grid, t), jet,
              cfg.d1, cfg.d2)
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


def _frequency_trace_checks(run: RunResult, jet: PsiJet,
                            ledger) -> list[CheckResult]:
    """Inequalities along `frequency_trace(run, jet)` with ledger constants;
    the growth check counts the samples where the finite-difference N'
    breaks the growth hypothesis (`growth_violations`, F2 = 2*C1/h^2)."""
    ft = frequency_trace(run, jet)
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


def read_times(T: float) -> list[float]:
    """The snapshot times a full audit with horizon T reads: 0 and T (the
    observation estimate), T/2 (the tilted forms) and the interpolation
    window's T - 2L and T - L, L = `constants.window_length(T)`."""
    with mp.workdps(DPS):
        L = window_length(T)
        return [0.0, 0.5 * T, float(T - 2 * L), float(T - L), T]


def check_source_bound(run: RunResult, K0: float) -> float:
    """Cellwise |(v1,v2)|^2 <= K0*(|u|^2 + |u|^4) at every snapshot.

    Returns the worst margin, negative where the bound is violated.
    """
    cat, worst = run.config.catalyst, float("inf")
    for t, u in zip(run.snapshot_times.tolist(), run.snapshots):
        u1, u2 = u - 1.0
        v1 = reaction_source(cat.values(run.grid, t), u1, u2)
        usq = u1 * u1 + u2 * u2
        worst = min(worst, float(np.min(K0 * (usq + usq * usq)
                                        - 2.0 * v1 * v1)))
    return worst


def check_cubic_bound(run: RunResult, K0: float) -> float:
    """max_i ||u_i||_{L^3}^2 <= K0 along the run; returns the worst margin,
    negative where the bound is violated."""
    return float(np.min(K0 - run.trace["u_l3_max"] ** (2.0 / 3.0)))


def _terminal_norms(run: RunResult,
                    params: WeightParams) -> tuple[float, float, float]:
    """||u(0)||^2 and ||u(T)||^2 from the trace, and ||u(T)||^2 over the
    weights' ball from the T snapshot; that ball need not be the trace's
    `l2_ball`, which is over the catalyst's."""
    grid, tr = run.grid, run.trace
    u1, u2 = run.snapshot_at(params.T)[1] - 1.0
    return (tr["l2_dist"][tr.index_at(0.0)],
            tr["l2_dist"][tr.index_at(params.T)],
            ball_norm2(grid, u1, u2, ball_mask(grid, params.x0_abs,
                                               params.r)))


def observation_estimate_check(run: RunResult, ledger) -> CheckResult:
    """Verify the observation estimate with ledger (c, M) on the window
    (0, T), T = ledger.params.T.

    The inequality compared (in logs):
      (1+M)*ln||u(T)||^2 <= c*(1+1/T) + ln||u(T)||^2_ball
                            + M*ln||u(0)||^2.
    It rests on the source and cubic bounds; when either is violated by
    more than 1e-12 the check fails with that bound's margin and names it.
    """
    for bound, margin in (
            ("pointwise source bound |(v1,v2)|^2 <= K0*(|u|^2+|u|^4)",
             check_source_bound(run, ledger.K0)),
            ("cubic-norm bound ||u_i||_{L3}^2 <= K0",
             check_cubic_bound(run, ledger.K0))):
        if margin < -1e-12:
            return CheckResult("observation_estimate",
                               f"hypothesis violated: {bound}", margin, 1e-12)
    params, margin = ledger.params, 0.0
    y0, yT, yB = _terminal_norms(run, params)
    if yT >= _FLOOR:
        with mp.workdps(DPS):
            margin = to_float(
                ledger.c * (1 + 1 / mp.mpf(params.T))
                + mp.log(mp.mpf(max(yB, _FLOOR)))
                + ledger.M * mp.log(mp.mpf(max(y0, _FLOOR)))
                - (1 + ledger.M) * mp.log(mp.mpf(yT)))
    return CheckResult("observation_estimate",
                       "terminal norm controlled by the ball norm and the "
                       "initial norm", margin, 1e-9)


def interpolation_window_check(run: RunResult, jet: PsiJet,
                               ledger) -> CheckResult:
    """Check the ledger's interpolation-window inequalities on a run.

    Uses the chain's own (s, h, ell) and psi's checked jet `jet` on the
    run's grid, whose phi1 and phi3 depend on x0_abs and dim alone, not
    on r, s, h or T: the tilted norms at the window times T, T-L, T-2L of
    `read_times` (L = ell*h) are `ln_tilted_norms`, and the three
    inequalities — the interpolated bound with prefactor K_ell, the
    terminal-norm localization, and the untilting bound — are margins in
    log space; the check's margin is the least of the three.
    """
    t_lo, t_mid = read_times(ledger.T)[2:4]
    y_0, y_T, yB_T = _terminal_norms(run, ledger.params)
    with mp.workdps(DPS):
        h, ell = ledger.h_chain, ledger.ell
        mu0, mu1 = (mp.mpf(ledger.entries[f"geometry.{k}"].value)
                    for k in ("mu0", "mu1"))
        s, L = mp.mpf(ledger.s2), ell * h
        (ln_fT, ln_pT), (ln_fm, ln_pm), (ln_fl, _) = (
            ln_tilted_norms(run.grid, run.snapshot_at(t)[1], jet, s / gamma)
            for t, gamma in ((ledger.T, h), (t_mid, L + h),
                             (t_lo, 2 * L + h)))
        if y_0 < _FLOOR:
            worst = 0.0         # fully decayed run: equalities by convention
        else:
            # interpolated three-time bound with prefactor K_ell
            m1 = interp_margin(ledger.ln_K_ell, ledger.M_ell, ln_fl, ln_fm,
                               ln_fT)
            # terminal localization: tilted pair norm at T against the ball
            # norm plus the exponentially crushed far-field remainder
            rhs3 = logaddexp(mp.log(mp.mpf(max(yB_T, _FLOOR))),
                             -s * mu0 / h + mp.log(mp.mpf(y_0)))
            m3 = rhs3 - ln_pT if ln_pT > mp.mpf("-inf") else mp.mpf(0)
            # untilting: terminal norm against the mid-window tilted norm
            m4 = (s * mu1 / ((ell + 1) * h) + ln_pm
                  - mp.log(mp.mpf(max(y_T, _FLOOR)))) \
                if y_T >= _FLOOR else mp.mpf(0)
            worst = min(to_float(m) for m in (m1, m3, m4))
    return CheckResult("interpolation_window",
                       "three-time interpolation, localization, and "
                       "untilting inequalities on the certified window",
                       worst, 1e-9)


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
        jet = weight_fields(ledger.params, run.grid)
        checks += [*tilted_form_checks(run, jet),
                   *_frequency_trace_checks(run, jet, ledger),
                   observation_estimate_check(run, ledger),
                   interpolation_window_check(run, jet, ledger)]
    return [c.as_dict() for c in checks]
