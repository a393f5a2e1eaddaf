"""Tilted-norm machinery: frequency function, interpolation, observation.

A state (a, b) is recast as u1 = a-1, u2 = b-1 and tilted with two opposite
exponential weights, giving four components f_i = u_i * exp(Phi_i/2)
(components 3, 4 reuse u1, u2 with the negative weight; the duplication
cancels the boundary terms of the quadratic forms in the continuum).  On
top of the tilted fields this module evaluates

  * the symmetric form <Sf,f> = sum_i d_i*int|grad f_i|^2 - int eta_i f_i^2,
  * the antisymmetric form <Af,f> (a residual: zero in the continuum),
  * the frequency function N = <Sf,f>/||f||^2 and its growth bound,
  * the three-time log-convexity interpolation inequality,
  * the end-to-end observation estimate with ledger constants.

Checks that involve the ledger's interpolation window run in log space,
because the window's time shift h is far below double range.  Their
tilted norms are float64 log-sums plus one exact mpmath shift; the
ledger arithmetic around them stays in mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from ._xmath import DPS, logaddexp, log_trapezoid, to_float, fmt
from .diagnostics import (TOLERANCES, centered_derivative,
                          fd_error_estimate)
from .grid import Grid, Field, integrate, dirichlet_energy, cell_gradient, \
    ball_mask
from .weights import (WeightParams, WeightFields, weight_fields,
                      component_diffusivity, eval_grad_psi)
from .solver import StatePair, CatalystSpec, RunResult

COMPONENTS = (1, 2, 3, 4)
_FLOOR = TOLERANCES["norm_floor"]


@dataclass
class TiltedState:
    """The four tilted components and reaction sources at one time."""

    t: float
    params: WeightParams
    wf: WeightFields
    grid: Grid
    u1: np.ndarray
    u2: np.ndarray
    f: dict                     # component index -> ndarray
    v1: np.ndarray              # reaction source; v2 = -v1, v3 = v1, v4 = v2

    def u(self, which: int) -> np.ndarray:
        return self.u1 if which in (1, 3) else self.u2

    def v(self, which: int) -> np.ndarray:
        return self.v1 if which in (1, 3) else -self.v1

    def Phi(self, which: int) -> np.ndarray:
        return self.wf.Phi(which, self.t)

    def norm2(self) -> float:
        """||f||^2 summed over the four components."""
        return sum(integrate(self.grid, self.f[i] ** 2) for i in COMPONENTS)

    def norm2_pair(self) -> float:
        """||(f1, f2)||^2 (the two positive-weight components)."""
        return sum(integrate(self.grid, self.f[i] ** 2) for i in (1, 2))


def tilt(state: StatePair, params: WeightParams, catalyst: CatalystSpec,
         wf: WeightFields | None = None) -> TiltedState:
    """Tilt a solver state at its own time with the given weights."""
    grid = state.grid
    if wf is None:
        wf = weight_fields(params, grid)
    t = state.t
    if not 0 <= t <= params.T + 1e-12:
        raise ValueError("state time outside the weight window [0, T]")
    u1 = state.a.values - 1.0
    u2 = state.b.values - 1.0
    k = catalyst.values(grid, t)
    v1 = k * (u1 + u2 + 2.0) * (u2 - u1)
    f = {i: (u1 if i in (1, 3) else u2) * np.exp(0.5 * wf.Phi(i, t))
         for i in COMPONENTS}
    return TiltedState(t=t, params=params, wf=wf, grid=grid,
                       u1=u1, u2=u2, f=f, v1=v1)


def quadratic_forms(ts: TiltedState, d1: float, d2: float
                    ) -> tuple[float, float, float]:
    """(Sff, Aff, F2) for a tilted state.

    Sff is assembled from the integrated-by-parts formula (gradient
    energies minus the eta-weighted masses) and is exact for the discrete
    operators; Aff is assembled from the definition of the antisymmetric
    part and converges to zero at discretization order; F2 is the tilted
    squared source norm.
    """
    grid, t = ts.grid, ts.t
    Sff = Aff = F2 = 0.0
    for i in COMPONENTS:
        d = component_diffusivity(i, d1, d2)
        fi = ts.f[i]
        eta = ts.wf.eta(i, t, d1, d2)
        Sff += d * dirichlet_energy(grid, fi) - integrate(grid, eta * fi * fi)
        grad_f = cell_gradient(grid, fi)
        gphi = ts.wf.grad_Phi(i, t)
        adv = -d * np.sum(gphi * grad_f, axis=1) \
            - 0.5 * d * ts.wf.lap_Phi(i, t) * fi
        Aff += integrate(grid, adv * fi)
        F2 += integrate(grid, ts.v(i) ** 2 * np.exp(ts.Phi(i)))
    return Sff, Aff, F2


def sym_form_direct(ts: TiltedState, d1: float, d2: float) -> float:
    """<Sf,f> by direct assembly -sum d_i int (lap f_i) f_i - eta masses.

    The tilted components do not satisfy the zero-flux condition; their
    normal derivative on the boundary equals (1/2) dPhi_i/dn * f_i, so the
    direct assembly carries an explicit boundary-flux correction built from
    the analytic weight gradient and an extrapolated boundary trace.
    Agrees with `quadratic_forms` at discretization order.
    """
    grid, t = ts.grid, ts.t
    s_over_gamma = ts.params.s / ts.params.gamma(t)
    gpsi_b = eval_grad_psi(ts.params, grid.bface_mid)
    dn_psi = np.sum(np.atleast_2d(gpsi_b) * grid.bface_normal, axis=1)
    total = 0.0
    for i in COMPONENTS:
        d = component_diffusivity(i, d1, d2)
        fi = ts.f[i]
        eta = ts.wf.eta(i, t, d1, d2)
        sign = 1.0 if i in (1, 2) else -1.0
        if grid.domain.dim == 1:
            inner = np.array([1, grid.ncells - 2])
            f_b = 1.5 * fi[grid.bface_cell] - 0.5 * fi[inner]
        else:
            f_b = fi[grid.bface_cell]
        dn_phi = sign * s_over_gamma * dn_psi
        boundary = float(np.sum(grid.bface_area * 0.5 * dn_phi * f_b * f_b))
        total += d * (dirichlet_energy(grid, fi) - boundary) \
            - integrate(grid, eta * fi * fi)
    return total


@dataclass
class FrequencyTrace:
    """N(t) and its ingredients along a run."""

    times: np.ndarray
    N_values: np.ndarray        # nan where ||f||^2 is below the floor
    Sff_values: np.ndarray
    Aff_values: np.ndarray
    norm2_values: np.ndarray
    F_norm2: np.ndarray
    Fdotf_values: np.ndarray    # <tilted source, f>
    flags: list = field(default_factory=list)   # (hy-bound) violation times
    gaps: list = field(default_factory=list)    # times with N undefined


def frequency_trace(run: RunResult, params: WeightParams,
                    ledger=None) -> FrequencyTrace:
    """Evaluate N(t) on all field snapshots with t <= T.

    With a ledger, every sample where the finite-difference N' exceeds the
    growth bound ((1+C0)/Gamma + C1)*N + 2*C1/h^2 beyond differencing
    noise is flagged.
    """
    cfg = run.config
    wf = weight_fields(params, run.grid)
    times, Ns, Sffs, Affs, norms, F2s, Fdfs, gaps = \
        [], [], [], [], [], [], [], []
    for (t, a, b) in run.snapshots:
        if t > params.T + 1e-12:
            continue
        st = StatePair(Field(run.grid, a), Field(run.grid, b), t)
        ts = tilt(st, params, cfg.catalyst, wf)
        Sff, Aff, F2 = quadratic_forms(ts, cfg.d1, cfg.d2)
        n2 = ts.norm2()
        fdf = sum(integrate(run.grid,
                            ts.v(i) * ts.u(i) * np.exp(ts.Phi(i)))
                  for i in COMPONENTS)
        times.append(t)
        Sffs.append(Sff)
        Affs.append(Aff)
        norms.append(n2)
        F2s.append(F2)
        Fdfs.append(fdf)
        if n2 < _FLOOR:
            Ns.append(np.nan)
            gaps.append(t)
        else:
            Ns.append(Sff / n2)
    out = FrequencyTrace(np.array(times), np.array(Ns), np.array(Sffs),
                         np.array(Affs), np.array(norms), np.array(F2s),
                         np.array(Fdfs), gaps=gaps)
    if ledger is not None and len(times) >= 5:
        valid = ~np.isnan(out.N_values)
        if np.count_nonzero(valid) >= 5:
            t_v = out.times[valid]
            n_v = out.N_values[valid]
            dn = centered_derivative(t_v, n_v)
            err = fd_error_estimate(t_v, n_v)
            gamma_t = params.T - t_v + params.h
            bound = ((1.0 + ledger.C0) / gamma_t + ledger.C1) * n_v \
                + 2.0 * ledger.C1 / params.h ** 2
            bad = dn > bound + err
            out.flags = [float(x) for x in t_v[bad]]
    return out


@dataclass(frozen=True)
class InterpInput:
    """Sampled data for the three-time interpolation inequality."""

    times: np.ndarray
    y: np.ndarray
    N: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    C0: float
    C1: float
    h: float
    T: float
    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        for name in ("y", "N", "F1", "F2"):
            arr = np.asarray(getattr(self, name), float)
            if arr.shape != np.asarray(self.times).shape:
                raise ValueError(f"{name} length mismatch")
        if not (self.times[0] - 1e-12 <= self.t1 < self.t2 < self.t3
                <= self.times[-1] + 1e-12):
            raise ValueError("need t1 < t2 < t3 inside the sampled window")
        if np.any(np.asarray(self.y) < 0) or np.any(np.asarray(self.N) < 0):
            raise ValueError("y and N must be nonnegative")


def _ln_weight_integral(C0, C1, T, h, a, b, npts=2001):
    """log of int_a^b exp(t*C1) (T-t+h)^(-1-C0) dt by trapezoid (mpf)."""
    tt = np.linspace(a, b, npts)
    lf = [mp.mpf(C1) * mp.mpf(t)
          - (1 + mp.mpf(C0)) * mp.log(mp.mpf(T) - mp.mpf(t) + mp.mpf(h))
          for t in tt]
    return log_trapezoid(tt, lf)


def interp_check(inp: InterpInput) -> dict:
    """Check the three-time interpolation lemma on sampled data.

    Verifies both hypothesis inequalities pointwise (finite-difference
    derivatives, differencing noise added to the tolerance), computes the
    interpolation exponent M by quadrature and the drift term D, and
    evaluates the conclusion margin log(RHS) - log(LHS); the margin must be
    nonnegative (up to differencing noise) whenever the hypotheses hold.
    """
    t, y, N = inp.times, inp.y, inp.N
    gamma_t = inp.T - t + inp.h

    yp = centered_derivative(t, y)
    y_err = fd_error_estimate(t, y)
    lhs1 = np.abs(0.5 * yp + N * y)
    rhs1 = (0.5 * N + inp.C0 / gamma_t + inp.C1 + inp.F1) * y
    bad1 = lhs1 > rhs1 + 0.5 * y_err

    Np = centered_derivative(t, N)
    n_err = fd_error_estimate(t, N)
    lhs2 = Np
    rhs2 = ((1.0 + inp.C0) / gamma_t + inp.C1) * N + inp.F2
    bad2 = lhs2 > rhs2 + n_err

    violations = sorted(set(np.concatenate([t[bad1], t[bad2]]).tolist()))

    with mp.workdps(DPS):
        ln_i23 = _ln_weight_integral(inp.C0, inp.C1, inp.T, inp.h,
                                     inp.t2, inp.t3)
        ln_i12 = _ln_weight_integral(inp.C0, inp.C1, inp.T, inp.h,
                                     inp.t1, inp.t2)
        M = 3 * mp.e ** (ln_i23 - ln_i12)
        fine = np.linspace(inp.t1, inp.t3, 4001)
        int_f1 = float(np.trapezoid(np.abs(np.interp(fine, t, inp.F1)), fine))
        int_f2 = float(np.trapezoid(np.abs(np.interp(fine, t, inp.F2)), fine))
        D = 3 * (1 + M) * ((inp.t3 - inp.t1) * (mp.mpf(inp.C1) + int_f2)
                           + int_f1)
        y1, y2, y3 = (float(np.interp(x, t, y))
                      for x in (inp.t1, inp.t2, inp.t3))
        if max(y1, y2, y3) < _FLOOR:
            margin = mp.mpf(0)  # fully decayed: equality by convention
        else:
            ln = [mp.log(mp.mpf(max(v, _FLOOR))) for v in (y1, y2, y3)]
            ratio = mp.log((mp.mpf(inp.T) - inp.t1 + inp.h)
                           / (mp.mpf(inp.T) - inp.t3 + inp.h))
            margin = (D + 3 * mp.mpf(inp.C0) * (1 + M) * ratio
                      + ln[2] + M * ln[0] - (1 + M) * ln[1])
        # differencing-noise allowance on the conclusion, from the y data
        fd_tol = float(np.max(y_err) * (t[1] - t[0])
                       / max(np.max(y), _FLOOR)) + 1e-9
        return {
            "M": to_float(M),
            "log_M": fmt(mp.log(M)),
            "D": to_float(D),
            "hypothesis_violations": violations,
            "conclusion_margin": to_float(margin),
            "conclusion_margin_log": fmt(margin),
            "fd_tolerance": fd_tol,
            "pass": len(violations) == 0 and margin >= -fd_tol,
        }


# ---------------------------------------------------------------------------
# observation estimate and ledger-window checks
# ---------------------------------------------------------------------------

def _pair_norm2(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    u1, u2 = a - 1.0, b - 1.0
    return integrate(grid, u1 * u1 + u2 * u2)


def _ball_norm2(grid: Grid, a: np.ndarray, b: np.ndarray,
                x0: float, r: float) -> float:
    mask = ball_mask(grid, x0, r)
    u1, u2 = a - 1.0, b - 1.0
    return float(np.dot(grid.volumes[mask],
                        (u1 * u1 + u2 * u2)[mask]))


def check_source_bound(run: RunResult, K0: float) -> float:
    """Cellwise |(v1,v2)|^2 <= K0*(|u|^2 + |u|^4) at every snapshot.

    Returns the worst margin (nonnegative when the bound holds); raises if
    it is violated.
    """
    cfg = run.config
    worst = float("inf")
    for (t, a, b) in run.snapshots:
        u1, u2 = a - 1.0, b - 1.0
        k = cfg.catalyst.values(run.grid, t)
        v1 = k * (u1 + u2 + 2.0) * (u2 - u1)
        usq = u1 * u1 + u2 * u2
        margin = np.min(K0 * (usq + usq * usq) - 2.0 * v1 * v1)
        worst = min(worst, float(margin))
    if worst < -1e-12:
        raise ValueError(
            "pointwise source bound violated: |(v1,v2)|^2 exceeds "
            "K0*(|u|^2+|u|^4)")
    return worst


def check_cubic_bound(run: RunResult, K0: float) -> float:
    """max_i ||u_i||_{L^3}^2 <= K0 along the run; raises on violation."""
    worst = float(np.min(K0 - run.trace["u_l3_max"] ** (2.0 / 3.0)))
    if worst < -1e-12:
        raise ValueError("cubic-norm bound violated: ||u_i||_{L3}^2 "
                         "exceeds K0")
    return worst


def observation_estimate_check(run: RunResult, params: WeightParams,
                               ledger, window_pairs=None) -> dict:
    """Verify the terminal observation estimate with ledger (c, M).

    The inequality compared (in logs):
      (1+M)*ln||u(T)||^2 <= c*(1+1/T) + ln||u(T)||^2_ball + M*ln||u(0)||^2.
    Window variants replace (0, T) by (t1, t) with the prefactor exponent
    c*(1+1/(t-t1)).
    """
    src_margin = check_source_bound(run, ledger.K0)
    cub_margin = check_cubic_bound(run, ledger.K0)
    grid = run.grid
    T = params.T

    def margin_for(t_start: float, t_final: float):
        _, a0, b0 = run.snapshot_at(t_start)
        _, aT, bT = run.snapshot_at(t_final)
        y0 = _pair_norm2(grid, a0, b0)
        yT = _pair_norm2(grid, aT, bT)
        yB = _ball_norm2(grid, aT, bT, params.x0_abs, params.r)
        if yT < _FLOOR:
            return mp.mpf(0)
        with mp.workdps(DPS):
            lhs = (1 + ledger.M) * mp.log(mp.mpf(yT))
            rhs = (ledger.c * (1 + 1 / mp.mpf(t_final - t_start))
                   + mp.log(mp.mpf(max(yB, _FLOOR)))
                   + ledger.M * mp.log(mp.mpf(max(y0, _FLOOR))))
            return rhs - lhs

    main = margin_for(0.0, T)
    windows = {}
    for (t1, t) in (window_pairs or []):
        windows[f"({t1},{t})"] = to_float(margin_for(t1, t))
    return {
        "source_bound_margin": src_margin,
        "cubic_bound_margin": cub_margin,
        "margin": to_float(main),
        "margin_log": fmt(main),
        "window_margins": windows,
        "pass": to_float(main) >= 0.0 and all(
            v >= 0.0 for v in windows.values()),
    }


def _ln_tilted_norm2(grid: Grid, u1, u2, phi1, phi3, coef,
                     four_components: bool):
    """log of the tilted squared norm, sum of V*u^2*exp(coef*phi) (mpf).

    coef = s/Gamma can leave double range, so only the shift coef*phi_top
    (phi_top: the top exponent among cells with u != 0) is formed in mpf;
    the rest is a float64 log-sum-exp of ln(V*u^2) + coef*(phi - phi_top),
    exactly 0 at the top cells (no inf*0).  -inf when u vanishes.
    """
    n = 2 if four_components else 1
    u = np.concatenate([u1, u2] * n)
    phi = np.repeat([phi1, phi3][:n], 2, axis=0).ravel()
    w = np.tile(grid.volumes, 2 * n) * u * u
    keep = w > 0
    if not keep.any():
        return mp.mpf("-inf")
    phi_top = phi[keep].max()
    d = phi[keep] - phi_top
    scaled = np.zeros_like(d)
    with np.errstate(over="ignore"):        # overflow is the -inf limit
        np.multiply(float(coef), d, out=scaled, where=d < 0)
    terms = np.log(w[keep]) + scaled
    top = terms.max()
    return coef * mp.mpf(phi_top) + top + math.log(np.exp(terms - top).sum())


def interpolation_window_check(run: RunResult, params: WeightParams,
                               ledger) -> dict:
    """Check the ledger's interpolation-window inequalities on a run.

    Uses the chain's own (s, h, ell): the tilted norms at the three window
    times T, T-L, T-2L (L = ell*h) are evaluated in log space, and the
    three inequalities — the interpolated bound with prefactor K_ell, the
    terminal-norm localization, and the untilting bound — are margins in
    log space.
    """
    with mp.workdps(DPS):
        g = ledger.geometry
        grid = run.grid
        T = mp.mpf(ledger.T)
        h = ledger.h_chain
        ell = ledger.ell
        s = mp.mpf(ledger.s2)
        L = ell * h
        t_mid = float(T - L)
        t_lo = float(T - 2 * L)

        wf = weight_fields(
            WeightParams(params.x0_abs, params.r, min(ledger.s2, 1.0),
                         min(params.h, 1.0), float(T), dim=params.dim),
            grid)
        phi1, phi3 = wf.phi1.values, wf.phi3.values

        def ln_norms(t_float, gamma):
            _, a, b = run.snapshot_at(t_float)
            u1, u2 = a - 1.0, b - 1.0
            coef = s / gamma
            return (
                _ln_tilted_norm2(grid, u1, u2, phi1, phi3, coef, True),
                _ln_tilted_norm2(grid, u1, u2, phi1, phi3, coef, False),
                a, b)

        ln_fT, ln_pT, aT, bT = ln_norms(float(T), h)
        ln_fm, ln_pm, _, _ = ln_norms(t_mid, L + h)
        ln_fl, _, _, _ = ln_norms(t_lo, 2 * L + h)

        y_T = _pair_norm2(grid, aT, bT)
        yB_T = _ball_norm2(grid, aT, bT, params.x0_abs, params.r)
        _, a0, b0 = run.snapshot_at(0.0)
        y_0 = _pair_norm2(grid, a0, b0)

        if y_0 < _FLOOR:
            return {"interpolated_margin": 0.0, "localization_margin": 0.0,
                    "untilting_margin": 0.0, "pass": True,
                    "note": "fully decayed run: equalities by convention"}

        # interpolated three-time bound with prefactor K_ell
        m1 = (ledger.ln_K_ell + ln_fT + ledger.M_ell * ln_fl
              - (1 + ledger.M_ell) * ln_fm)
        # terminal localization: tilted pair norm at T against the ball
        # norm plus the exponentially crushed far-field remainder
        rhs3 = logaddexp(mp.log(mp.mpf(max(yB_T, _FLOOR))),
                         -s * mp.mpf(g.mu0) / h
                         + mp.log(mp.mpf(y_0)))
        m3 = rhs3 - ln_pT if ln_pT > mp.mpf("-inf") else mp.mpf(0)
        # untilting: plain terminal norm against the mid-window tilted norm
        m4 = (s * mp.mpf(g.mu1) / ((ell + 1) * h) + ln_pm
              - mp.log(mp.mpf(max(y_T, _FLOOR)))) \
            if y_T >= _FLOOR else mp.mpf(0)
        return {
            "interpolated_margin": to_float(m1),
            "interpolated_margin_log": fmt(m1),
            "localization_margin": to_float(m3),
            "untilting_margin": to_float(m4),
            "pass": all(to_float(x) >= -1e-9 for x in (m1, m3, m4)),
        }
