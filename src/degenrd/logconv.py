"""Tilted-norm machinery: frequency function, interpolation, window norms.

A state (a, b) is recast as u1 = a-1, u2 = b-1 and tilted with two opposite
exponential weights, giving four components f_i = u_i * exp(Phi_i/2)
(components 3, 4 reuse u1, u2 with the negative weight; the duplication
cancels the boundary terms of the quadratic forms in the continuum).  The
tilted state is stored as (4, ncells) arrays, one row per component; the
row map below is the only place that says which species, weight and
diffusivity a component has.  The weight is psi's checked `PsiJet` on the
grid (`weights.weight_fields`), whose phi1, phi3 and derivatives the rows
read.  On top of the tilted fields this module evaluates

  * the symmetric form <Sf,f> = sum_i d_i*int|grad f_i|^2 - int eta_i f_i^2,
  * the antisymmetric form <Af,f> (a residual: zero in the continuum,
    which the audit reads at T/2 alone),
  * the frequency trace, a `TraceSeries` of N = <Sf,f>/||f||^2 and its
    ingredients at every snapshot, and N's growth bound,
  * the three-time log-convexity interpolation inequality on sampled data,
  * the tilted norms of the ledger's interpolation window, in log space:
    float64 log-sums plus one exact mpmath shift, as the window's time
    shift h is far below double range.

It returns numbers; `verify` compares them with the ledger.  Every
integral over the components is taken one row at a time and summed in row
order 1 to 4; one reduction over the stacked rows would round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .constants import (DPS, fmt, interp_margin, ln_prefactor,
                        ln_time_integral, to_float)
from .diagnostics import TOLERANCES, TraceSeries, fd_derivative
from .grid import (Grid, integrate, dirichlet_energy, cell_gradient,
                   rowdot)
from .weights import PsiJet
# unused here: perfbench/tracing.py wraps `logconv.weight_fields` and
# reports the target missing when the name does not resolve
from .weights import weight_fields  # noqa: F401
from .solver import ConfigError, RunResult

_FLOOR = TOLERANCES["norm_floor"]

# Row map of the tilted state: row i holds component i+1.  Its species
# (u1 or u2, which also fixes its diffusivity d1 or d2) and the sign of psi
# in its weight: phi1 = psi - psi(x0) on rows 1, 2, phi3 = -psi - psi(x0)
# on rows 3, 4.
SPECIES = np.array([0, 1, 0, 1])
SIGN = np.array([[1.0], [1.0], [-1.0], [-1.0]])


def _phi_rows(jet: PsiJet) -> np.ndarray:
    """The weights phi_i of the four rows, shape (4, ncells)."""
    return np.where(SIGN > 0, jet.phi1, jet.phi3)


@dataclass
class TiltedState:
    """The four tilted components and reaction sources at one time.

    Every array but u has one row per component: f = u[SPECIES] *
    exp(Phi/2) with Phi = s*phi/Gamma, v holds the sources in the same rows
    (v2 = -v1, v3 = v1, v4 = v2), d the diffusivities and eta the
    multipliers of the symmetric form.
    """

    t: float
    jet: PsiJet
    grid: Grid
    u: np.ndarray               # (2, ncells): u1 = a-1, u2 = b-1
    Phi: np.ndarray             # (4, ncells) exponents s*phi_i/Gamma
    f: np.ndarray               # (4, ncells)
    v: np.ndarray               # (4, ncells)
    d: np.ndarray               # (4,) diffusivities d_i
    eta: np.ndarray             # (4, ncells) multipliers eta_i

    def dPhi(self) -> np.ndarray:
        """(4, 1) factors of psi's derivatives in Phi_i: +-s/Gamma."""
        p = self.jet.params
        return SIGN * p.s / p.gamma(self.t)

    def norm2(self) -> float:
        """||f||^2 summed over the four components."""
        return sum(integrate(self.grid, fi ** 2) for fi in self.f)


def reaction_source(k: np.ndarray, u1: np.ndarray,
                    u2: np.ndarray) -> np.ndarray:
    """v1 = k*(b^2 - a^2) written in u1 = a-1, u2 = b-1; v2 = -v1."""
    return k * (u1 + u2 + 2.0) * (u2 - u1)


def tilt(grid: Grid, t: float, u: np.ndarray, k: np.ndarray,
         jet: PsiJet, d1: float, d2: float) -> TiltedState:
    """Tilt the state u = (a, b) at time t with psi's checked jet `jet`
    on the grid (`weight_fields`), for the diffusivities d1 of a and d2
    of b.

    u has shape (2, ncells); k holds the catalyst values at t.  The
    multipliers are eta_i = dPhi_i/dt / 2 + d_i*|grad Phi_i|^2 / 4, i.e.
    s/Gamma^2 * (-|phi_i|/2 + d_i*s*|grad psi|^2/4).
    """
    params = jet.params
    if not 0 <= t <= params.T + 1e-12:
        raise ValueError("state time outside the weight window [0, T]")
    u = u - 1.0
    v1 = reaction_source(k, *u)
    phi = _phi_rows(jet)
    s, gam = params.s, params.gamma(t)
    Phi = s * phi / gam
    d = np.array((d1, d2))[SPECIES]
    eta = s / gam ** 2 * (-0.5 * np.abs(phi)
                          + 0.25 * d[:, None] * s * jet.grad_sq)
    return TiltedState(t=t, jet=jet, grid=grid, u=u, Phi=Phi,
                       f=u[SPECIES] * np.exp(0.5 * Phi),
                       v=np.array([v1, -v1])[SPECIES], d=d, eta=eta)


def sym_form(ts: TiltedState) -> float:
    """<Sf,f> from the integrated-by-parts formula: gradient energies minus
    the eta-weighted masses; exact for the discrete operators."""
    grid, f = ts.grid, ts.f
    return sum(di * dirichlet_energy(grid, fi) - integrate(grid, ei * fi * fi)
               for di, fi, ei in zip(ts.d, f, ts.eta))


def antisym_form(ts: TiltedState) -> float:
    """<Af,f> from the definition of the antisymmetric part; converges to
    zero at discretization order."""
    grid, f = ts.grid, ts.f
    dPhi = ts.dPhi()
    grad_Phi = dPhi[:, :, None] * ts.jet.grad
    lap_Phi = dPhi * ts.jet.lap
    return sum(integrate(grid, (-di * rowdot(gi, cell_gradient(grid, fi))
                                - 0.5 * di * li * fi) * fi)
               for di, fi, gi, li in zip(ts.d, f, grad_Phi, lap_Phi))


def sym_form_direct(ts: TiltedState) -> float:
    """<Sf,f> by direct assembly -sum d_i int (lap f_i) f_i - eta masses.

    The tilted components do not satisfy the zero-flux condition; their
    normal derivative on the boundary equals (1/2) dPhi_i/dn * f_i, so the
    direct assembly carries an explicit boundary-flux correction built from
    the analytic weight gradient and an extrapolated boundary trace.
    Agrees with `sym_form` at discretization order.
    """
    grid, f = ts.grid, ts.f
    gpsi_b = PsiJet(ts.jet.params, grid.bface_mid).grad
    dn_psi = rowdot(gpsi_b, grid.bface_normal)
    if grid.dim == 1:
        inner = np.array([1, grid.ncells - 2])
        f_b = 1.5 * f[:, grid.bface_cell] - 0.5 * f[:, inner]
    else:
        f_b = f[:, grid.bface_cell]
    dn_Phi = ts.dPhi() * dn_psi
    flux = grid.bface_area * 0.5 * dn_Phi * f_b * f_b
    return sum(di * (dirichlet_energy(grid, fi) - float(np.sum(bi)))
               - integrate(grid, ei * fi * fi)
               for di, fi, bi, ei in zip(ts.d, f, flux, ts.eta))


def frequency_trace(run: RunResult, jet: PsiJet) -> TraceSeries:
    """N(t) and its ingredients on all field snapshots with t <= T, tilted
    with psi's checked jet `jet` on the run's grid; no ledger constant
    enters.  Channels: N (nan where ||f||^2 is below the floor), Sff,
    norm2 = ||f||^2, F2 (the tilted squared source norm) and Fdotf (the
    pairing <tilted source, f>)."""
    cfg, params = run.config, jet.params
    rows = []
    for t, u in zip(run.snapshot_times.tolist(), run.snapshots):
        if t > params.T + 1e-12:
            continue
        ts = tilt(run.grid, t, u, cfg.catalyst.values(run.grid, t), jet,
                  cfg.d1, cfg.d2)
        w = np.exp(ts.Phi)
        rows.append((t, sym_form(ts), ts.norm2(),
                     sum(integrate(run.grid, x) for x in ts.v ** 2 * w),
                     sum(integrate(run.grid, x)
                         for x in ts.v * ts.u[SPECIES] * w)))
    times, Sff, n2, F2, fdf = np.array(rows).reshape(-1, 5).T
    with np.errstate(divide="ignore", invalid="ignore"):
        N = np.where(n2 < _FLOOR, np.nan, Sff / n2)
    return TraceSeries(times, {"N": N, "Sff": Sff, "norm2": n2, "F2": F2,
                               "Fdotf": fdf})


def growth_violations(t: np.ndarray, N: np.ndarray, C0, C1, F2, T,
                      h) -> np.ndarray:
    """Times where the finite-difference N' breaks the growth hypothesis
    (H2) of the interpolation lemma,
    N' <= ((1+C0)/(T-t+h) + C1)*N + F2, by more than differencing noise."""
    bound = ((1.0 + C0) / (T - t + h) + C1) * N + F2
    dN, err = fd_derivative(t, N)
    return t[dN > bound + err]


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
        # the derivatives' second-order one-sided ends need 3 samples
        if (n := np.size(self.times)) < 3:
            raise ConfigError(f"t needs at least 3 samples; got {n}")
        for name, arr in zip(("t", "y", "N", "F1", "F2"), (
                self.times, self.y, self.N, self.F1, self.F2)):
            arr = np.asarray(arr, float)
            if arr.shape != np.asarray(self.times).shape:
                raise ConfigError(f"{name} length mismatch")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name} must be finite; it has nan or inf")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("t must be strictly increasing")
        for name in ("C0", "C1", "T", "h"):
            if not math.isfinite(x := getattr(self, name)):
                raise ConfigError(f"{name} must be finite; got {x}")
        if not (self.times[0] - 1e-12 <= self.t1 < self.t2 < self.t3
                <= self.times[-1] + 1e-12):
            raise ConfigError("need t1 < t2 < t3 inside the sampled window")
        if np.any(np.asarray(self.y) < 0) or np.any(np.asarray(self.N) < 0):
            raise ConfigError("y and N must be nonnegative")
        if not self.h > 0:
            raise ConfigError(f"h must be positive; got {self.h}")
        if not self.C1 >= 0:
            raise ConfigError(f"C1 must be nonnegative; got {self.C1}")
        if np.any(self.T - np.asarray(self.times) + self.h <= 0):
            raise ConfigError(f"the series reaches T + h = {self.T + self.h}"
                              "; the lemma needs T - t + h > 0")


def interp_check(inp: InterpInput) -> dict:
    """Check the three-time interpolation lemma on sampled data.

    Verifies both hypothesis inequalities pointwise (finite-difference
    derivatives, differencing noise added to the tolerance), computes the
    interpolation exponent M = 3*I(t2, t3)/I(t1, t2) from the ledger's
    weighted time integrals and the drift term D, and evaluates the
    conclusion margin log(RHS) - log(LHS) with the ledger's prefactor; the
    margin must be nonnegative (up to differencing noise) whenever the
    hypotheses hold.
    """
    t, y, N = inp.times, inp.y, inp.N
    gamma_t = inp.T - t + inp.h

    yp, y_err = fd_derivative(t, y)
    lhs1 = np.abs(0.5 * yp + N * y)
    rhs1 = (0.5 * N + inp.C0 / gamma_t + inp.C1 + inp.F1) * y
    bad1 = lhs1 > rhs1 + 0.5 * y_err
    bad2 = growth_violations(t, N, inp.C0, inp.C1, inp.F2, inp.T, inp.h)
    violations = sorted(set(t[bad1].tolist() + bad2.tolist()))

    with mp.workdps(DPS):
        # tau = T - t turns the lemma's times into the ledger's variable
        tau1, tau2, tau3 = (mp.mpf(inp.T) - x
                            for x in (inp.t1, inp.t2, inp.t3))
        M = 3 * mp.e ** (ln_time_integral(inp.C0, inp.C1, inp.h, tau3, tau2)
                         - ln_time_integral(inp.C0, inp.C1, inp.h, tau2,
                                            tau1))
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
            ln_K = ln_prefactor(D, mp.mpf(inp.C0), 1 + M,
                                (tau1 + inp.h) / (tau3 + inp.h))
            margin = interp_margin(ln_K, M, *(mp.log(mp.mpf(max(v, _FLOOR)))
                                              for v in (y1, y2, y3)))
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
# tilted norms of the interpolation window
# ---------------------------------------------------------------------------

def _ln_tilted_norm2(grid: Grid, u: np.ndarray, phi: np.ndarray, coef):
    """log of the tilted squared norm sum_i sum V*u_i^2*exp(coef*phi_i)
    over the rows of u and phi (mpf).

    coef = s/Gamma can leave double range, so only the shift coef*phi_top
    (phi_top: the top exponent among cells with u != 0) is formed in mpf;
    the rest is a float64 log-sum-exp of ln(V*u^2) + coef*(phi - phi_top),
    exactly 0 at the top cells (no inf*0).  -inf when u vanishes.
    """
    w = (grid.volumes * u * u).ravel()
    keep = w > 0
    if not keep.any():
        return mp.mpf("-inf")
    phi = phi.ravel()[keep]
    phi_top = phi.max()
    d = phi - phi_top
    scaled = np.zeros_like(d)
    with np.errstate(over="ignore"):        # overflow is the -inf limit
        np.multiply(float(coef), d, out=scaled, where=d < 0)
    terms = np.log(w[keep]) + scaled
    top = terms.max()
    return coef * mp.mpf(phi_top) + top + math.log(np.exp(terms - top).sum())


def ln_tilted_norms(grid: Grid, u: np.ndarray, jet: PsiJet, coef):
    """ln ||f||^2 of the state u = (a, b), shape (2, ncells), tilted with
    exp(coef*phi_i/2) for coef = s/Gamma: over all four rows and over
    rows 1, 2 alone (mpf; see `_ln_tilted_norm2`)."""
    u, phi = (u - 1.0)[SPECIES], _phi_rows(jet)
    return (_ln_tilted_norm2(grid, u, phi, coef),
            _ln_tilted_norm2(grid, u[:2], phi[:2], coef))
