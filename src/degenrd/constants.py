"""The explicit-constant chain: from sampled geometry to a decay certificate.

Every named constant of the analysis is computed here, stored with a
provenance string describing exactly how it was produced, and kept in a
representation that survives the enormous dynamic range of the chain:
ordinary floats where possible, arbitrary-exponent mpmath values for the
multiplied-out exponentials, and natural-log form for quantities whose
exponent itself leaves double range (the contraction defect beta, the
interpolation prefactor K_ell).

The chain is deliberately conservative: each constant is an upper (or
lower, as appropriate) bound obtained from dense sampling with a safety
factor, so every downstream inequality must hold for the reported values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from ._xmath import DPS, logaddexp, to_float, fmt
from .grid import Grid, dirichlet_energy, integrate, neumann_eigenvalue_1
from .weights import (WeightParams, GeometryConstants, geometry_constants,
                      eval_psi, eval_grad_psi, eval_hess_psi, eval_lap_psi,
                      eval_grad_lap_psi, _sample_points)

SOBOLEV_TRIALS = 300        # random trial fields of the Sobolev search
DERIVATIVE_SAMPLES = 20001  # scan size of the sampled derivative maxima


def compute_K0(grid: Grid, a0: np.ndarray, b0: np.ndarray,
               k_sup: float) -> float:
    """Data bound K0 = max((4*int(a0^3+b0^3)+4)^(2/3), 32*sup(k)^2)."""
    cubic = integrate(grid, a0 ** 3 + b0 ** 3)
    return max((4.0 * cubic + 4.0) ** (2.0 / 3.0), 32.0 * k_sup ** 2)


def _sobolev_ratios(grid: Grid, seed: int) -> list[float]:
    """(int g^6)^(1/3) / (int g^2 + int |grad g|^2) for each trial field g
    of `compute_sobolev_constant` whose denominator is not zero."""
    rng = np.random.default_rng(seed)
    n, nmodes = grid.ncells, 8
    kpi = [k * math.pi for k in range(1, nmodes + 1)]
    if grid.domain.dim == 1:
        modes = [np.cos(kp * (grid.centers[:, 0] + 0.5)) for kp in kpi]
    else:
        x0, x1 = (np.ascontiguousarray(c) for c in grid.centers.T)
        R = grid.domain.radius
        p, q = np.empty(n), np.empty(n)
    ratios = []
    for _ in range(SOBOLEV_TRIALS):
        coef = rng.standard_normal(nmodes + 1) / (1.0 + np.arange(nmodes + 1))
        g = np.full(n, coef[0])
        if grid.domain.dim == 1:
            for c, mode in zip(coef[1:], modes):
                g += c * mode
        else:
            angs = rng.uniform(0, 2 * math.pi, nmodes)
            for c, kp, ang in zip(coef[1:], kpi, angs):
                # c*cos(kp*(proj/R + 1)/2), proj = x . (cos ang, sin ang)
                np.multiply(x0, math.cos(ang), out=p)
                p += np.multiply(x1, math.sin(ang), out=q)
                p /= R
                p += 1.0
                p *= kp
                p /= 2
                g += np.multiply(np.cos(p, out=p), c, out=p)
        g2 = g * g
        denom = integrate(grid, g2) + dirichlet_energy(grid, g)
        if denom > 1e-300:
            ratios.append(integrate(grid, g2 * g2 * g2) ** (1.0 / 3.0) / denom)
    return ratios


def compute_sobolev_constant(grid: Grid) -> float:
    """Upper bound for the constant in (int g^6)^(1/3) <= C*(int g^2 +
    int |grad g|^2).

    Maximizes the discrete Rayleigh-type ratio over the constant field and
    a randomized family of smooth low-mode trial fields, then applies a
    1.1 safety factor.  The 1-D modes cos(k pi (x + 1/2)) are shared by
    all trials, and g^6 is formed as (g^2)^3 (numpy's `g ** 6` takes a
    slow path for negative bases).  The trials use seed 0; with seeds 0-19
    the best ratio is 0.33-0.79 (1-D n=256, 2-D n=32), so it returns 1.1.
    """
    # the constant field attains ratio 1 on a unit-measure domain
    return 1.1 * max([1.0, *_sobolev_ratios(grid, 0)])


@dataclass
class ConstantLedger:
    """All named constants of the chain, with provenance strings.

    Scalar magnitudes that can exceed double range (ell, M_ell, D_ell,
    mu2, mu3, c, M) are mpmath floats; beta and the interpolation
    prefactor are stored as natural logs (log_beta, ln_K_ell) because
    their own exponents exceed double range.
    """

    # inputs / environment
    d1: float = float("nan")
    d2: float = float("nan")
    k0: float = float("nan")
    B0: float = float("nan")
    T: float = float("nan")
    # geometry
    geometry: GeometryConstants | None = None
    # functional-analytic constants
    Cp: float = float("nan")
    C_Sob: float = float("nan")
    K0: float = float("nan")
    # commutator / smallness chain
    C2: float = float("nan")
    C3: float = float("nan")
    C4: float = float("nan")
    C5: float = float("nan")
    C6: float = float("nan")
    C7: float = float("nan")
    s0: float = float("nan")
    s1: float = float("nan")
    s2: float = float("nan")
    C0: float = float("nan")
    C1: float = float("nan")
    # interpolation chain
    ell: mp.mpf | None = None
    h_chain: mp.mpf | None = None
    M_ell: mp.mpf | None = None
    ln_M_ell_bound: mp.mpf | None = None
    D_ell: mp.mpf | None = None
    ln_K_ell: mp.mpf | None = None
    mu2: mp.mpf | None = None
    mu3: mp.mpf | None = None
    c: mp.mpf | None = None
    M: mp.mpf | None = None
    # decay certificate
    beta1: float = float("nan")
    log_beta: mp.mpf | None = None
    provenance: dict = field(default_factory=dict)

    # -- derived decay-certificate quantities ------------------------------
    @property
    def beta(self) -> float:
        """Decay rate beta = |ln theta|/2.

        Certified positive through the finiteness of log_beta; the float
        value underflows to 0.0 whenever log_beta is below double range
        (exponentiating such logs exactly is deliberately avoided — the
        exact exponent integer would not fit in memory).
        """
        if self.log_beta < -745:
            return 0.0
        return to_float(mp.e ** self.log_beta)

    @property
    def ln_theta(self) -> float:
        """ln theta = -2*beta; strictly negative in exact arithmetic."""
        return -2.0 * self.beta

    @property
    def theta(self) -> float:
        """Two-step contraction factor; strictly below 1 in exact
        arithmetic by finiteness of log_beta, even when float rounding
        returns 1.0."""
        return math.exp(self.ln_theta)

    @property
    def gamma(self) -> float:
        return math.exp(-self.ln_theta)

    def geometry_params(self) -> dict:
        return self.geometry.as_dict() if self.geometry else {}

    @mp.workdps(DPS)                    # the logs at working precision
    def as_json(self) -> dict:
        ent = {}

        def put(name, value, log_value=None):
            ent[name] = {
                "value": to_float(value) if value is not None else None,
                "log": fmt(log_value) if log_value is not None else None,
                "provenance": self.provenance.get(name, ""),
            }

        for name in ("d1", "d2", "k0", "B0", "T", "Cp", "C_Sob", "K0",
                     "C2", "C3", "C4", "C5", "C6", "C7",
                     "s0", "s1", "s2", "C0", "C1", "beta1"):
            put(name, getattr(self, name))
        for name, val in self.geometry_params().items():
            put(f"geometry.{name}", val)
        if self.ell is not None:
            put("ell", self.ell, mp.log(self.ell))
            put("h_chain", self.h_chain, mp.log(self.h_chain))
            put("M_ell", self.M_ell, mp.log(self.M_ell))
            put("M_ell_bound", None, self.ln_M_ell_bound)
            put("D_ell", self.D_ell, mp.log(self.D_ell))
            put("K_ell", None, self.ln_K_ell)
            put("mu0", self.geometry.mu0)
            put("mu1", self.geometry.mu1)
            put("mu2", self.mu2, mp.log(self.mu2))
            put("mu3", self.mu3, mp.log(self.mu3))
            put("c", self.c, mp.log(self.c))
            put("M", self.M, mp.log(self.M))
            put("beta", self.beta, self.log_beta)
            put("theta", self.theta, self.ln_theta)
            put("gamma", self.gamma, -self.ln_theta)
        return ent


def _sampled_derivative_maxima(params: WeightParams) -> dict:
    """Dense-scan maxima of psi and its derivatives over the closed ball."""
    pts = _sample_points(params, DERIVATIVE_SAMPLES)
    hess = np.atleast_3d(eval_hess_psi(params, pts))
    hess_norm = np.max(np.abs(np.linalg.eigvalsh(hess)), axis=-1)
    grad = eval_grad_psi(params, pts)
    glap = eval_grad_lap_psi(params, pts)
    return {
        "max_psi": float(np.max(np.abs(eval_psi(params, pts)))) * 1.05,
        "max_grad_sq": float(np.max(np.sum(grad * grad, axis=-1))) * 1.05,
        "max_hess": float(np.max(hess_norm)) * 1.05,
        "max_lap": float(np.max(np.abs(eval_lap_psi(params, pts)))) * 1.05,
        "max_grad_lap": float(
            np.max(np.linalg.norm(np.atleast_2d(glap), axis=-1))) * 1.05,
    }


def compute_analysis_constants(ledger: ConstantLedger,
                               params: WeightParams) -> ConstantLedger:
    """Fill the commutator/smallness constants C2..C7, s0..s2, C0, C1.

    Requires geometry, K0, C_Sob, d1, d2 already present.  The constants
    with no displayed formula are sampled derivative maxima combined by the
    same Young-inequality steps as the analysis, recorded in provenance.
    """
    g = ledger.geometry
    d_max = max(ledger.d1, ledger.d2)
    d_min = min(ledger.d1, ledger.d2)
    m = _sampled_derivative_maxima(params)
    prov = ledger.provenance

    ledger.C4 = m["max_lap"]
    prov["C4"] = "sampled max |lap psi| over closed ball * 1.05"
    ledger.C2 = d_max * (m["max_hess"] + m["max_grad_lap"])
    prov["C2"] = ("max(d) * (sampled max |hess psi| + sampled max "
                  "|grad lap psi|), 1.05 safety on each factor")
    ledger.C3 = ledger.C2 * max(2.5, 0.5 * d_max)
    prov["C3"] = ("C2 * max(5/2, max(d)/2): Young split of the gradient "
                  "commutator terms")
    ledger.C5 = max(d_max * ledger.C4, (d_max * ledger.C4) ** 2)
    prov["C5"] = "max(max(d)*C4, (max(d)*C4)^2): boundary-term bound"
    ledger.s0 = min(1.0, 2.0 / (g.c1 * d_max))
    prov["s0"] = ("min(1, 2/(c1*max(d))): makes every multiplier eta_i "
                  "nonpositive via the gradient-value bound c1")
    ledger.s1 = (3.0 / 8.0) / (0.5 * d_max * m["max_hess"] + ledger.C5)
    prov["s1"] = "(3/8) / (max(d)*max|hess psi|/2 + C5)"
    ledger.s2 = min(ledger.s0, ledger.s1,
                    1.0 / (ledger.C3 + ledger.C5), g.c2 / d_min)
    prov["s2"] = "min(s0, s1, 1/(C3+C5), c2/min(d))"
    ledger.C0 = 1.0 - d_min * ledger.s2 / (4.0 * g.c2)
    prov["C0"] = "1 - min(d)*s2/(4*c2)"
    ledger.C6 = m["max_psi"] + d_max * m["max_grad_sq"]
    prov["C6"] = "max|psi| + max(d)*max|grad psi|^2 (sampled, 1.05 safety)"
    ledger.C7 = d_max * ledger.C6 / (g.c2 * g.c3 ** 2)
    prov["C7"] = "max(d)*C6/(c2*c3^2)"
    ledger.C1 = max(1.0, ledger.C3 + ledger.C5 + ledger.C7,
                    4.0 * ledger.K0 * (1.0 + ledger.K0 * ledger.C_Sob),
                    4.0 * ledger.K0 ** 2 * ledger.C_Sob / d_min)
    prov["C1"] = ("max(1, C3+C5+C7, 4*K0*(1+K0*C_Sob), "
                  "4*K0^2*C_Sob/min(d))")
    if ledger.s2 <= 0 or not 0.0 < ledger.C0 < 1.0:
        raise ValueError("inconsistent geometry sampling: s2 or C0 out of "
                         "range")
    return ledger


def _ln_mbar(ln_ellp1, C0, C1):
    return (mp.log(3) + C1 + C0 * ln_ellp1
            - mp.log(1 - (mp.mpf(2) / 3) ** C0))


def _select_ell(mu0, mu1, C0, C1):
    """Smallest admissible window multiplier ell, solved in log space.

    The condition is mu1*(1 + Mbar)/(ell+1) <= mu0/2.  It cannot hold for
    any integer ell a search could reach: the normalized masses sum to 2,
    so int(a0^3+b0^3) >= 2 by Jensen and K0 >= 12^(2/3) ~ 5.24; with
    C_Sob >= 1.1, C1 >= 4*K0*(1+K0*C_Sob) > 141.  Holding at ell = 10^6
    would need C1 < ln(10^6+1) - ln 3 + ln(mu0/(2*mu1)) < 12.1, since
    ln(1 + Mbar) > ln 3 + C1 and mu0 < mu1.  So 1 + Mbar ~ Mbar, and the
    asymptotic equation is solved for ln(ell+1) directly (the
    smallest-integer distinction is far below working precision there);
    the condition is checked at the value returned.
    """

    def holds(ln_ellp1):
        lhs = mp.log(mu1) + logaddexp(mp.mpf(0), _ln_mbar(ln_ellp1, C0, C1))
        return lhs <= mp.log(mu0 / 2) + ln_ellp1

    x = (mp.log(3) + C1 + mp.log(mu1) - mp.log(mu0 / 2)
         - mp.log(1 - (mp.mpf(2) / 3) ** C0)) / (1 - C0)
    for _ in range(200):
        if holds(x):
            break
        x *= (1 + mp.mpf(10) ** -30)
    else:
        raise ValueError("window-multiplier selection did not converge")
    return mp.e ** x - 1


# the three-time interpolation lemma's pieces, shared with logconv

def ln_time_integral(C0, C1, h, lo, hi):
    """log of int_lo^hi exp(-C1*tau) * (tau+h)^(-1-C0) dtau (mpf), C1 >= 0.

    With tau = T - t this is exp(-C1*T) times the lemma's weighted time
    integral int exp(C1*t) (T-t+h)^(-1-C0) dt over [T-hi, T-lo], lo+h > 0.
    Closed form: exp(C1*h) * C1^C0 * Gamma(-C0, C1*(lo+h), C1*(hi+h)), or
    for C1 = 0, (lo+h)^-C0 * (1 - r^-C0)/C0 with r = (hi+h)/(lo+h) (ln r
    when C0 = 0).
    """
    C0, C1, h, lo, hi = (mp.mpf(x) for x in (C0, C1, h, lo, hi))
    if C1 == 0:
        ln_r = mp.log1p((hi - lo) / (lo + h))
        return (mp.log(-mp.expm1(-C0 * ln_r) / C0 if C0 else ln_r)
                - C0 * mp.log(lo + h))
    # upper gammas at twice the working precision: a narrow window cancels
    # bits, and the two-limit gammainc then raises (C0 = 0, 1, ..) or gives 0
    with mp.extraprec(mp.mp.prec):
        gam = (mp.gammainc(-C0, C1 * (lo + h))
               - mp.gammainc(-C0, C1 * (hi + h)))
    return C1 * h + C0 * mp.log(C1) + mp.log(gam)


def ln_prefactor(D, C0, one_plus_M, ratio):
    """ln K = D + 3*C0*(1+M)*ln(ratio) of the interpolated bound, where
    ratio = (T-t1+h)/(T-t3+h) (mpf)."""
    return D + 3 * C0 * one_plus_M * mp.log(ratio)


def interp_margin(ln_K, M, ln_y1, ln_y2, ln_y3):
    """Conclusion margin ln K + ln y3 + M*ln y1 - (1+M)*ln y2 of the lemma
    y2^(1+M) <= K*y3*y1^M; nonnegative when it holds (mpf)."""
    return ln_K + ln_y3 + M * ln_y1 - (1 + M) * ln_y2


def window_length(T: float) -> mp.mpf:
    """Length L = ell*h = min(1/2, T/4)/2 of the window ending at T."""
    return min(mp.mpf(1) / 2, mp.mpf(T) / 4) / 2


def compute_chain(ledger: ConstantLedger, T: float) -> ConstantLedger:
    """Complete the ledger: interpolation window, observation constants
    (c, M), and the decay certificate (theta, gamma, beta).

    All arithmetic runs at 60 significant digits with arbitrary-precision
    exponents; quantities whose exponents leave double range are kept as
    natural logs.  The admissible window multiplier ell is far beyond any
    integer search (see `_select_ell`), so it is an asymptotic log-space
    solve.
    """
    with mp.workdps(DPS):
        g = ledger.geometry
        prov = ledger.provenance
        C0, C1 = mp.mpf(ledger.C0), mp.mpf(ledger.C1)
        mu0, mu1 = mp.mpf(g.mu0), mp.mpf(g.mu1)
        ledger.T = float(T)
        prov["T"] = "certificate horizon (configuration)"

        ell = ledger.ell = _select_ell(mu0, mu1, C0, C1)
        prov["ell"] = (
            "smallest window multiplier with mu1*(1+Mbar)/(ell+1) <= mu0/2; "
            "log-space asymptotic solve (condition verified at the "
            "reported value)")

        L = window_length(T)
        h = L / ell
        ledger.h_chain = h
        prov["h_chain"] = "min(1/(2*ell), T/(4*ell))/2"

        # M_ell = 3 * J1/J2 with J_k integrals of exp(-C1 tau)(tau+h)^-1-C0.
        # J1 by dominant balance: substituting tau = h*u gives
        # h^-C0 * int_0^ell exp(-C1 h u)(1+u)^(-1-C0) du; the exponential
        # factor and the upper limit contribute relative errors of order
        # (C1*h)^C0 and ell^-C0, both negligible: _select_ell's solve
        # converges only where 1/Mbar < 2e-28*ln(ell+1), and ln Mbar <
        # ln(ell+1) there (mu0 < mu1), so ln(ell+1) > 60 and h < 1e-26.
        ln_j1 = (-C0 * mp.log(h) - mp.log(C0)
                 + mp.log(1 - (1 + ell) ** -C0))
        ln_j2 = ln_time_integral(C0, C1, h, L, 2 * L)
        ln_M = mp.log(3) + ln_j1 - ln_j2
        ledger.M_ell = mp.e ** ln_M
        prov["M_ell"] = ("3 * ratio of weighted time integrals over "
                         "[T-ell*h, T] and [T-2*ell*h, T-ell*h]: the "
                         "second in closed form (upper incomplete gamma "
                         "function), the first by dominant balance")
        ledger.ln_M_ell_bound = _ln_mbar(mp.log(ell + 1), C0, C1)
        prov["M_ell_bound"] = "3*e^C1*(ell+1)^C0/(1-(2/3)^C0)"
        if ln_M > ledger.ln_M_ell_bound:
            raise ValueError("M_ell exceeds its closed-form bound; "
                             "geometry sampling inconsistent")

        one_plus_M = 1 + ledger.M_ell
        ledger.D_ell = 3 * C1 * one_plus_M * (1 + 2 * ell + 8 * ell ** 2)
        prov["D_ell"] = "3*C1*(1+M_ell)*(1+2*ell+8*ell^2)"
        ledger.ln_K_ell = ln_prefactor(ledger.D_ell, C0, one_plus_M,
                                       2 * ell + 1)
        prov["K_ell"] = "exp(D_ell) * (2*ell+1)^(3*C0*(1+M_ell)) (log form)"

        s2 = mp.mpf(ledger.s2)
        ledger.mu2 = 2 * ell * s2 * mu0
        prov["mu2"] = ("2*ell*s2*mu0: dominates s2*mu0*(ell + 2*ell/T) for "
                       "the large-h branch of the observation estimate")
        ledger.mu3 = max(ledger.mu2, one_plus_M * mp.log(2) + ledger.ln_K_ell)
        prov["mu3"] = "max(mu2, (1+M_ell)*ln 2 + ln K_ell)"
        ledger.c = 2 * ledger.mu3 + mp.log(4)
        prov["c"] = "2*mu3 + ln 4 (prefactor exponent, h optimized out)"
        ledger.M = 1 + 2 * ledger.M_ell
        prov["M"] = "1 + 2*M_ell (final interpolation exponent)"
        if not (ledger.c > 1 and ledger.M > 1):
            raise ValueError("chain outputs must satisfy c > 1 and M > 1")

        ledger.beta1 = max(ledger.Cp / (2 * ledger.d1),
                           ledger.Cp / (2 * ledger.d2),
                           1.0 / (8.0 * ledger.B0 * ledger.k0))
        prov["beta1"] = "max(Cp/(2*d1), Cp/(2*d2), 1/(8*B0*k0))"

        # theta = (1/(1 + e^{-2c} M / beta1))^(1/M); with z the log of the
        # small term, beta = log1p(e^z)/(2M), kept in log form.
        z = -2 * ledger.c + mp.log(ledger.M) - mp.log(mp.mpf(ledger.beta1))
        if z < -50:
            ledger.log_beta = z - mp.log(2 * ledger.M)
        else:
            ledger.log_beta = mp.log(mp.log1p(mp.e ** z) / (2 * ledger.M))
        prov["beta"] = ("|ln theta|/2 with theta = (1/(1+e^(-2c)*M/"
                        "beta1))^(1/M); stored as natural log")
        prov["theta"] = "exp(-2*beta)"
        prov["gamma"] = "1/theta"
    return ledger


def build_ledger(grid: Grid, params: WeightParams, a0: np.ndarray,
                 b0: np.ndarray, B0: float, k0: float, k_sup: float,
                 d1: float, d2: float, T: float) -> ConstantLedger:
    """End-to-end ledger construction for one configuration."""
    led = ConstantLedger(d1=d1, d2=d2, k0=k0, B0=B0)
    led.provenance["d1"] = led.provenance["d2"] = "configuration"
    led.provenance["k0"] = "catalyst floor on the observation ball"
    led.provenance["B0"] = "cellwise min of the normalized initial data"
    led.geometry = geometry_constants(params)
    for k in ("c01", "c02", "c1", "c2", "c3", "rho", "mu0", "mu1"):
        led.provenance[f"geometry.{k}"] = \
            "sampled extremal ratio, 1.05 safety factor"
    led.Cp = 1.0 / neumann_eigenvalue_1(grid)
    led.provenance["Cp"] = ("1/lambda_1, smallest nonzero Neumann "
                            "eigenvalue of the grid operator")
    led.C_Sob = compute_sobolev_constant(grid)
    led.provenance["C_Sob"] = ("randomized Rayleigh-ratio maximization "
                               "with 1.1 safety factor")
    led.K0 = compute_K0(grid, a0, b0, k_sup)
    led.provenance["K0"] = \
        "max((4*int(a0^3+b0^3)+4)^(2/3), 32*sup(k)^2)"
    compute_analysis_constants(led, params)
    compute_chain(led, T)
    return led
