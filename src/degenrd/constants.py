"""The explicit-constant chain: from sampled geometry to a decay certificate.

Every named constant of the analysis is computed here and stored as one
ledger `Entry`: its value, its log, its method (input, exact, closed form
or sampled) and a provenance string naming its inputs, kept in a
representation that survives the enormous dynamic range of the chain:
ordinary floats where possible, arbitrary-exponent mpmath values for the
multiplied-out exponentials, and natural-log form for quantities whose
exponent itself leaves double range (the contraction defect beta, the
interpolation prefactor K_ell).

The chain is meant to be conservative: each sampled constant is an extreme
over dense samples with a safety factor, and C_Sob is the constant field's
ratio with one.  Neither is a certified bound yet (ROADMAP items 6 and 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .grid import Grid, integrate, neumann_eigenvalue_1
from .solver import ConfigError, SimConfig
from .weights import (WeightParams, GeometryConstants, derivative_maxima,
                      geometry_constants)

DPS = 60    # working precision (significant digits) of the mpmath chain


def logaddexp(a, b):
    """log(e^a + e^b) for mpf arguments, safe for huge magnitudes."""
    a, b = mp.mpf(a), mp.mpf(b)
    if a < b:
        a, b = b, a
    d = b - a
    if d < -mp.mpf(10) ** 6:
        return a
    return a + mp.log1p(mp.e ** d)


def to_float(x) -> float:
    """Clamp an mpf to double range (overflow -> +-1.8e308, underflow -> 0)."""
    try:
        f = float(x)
    except (OverflowError, ValueError):
        f = float("inf") if x > 0 else float("-inf")
    if f == float("inf"):
        return 1.7976931348623157e308
    if f == float("-inf"):
        return -1.7976931348623157e308
    return f


def fmt(x) -> str:
    """Deterministic decimal rendering of an mpf."""
    return mp.nstr(mp.mpf(x), 25, strip_zeros=True)


def _finite(key: str, name: str, formula) -> float:
    """formula() in float64; ConfigError naming the config key `key` that
    drives constant `name` out of double range when it leaves it."""
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{key} is too large for the constant ledger: "
                          f"{name} overflows double precision")
    return value


def compute_K0(grid: Grid, a0: np.ndarray, b0: np.ndarray,
               k_sup: float) -> float:
    """Data bound K0 = max((4*int(a0^3+b0^3)+4)^(2/3), 32*sup(k)^2)."""
    cubic = integrate(grid, a0 ** 3 + b0 ** 3)
    return _finite("catalyst.k_max", "K0",
                   lambda: max((4.0 * cubic + 4.0) ** (2.0 / 3.0),
                               32.0 * k_sup ** 2))


def compute_sobolev_constant(grid: Grid) -> float:
    """1.1 * the Rayleigh ratio (int g^6)^(1/3) / (int g^2 + int
    |grad g|^2) of the constant field, which is 1 on a unit-measure domain.

    One sample of the ratio that the embedding H^1 in L^6 bounds, not a
    certified bound (ROADMAP item 6): no field of a random low-mode search
    ever beat the constant one.  `grid` is for the certified bound.
    """
    return 1.1


METHODS = ("input", "exact", "closed form", "sampled")
# the ledger attributes that read an entry's log
_LOGS = {"ln_M_ell_bound": "M_ell_bound", "ln_K_ell": "K_ell",
         "log_beta": "beta", "ln_theta": "theta"}


@dataclass(frozen=True)
class Entry:
    """One ledger constant: its value (float, mpf where it can leave double
    range, or None when only the log is kept), its natural log (the log of
    an mpf value at `DPS`; None for a plain float), how the entry itself
    was produced (one of METHODS) and its provenance, naming its inputs."""

    value: float | mp.mpf | None
    log: mp.mpf | float | None
    method: str
    provenance: str


@dataclass
class ConstantLedger:
    """All named constants of the chain for the weights `params`: one
    `Entry` per constant, filled in order by the stages of `build_ledger`,
    over the weight geometry behind the `geometry.*` entries.

    Values read as attributes (`ledger.C1`), logs as the names in _LOGS.
    beta's value is 0.0 whenever log_beta is below double range (the exact
    exponent integer would not fit in memory); theta < 1 and beta > 0 are
    certified by the finiteness of log_beta even when the floats round to
    1.0 and 0.0.
    """

    params: WeightParams
    geometry: GeometryConstants
    entries: dict[str, Entry] = field(default_factory=dict)

    def put(self, name: str, value, method: str, provenance: str,
            log=None):
        """Add the entry `name`; returns `value`."""
        if log is None and isinstance(value, mp.mpf):
            with mp.workdps(DPS):
                log = mp.log(value)
        self.entries[name] = Entry(value, log, method, provenance)
        return value

    def __getattr__(self, name):
        entry = self.__dict__.get("entries", {}).get(_LOGS.get(name, name))
        if entry is None:
            raise AttributeError(name)
        return entry.log if name in _LOGS else entry.value

    @mp.workdps(DPS)                    # fmt renders at working precision
    def as_json(self) -> dict:
        return {name: {"value": None if e.value is None
                       else to_float(e.value),
                       "log": None if e.log is None else fmt(e.log),
                       "method": e.method, "provenance": e.provenance}
                for name, e in self.entries.items()}


def compute_analysis_constants(ledger: ConstantLedger) -> ConstantLedger:
    """Fill the commutator/smallness constants C2..C7, s0..s2, C0, C1.

    Requires geometry, K0, C_Sob, d1, d2 already present.  The constants
    with no displayed formula are sampled derivative maxima combined by the
    same Young-inequality steps as the analysis, recorded in provenance.
    """
    g, put = ledger.geometry, ledger.put
    d_max = max(ledger.d1, ledger.d2)
    d_min = min(ledger.d1, ledger.d2)
    d_key = "physics.d1" if ledger.d1 >= ledger.d2 else "physics.d2"
    m = derivative_maxima(ledger.params)

    C4 = put("C4", m["max_lap"], "sampled",
             "sampled max |lap psi| over closed ball * 1.05")
    C2 = put("C2", d_max * (m["max_hess"] + m["max_grad_lap"]), "sampled",
             "max(d) * (sampled max |hess psi| + sampled max "
             "|grad lap psi|), 1.05 safety on each factor")
    C3 = put("C3", _finite(d_key, "C3", lambda: C2 * max(2.5, 0.5 * d_max)),
             "closed form", "C2 * max(5/2, max(d)/2): Young split of the "
             "gradient commutator terms")
    C5 = put("C5", _finite(d_key, "C5", lambda: max(d_max * C4,
                                                    (d_max * C4) ** 2)),
             "closed form", "max(max(d)*C4, (max(d)*C4)^2): boundary-term "
             "bound")
    s0 = put("s0", min(1.0, 2.0 / (g.c1 * d_max)), "closed form",
             "min(1, 2/(c1*max(d))): makes every multiplier eta_i "
             "nonpositive via the gradient-value bound c1")
    s1 = put("s1", (3.0 / 8.0) / (0.5 * d_max * m["max_hess"] + C5),
             "sampled", "(3/8) / (max(d)*max|hess psi|/2 + C5)")
    s2 = put("s2", min(s0, s1, 1.0 / (C3 + C5), g.c2 / d_min),
             "closed form", "min(s0, s1, 1/(C3+C5), c2/min(d))")
    C0 = put("C0", 1.0 - d_min * s2 / (4.0 * g.c2), "closed form",
             "1 - min(d)*s2/(4*c2)")
    C6 = put("C6", m["max_psi"] + d_max * m["max_grad_sq"], "sampled",
             "max|psi| + max(d)*max|grad psi|^2 (sampled, 1.05 safety)")
    C7 = put("C7", _finite(d_key, "C7", lambda: d_max * C6
                           / (g.c2 * g.c3 ** 2)),
             "closed form", "max(d)*C6/(c2*c3^2)")
    if s2 > 0 and C0 == 1.0:
        raise ConfigError(
            f"physics.d1 = {ledger.d1:g} and physics.d2 = {ledger.d2:g} "
            f"round the constant ledger's C0 = 1 - min(d)*s2/(4*c2) to 1 "
            f"in double precision")
    if s2 <= 0 or not 0.0 < C0 < 1.0:
        raise ValueError("inconsistent geometry sampling: s2 or C0 out of "
                         "range")
    K0, C_Sob = ledger.K0, ledger.C_Sob
    put("C1", _finite("catalyst.k_max", "C1", lambda: max(
        1.0, C3 + C5 + C7, 4.0 * K0 * (1.0 + K0 * C_Sob),
        4.0 * K0 ** 2 * C_Sob / d_min)), "closed form",
        "max(1, C3+C5+C7, 4*K0*(1+K0*C_Sob), 4*K0^2*C_Sob/min(d))")
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


def compute_chain(ledger: ConstantLedger) -> ConstantLedger:
    """Complete the ledger: interpolation window, observation constants
    (c, M), and the decay certificate (theta, gamma, beta), for the
    horizon T of `ledger.params`.

    All arithmetic runs at 60 significant digits with arbitrary-precision
    exponents; quantities whose exponents leave double range are kept as
    natural logs.  The admissible window multiplier ell is far beyond any
    integer search (see `_select_ell`), so it is an asymptotic log-space
    solve.
    """
    with mp.workdps(DPS):
        g, put = ledger.geometry, ledger.put
        C0, C1 = mp.mpf(ledger.C0), mp.mpf(ledger.C1)
        mu0, mu1 = mp.mpf(g.mu0), mp.mpf(g.mu1)
        T = put("T", float(ledger.params.T), "input",
                "certificate horizon (configuration)")

        ell = put("ell", _select_ell(mu0, mu1, C0, C1), "closed form",
                  "smallest window multiplier with geometry.mu1*(1+Mbar)/"
                  "(ell+1) <= geometry.mu0/2; log-space asymptotic solve "
                  "(condition verified at the reported value)")

        L = window_length(T)
        h = put("h_chain", L / ell, "closed form",
                "min(1/(2*ell), T/(4*ell))/2")

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
        M_ell = put("M_ell", mp.e ** ln_M, "closed form",
                    "3 * ratio of weighted time integrals over "
                    "[T-ell*h, T] and [T-2*ell*h, T-ell*h]: the "
                    "second in closed form (upper incomplete gamma "
                    "function), the first by dominant balance")
        ln_bound = _ln_mbar(mp.log(ell + 1), C0, C1)
        put("M_ell_bound", None, "closed form",
            "3*e^C1*(ell+1)^C0/(1-(2/3)^C0)", log=ln_bound)
        if ln_M > ln_bound:
            raise ValueError("M_ell exceeds its closed-form bound; "
                             "geometry sampling inconsistent")

        one_plus_M = 1 + M_ell
        D_ell = put("D_ell",
                    3 * C1 * one_plus_M * (1 + 2 * ell + 8 * ell ** 2),
                    "closed form", "3*C1*(1+M_ell)*(1+2*ell+8*ell^2)")
        ln_K = ln_prefactor(D_ell, C0, one_plus_M, 2 * ell + 1)
        put("K_ell", None, "closed form",
            "exp(D_ell) * (2*ell+1)^(3*C0*(1+M_ell)) (log form)", log=ln_K)

        s2 = mp.mpf(ledger.s2)
        mu2 = put("mu2", 2 * ell * s2 * mu0, "closed form",
                  "2*ell*s2*geometry.mu0: dominates s2*mu0*(ell + 2*ell/T) "
                  "for the large-h branch of the observation estimate")
        mu3 = put("mu3", max(mu2, one_plus_M * mp.log(2) + ln_K),
                  "closed form", "max(mu2, (1+M_ell)*ln 2 + ln K_ell)")
        c = put("c", 2 * mu3 + mp.log(4), "closed form",
                "2*mu3 + ln 4 (prefactor exponent, h optimized out)")
        M = put("M", 1 + 2 * M_ell, "closed form",
                "1 + 2*M_ell (final interpolation exponent)")
        if not (c > 1 and M > 1):
            raise ValueError("chain outputs must satisfy c > 1 and M > 1")

        Cp = ledger.Cp
        beta1 = put("beta1", max(Cp / (2 * ledger.d1), Cp / (2 * ledger.d2),
                                 1.0 / (8.0 * ledger.B0 * ledger.k0)),
                    "closed form", "max(Cp/(2*d1), Cp/(2*d2), 1/(8*B0*k0))")

        # theta = (1/(1 + e^{-2c} M / beta1))^(1/M); with z the log of the
        # small term, beta = log1p(e^z)/(2M), kept in log form.
        z = -2 * c + mp.log(M) - mp.log(mp.mpf(beta1))
        if z < -50:
            log_beta = z - mp.log(2 * M)
        else:
            log_beta = mp.log(mp.log1p(mp.e ** z) / (2 * M))
        beta = 0.0 if log_beta < -745 else to_float(mp.e ** log_beta)
        put("beta", beta, "closed form",
            "|ln theta|/2 with theta = (1/(1+e^(-2c)*M/beta1))^(1/M); "
            "stored as natural log", log=log_beta)
        ln_theta = -2.0 * beta
        put("theta", math.exp(ln_theta), "closed form", "exp(-2*beta)",
            log=ln_theta)
        put("gamma", math.exp(-ln_theta), "closed form", "1/theta",
            log=-ln_theta)
    return ledger


def build_ledger(grid: Grid, params: WeightParams, sim: SimConfig,
                 u0: np.ndarray) -> ConstantLedger:
    """The constant ledger of the weights `params` for the physics of `sim`
    (d1, d2, the catalyst's k0 and k_max) and its (2, ncells) initial state
    u0, whose cellwise minimum is B0; it keeps `params` for the audit.

    Raises ConfigError for a catalyst floor k0 = 0 (pure diffusion), for
    which beta1 = max(..., 1/(8*B0*k0)) is undefined.
    """
    cat = sim.catalyst
    if cat.k0 == 0:
        raise ConfigError("catalyst.k0 = 0 has no constant ledger (beta1 "
                          "needs 1/(8*B0*k0)); constants and a full verify "
                          "need catalyst.k0 > 0")
    led = ConstantLedger(params, geometry_constants(params))
    put, g = led.put, led.geometry
    put("d1", sim.d1, "input", "configuration")
    put("d2", sim.d2, "input", "configuration")
    put("k0", cat.k0, "input", "catalyst floor on the observation ball")
    put("B0", float(u0.min()), "exact",
        "cellwise min of the normalized initial data")
    probe = f"on the closed ball sampled at resolution {g.probe_resolution}"
    put("geometry.c01", g.c01, "sampled",
        f"min of (psi(x0)-psi)/|grad psi|^2 near x0, and its limit at x0, "
        f"{probe}, / 1.05")
    put("geometry.c02", g.c02, "sampled",
        f"max of (psi(x0)-psi)/|grad psi|^2 near x0, and its limit at x0, "
        f"{probe}, * 1.05")
    put("geometry.c1", g.c1, "sampled",
        f"max of |grad phi_i|^2/|phi_i|, and its limit at x0, {probe}, "
        f"* 1.05")
    put("geometry.c2", g.c2, "sampled",
        f"max of |phi_i|/|grad phi_i|^2 on |x| >= geometry.rho (phi1 also "
        f"inside), and the pinch limit at x0, {probe}, * 1.05")
    put("geometry.c3", g.c3, "sampled",
        f"min of 2*psi on |x| < geometry.rho, {probe}, / 1.05")
    put("geometry.rho", g.rho, "closed form",
        "(|x0| + R)/2: inner radius of the outer annulus")
    put("geometry.mu0", g.mu0, "sampled",
        f"min of psi(x0)-psi outside the observation ball B(x0, r), "
        f"{probe}, / 1.05")
    put("geometry.mu1", g.mu1, "closed form",
        "psi(x0) = 2*|x0|*R = sup(-phi1)")
    put("Cp", 1.0 / neumann_eigenvalue_1(grid), "exact",
        "1/lambda_1, smallest nonzero Neumann eigenvalue of the grid "
        "operator")
    put("C_Sob", compute_sobolev_constant(grid), "sampled",
        "1.1 * the Rayleigh ratio 1 of the constant field on a "
        "unit-measure domain; not a certified bound (ROADMAP item 6)")
    put("K0", compute_K0(grid, *u0, cat.k_max), "closed form",
        "max((4*int(a0^3+b0^3)+4)^(2/3), 32*sup(k)^2)")
    compute_analysis_constants(led)
    compute_chain(led)
    return led
