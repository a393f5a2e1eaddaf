"""Carleman-style spatial weights with closed-form derivatives.

The weight is

    psi(x) = (R^2 - |x|^2) * 2*|x0|*R / (|x0|^2 + R^2 - 2*|x0|*x_1),

positive inside the ball, zero on the boundary, with a nondegenerate
maximum at the interior point x0 = (|x0|, 0, ..., 0).  Two shifted copies
phi1 = psi - psi(x0) and phi3 = -psi - psi(x0) are combined with the
time factor Gamma(t) = T - t + h into the exponents Phi_i = s*phi_i/Gamma
used to tilt the solution components.  `PsiJet` evaluates psi and its
first, second, and third derivatives from the differentiated formulas,
never by numerical differencing.

Every sampled bound of psi lives here, each with a 1.05 safety factor:
the geometric constants (the two-sided quadratic pinch around x0 and the
gradient/value comparison constants on the annulus near the boundary) as
sampled extremal ratios, and the derivative maxima (max |psi|,
max |grad psi|^2, max |hess psi|, max |lap psi|, max |grad lap psi|) the
ledger's C2..C7 are built from, as a dense scan of the closed ball.  The
paper chain only needs their existence; downstream checks use these
reported values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, domain_radius, rowdot

_RATIO_CAP = 1e12
DERIVATIVE_SAMPLES = 20001  # scan size of the sampled derivative maxima


@dataclass(frozen=True)
class WeightParams:
    """Geometry and tilt parameters for the weight machinery.

    x0_abs : distance of the observation center from the origin (> 0);
             the center itself is (x0_abs, 0, ..., 0).
    r      : radius of the observation ball, with x0_abs + r < R.
    s      : tilt strength in (0, 1].
    h      : terminal time-shift in (0, 1], with h**2 > 0 in floats.
    T      : terminal time (> 0).
    dim    : ambient dimension (1 or 2).
    """

    x0_abs: float
    r: float
    s: float
    h: float
    T: float
    dim: int = 1

    def __post_init__(self):
        R = domain_radius(self.dim)
        if not self.x0_abs > 0:
            raise ValueError("weights.x0_abs (default catalyst.x0) must be > "
                             "0: the weight vanishes identically at x0 = 0")
        if not (self.r > 0 and self.x0_abs + self.r < R):
            raise ValueError("weights.r (default catalyst.r) must satisfy "
                             "0 < r and weights.x0_abs + r < R")
        if not 0 < self.s <= 1:
            raise ValueError("weights.s must lie in (0, 1]")
        if not (0 < self.h <= 1 and self.h ** 2 > 0):
            raise ValueError("weights.h must lie in (0, 1], with h**2 > 0 "
                             f"in double precision; got {self.h!r}")
        if not self.T > 0:
            raise ValueError("weights.T must be positive")

    @property
    def radius(self) -> float:
        return domain_radius(self.dim)

    @property
    def x0_point(self) -> np.ndarray:
        p = np.zeros(self.dim)
        p[0] = self.x0_abs
        return p

    def gamma(self, t: float) -> float:
        """Time factor Gamma(t) = T - t + h."""
        return self.T - t + self.h


class PsiJet:
    """psi and its closed-form derivatives on an (m, dim) point array.

    The points are validated, and q = 2|x0|R, den = |x0|^2 + R^2 - 2|x0|x_1
    and g = R^2 - |x|^2 formed, once; each derivative is computed on first
    access.  Sums over the coordinates go through `grid.rowdot`.  `hess`
    is the full (m, dim, dim) stack; `derivative_maxima` bounds its
    spectral radius from the closed-form 2x2 estimate and runs `eigvalsh`
    on the candidate maxima alone.
    """

    def __init__(self, params: WeightParams, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != params.dim:
            raise ValueError(f"points must be an (m, {params.dim}) array "
                             f"of coordinates")
        a, R = params.x0_abs, params.radius
        sq = rowdot(pts, pts)
        if np.any(np.sqrt(sq) > R * (1 + 1e-12) + 1e-14):
            raise ValueError("point outside the closed domain")
        self.pts, self.a, self.n = pts, a, params.dim
        self.q = 2.0 * a * R
        self.den = a * a + R * R - 2.0 * a * pts[:, 0]
        self.g = R * R - sq

    @cached_property
    def psi(self) -> np.ndarray:
        """Weight value psi(x); vanishes on the boundary, peaks at x0."""
        return self.q * self.g / self.den

    @cached_property
    def grad(self) -> np.ndarray:
        """Gradient of psi, shape (m, dim)."""
        a, q, den, g = self.a, self.q, self.den, self.g
        grad = -2.0 * q * self.pts / den[:, None]
        grad[:, 0] += 2.0 * a * q * g / (den * den)
        return grad

    @cached_property
    def hess(self) -> np.ndarray:
        """Hessian of psi, shape (m, dim, dim)."""
        a, n, pts = self.a, self.n, self.pts
        inv = 1.0 / self.den
        H = np.zeros((pts.shape[0], n, n))
        for k in range(n):
            H[:, k, k] += -2.0 * inv
        H[:, 0, :] += -4.0 * a * pts * (inv * inv)[:, None]
        H[:, :, 0] += -4.0 * a * pts * (inv * inv)[:, None]
        H[:, 0, 0] += 8.0 * a * a * self.g * inv ** 3
        H *= self.q
        return H

    @cached_property
    def lap(self) -> np.ndarray:
        """Laplacian of psi, shape (m,)."""
        a, den, g = self.a, self.den, self.g
        return self.q * (-2.0 * self.n / den
                         - 8.0 * a * self.pts[:, 0] / den ** 2
                         + 8.0 * a * a * g / den ** 3)

    @cached_property
    def grad_lap(self) -> np.ndarray:
        """Gradient of the Laplacian of psi, shape (m, dim)."""
        a, den, g = self.a, self.den, self.g
        out = -16.0 * a * a * self.pts / den[:, None] ** 3
        out[:, 0] += ((-4.0 * self.n - 8.0) * a / den ** 2
                      - 32.0 * a * a * self.pts[:, 0] / den ** 3
                      + 48.0 * a ** 3 * g / den ** 4)
        out *= self.q
        return out


def psi_at_x0(params: WeightParams) -> float:
    """Peak value psi(x0) = 2*|x0|*R (closed form)."""
    return 2.0 * params.x0_abs * params.radius


@dataclass
class WeightFields:
    """psi's shifts phi1 = psi - psi(x0), phi3 = -psi - psi(x0) and
    derivatives on every cell; `logconv`'s row map assigns them."""

    params: WeightParams
    phi1: np.ndarray              # per cell
    phi3: np.ndarray
    grad_psi: np.ndarray          # (ncells, dim)
    laplacian_psi: np.ndarray
    grad_psi_sq: np.ndarray       # |grad psi|^2 per cell


def weight_fields(params: WeightParams, grid: Grid) -> WeightFields:
    """Evaluate psi, its shifts and derivatives on all cell centers."""
    if grid.dim != params.dim:
        raise ValueError("grid dimension does not match weight parameters")
    jet = PsiJet(params, grid.centers)
    psi = jet.psi
    if np.any(psi <= 0):
        raise ValueError("psi must be positive at interior cells")
    peak = psi_at_x0(params)
    grad = jet.grad
    wf = WeightFields(
        params=params,
        phi1=psi - peak,
        phi3=-psi - peak,
        grad_psi=grad,
        laplacian_psi=jet.lap,
        grad_psi_sq=rowdot(grad, grad),
    )
    if np.any(wf.phi1 > 1e-12):
        raise ValueError("phi1 must be nonpositive")
    return wf


@dataclass(frozen=True)
class GeometryConstants:
    """Geometric constants of the weight: the sampled ones with a 1.05
    safety margin, at probe resolution `probe_resolution`.

    c01, c02 : two-sided pinch  c01*|grad psi|^2 <= psi(x0)-psi
               <= c02*|grad psi|^2 near x0.
    c1       : |grad phi_i|^2 <= c1*|phi_i| on the whole domain.
    c2       : |phi_i| <= c2*|grad phi_i|^2 on the outer annulus
               (and for phi1 on its complement).
    c3       : phi3 - phi1 <= -c3 off the outer annulus (c3 = min of 2*psi).
    rho      : inner radius of the outer annulus, (|x0| + R)/2 (closed
               form).
    mu0      : phi1 <= -mu0 outside the observation ball.
    mu1      : sup(-phi1) = psi(x0) = 2|x0|R (closed form).
    """

    c01: float
    c02: float
    c1: float
    c2: float
    c3: float
    rho: float
    mu0: float
    mu1: float
    probe_resolution: int


def _sample_points(params: WeightParams, m: int) -> np.ndarray:
    """Deterministic dense sampling of the closed ball.

    1-D: uniform scan of [-R, R].  2-D: polar product grid plus a
    boundary ring.
    """
    R = params.radius
    if params.dim == 1:
        return np.linspace(-R, R, m).reshape(m, 1)
    mr = max(int(math.sqrt(m)), 24)
    rr = R * (np.arange(mr) + 0.5) / mr
    tt = 2 * math.pi * np.arange(mr) / mr
    cos_t, sin_t = np.cos(tt), np.sin(tt)
    pts = np.empty((mr * mr + mr, 2))       # radius-major, then the ring
    pts[:mr * mr, 0] = (rr[:, None] * cos_t).ravel()
    pts[:mr * mr, 1] = (rr[:, None] * sin_t).ravel()
    pts[mr * mr:, 0] = R * cos_t            # boundary ring
    pts[mr * mr:, 1] = R * sin_t
    return pts


def _safe_max_ratio(num: np.ndarray, den: np.ndarray, clause: str) -> float:
    mask = den > 0
    if not np.any(mask):
        raise ValueError(f"no valid samples for {clause}")
    ratio = num[mask] / den[mask]
    top = float(np.max(ratio))
    if not np.isfinite(top) or top > _RATIO_CAP:
        raise ValueError(f"sampled ratio unbounded for {clause}")
    return top


def geometry_constants(params: WeightParams) -> GeometryConstants:
    """Sampled extremal-ratio constants, refined from 10,000 samples by
    doubling until stable below 1%."""
    prev = None
    m = 10_000
    for _ in range(8):
        cur = _geometry_constants_once(params, m)
        if prev is not None:
            drift = max(abs(getattr(cur, k) - getattr(prev, k))
                        / max(abs(getattr(prev, k)), 1e-30)
                        for k in ("c01", "c02", "c1", "c2", "c3", "mu0"))
            if drift < 0.01:
                return cur
        prev = cur
        m *= 2
    return prev


def _geometry_constants_once(params: WeightParams,
                             m: int) -> GeometryConstants:
    R, a = params.radius, params.x0_abs
    pts = _sample_points(params, m)
    peak = psi_at_x0(params)
    jet = PsiJet(params, pts)
    psi, grad = jet.psi, jet.grad
    grad_sq = rowdot(grad, grad)
    phi1 = psi - peak
    phi3 = -psi - peak
    d0 = pts - params.x0_point
    dist0 = np.sqrt(rowdot(d0, d0))
    rad = np.sqrt(rowdot(pts, pts))

    excl_radius = 2.0 * R / max(m, 2) if params.dim == 1 \
        else R / max(int(math.sqrt(m)), 24)
    excl = dist0 <= excl_radius
    rho = 0.5 * (a + R)
    annulus = rad >= rho
    nbhd = dist0 <= 0.5 * (R - a)

    # curvature at the peak: psi(x0) - psi ~ lam/2 d^2, |grad psi|^2 ~
    # lam^2 d^2 with lam = 4|x0|R/(R^2-|x0|^2); supplies the 0/0 limits.
    lam = 4.0 * a * R / (R * R - a * a)
    limit_c1 = 2.0 * lam
    limit_pinch = 1.0 / (2.0 * lam)

    c1 = max(
        _safe_max_ratio(grad_sq[~excl], np.abs(phi1[~excl]),
                        "gradient-value bound for phi1"),
        _safe_max_ratio(grad_sq, np.abs(phi3),
                        "gradient-value bound for phi3"),
        limit_c1,
    ) * 1.05

    c2_cands = [limit_pinch]
    if np.any(annulus):
        c2_cands.append(_safe_max_ratio(
            np.abs(phi1[annulus]), grad_sq[annulus],
            "value-gradient bound for phi1 on the annulus"))
        c2_cands.append(_safe_max_ratio(
            np.abs(phi3[annulus]), grad_sq[annulus],
            "value-gradient bound for phi3 on the annulus"))
    inner = ~annulus & ~excl
    if np.any(inner):
        c2_cands.append(_safe_max_ratio(
            np.abs(phi1[inner]), grad_sq[inner],
            "value-gradient bound for phi1 off the annulus"))
    c2 = max(c2_cands) * 1.05

    if not np.any(~annulus):
        raise ValueError("no samples inside the annulus complement")
    c3 = float(np.min(2.0 * psi[~annulus])) / 1.05
    if c3 <= 0:
        raise ValueError("separation constant c3 is not positive")

    outside = dist0 >= params.r
    mu0 = float(np.min(peak - psi[outside])) / 1.05
    if mu0 <= 0:
        raise ValueError("mu0 is not positive: observation ball too large")

    sel = nbhd & ~excl
    pinch = (peak - psi[sel]) / grad_sq[sel]
    c01 = min(float(np.min(pinch)), limit_pinch) / 1.05
    c02 = max(float(np.max(pinch)), limit_pinch) * 1.05

    return GeometryConstants(
        c01=c01, c02=c02, c1=c1, c2=c2, c3=c3, rho=rho,
        mu0=mu0, mu1=peak, probe_resolution=m)


def derivative_maxima(params: WeightParams) -> dict:
    """Dense-scan maxima of psi and its derivatives over the closed ball,
    each * 1.05.

    max_hess is the largest |eigenvalue| of the sampled Hessians.  In 1-D
    that is max |H_00|, the entry LAPACK returns for a 1x1 matrix.  In 2-D
    the closed-form spectral radius |(a+c)/2| + sqrt(((a-c)/2)^2 + b^2) of
    each [[a, b], [b, c]] picks the candidates within 1e-9 relative of its
    largest value (all of them if that is not finite), and `eigvalsh` runs
    on those alone: its value is the bound, as when it ran on every sample.
    """
    jet = PsiJet(params, _sample_points(params, DERIVATIVE_SAMPLES))
    H = jet.hess
    if params.dim == 1:
        max_hess = float(np.max(np.abs(H[:, 0, 0])))
    else:
        a, b, c = H[:, 0, 0], H[:, 1, 0], H[:, 1, 1]
        est = np.abs(0.5 * (a + c)) + np.sqrt((0.5 * (a - c)) ** 2 + b * b)
        top = np.max(est)
        cand = est >= top * (1.0 - 1e-9) if np.isfinite(top) else slice(None)
        max_hess = float(np.max(np.abs(np.linalg.eigvalsh(H[cand]))))
    grad, grad_lap = jet.grad, jet.grad_lap
    return {
        "max_psi": float(np.max(np.abs(jet.psi))) * 1.05,
        "max_grad_sq": float(np.max(rowdot(grad, grad))) * 1.05,
        "max_hess": max_hess * 1.05,
        "max_lap": float(np.max(np.abs(jet.lap))) * 1.05,
        "max_grad_lap": float(
            np.max(np.sqrt(rowdot(grad_lap, grad_lap)))) * 1.05,
    }
