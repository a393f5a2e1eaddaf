"""Closed-form weight derivatives and sampled geometry constants.

Frozen oracles (hand-derived from the closed form of the weight):
  * peak value psi(x0) = 2*|x0|*R;
  * Hessian at x0 equals -(4*|x0|*R/(R^2-|x0|^2)) * I;
  * all derivative evaluators agree with central finite differences at
    second order;
  * `PsiJet` is bitwise equal to the five per-quantity evaluators it
    replaced, and its peak, |grad psi|^2, phi1 and phi3 to the
    expressions they replaced, kept below as the reference.
"""

import math

import numpy as np
import pytest

from degenrd.weights import (DERIVATIVE_SAMPLES, PsiJet, WeightParams,
                             _sample_points, derivative_maxima,
                             geometry_constants, weight_fields)
from degenrd.grid import build_grid, rowdot
from degenrd.logconv import tilt

P1 = WeightParams(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=10.0, dim=1)
P2 = WeightParams(x0_abs=0.2, r=0.08, s=0.3, h=0.2, T=5.0, dim=2)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(x0_abs=0.0, r=0.1, s=0.5, h=0.1, T=1.0),         # centered peak
    dict(x0_abs=0.45, r=0.1, s=0.5, h=0.1, T=1.0),        # ball exits domain
    dict(x0_abs=0.25, r=0.1, s=1.5, h=0.1, T=1.0),        # s out of (0,1]
    dict(x0_abs=0.25, r=0.1, s=0.5, h=0.0, T=1.0),        # h out of (0,1]
    dict(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=0.0),        # T nonpositive
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        WeightParams(dim=1, **kwargs)


def test_out_of_domain_point_rejected():
    with pytest.raises(ValueError, match="outside the closed domain"):
        PsiJet(P1, np.array([[0.7]]))


@pytest.mark.parametrize("p,points", [
    (P1, np.array([0.1])),                   # one point, no point axis
    (P1, np.zeros((3, 2))),                  # 2-D points, 1-D weight
    (P2, np.zeros((3, 1))),
    (P2, np.zeros((2, 3, 2))),
], ids=["single", "dim2-for-1", "dim1-for-2", "3-axes"])
def test_points_must_be_an_m_by_dim_array(p, points):
    with pytest.raises(ValueError, match=rf"\(m, {p.dim}\) array"):
        PsiJet(p, points)


# ---------------------------------------------------------------------------
# the evaluator against the per-quantity functions it replaced
# ---------------------------------------------------------------------------

def _as_points(params: WeightParams, point) -> tuple[np.ndarray, bool]:
    pts = np.asarray(point, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != params.dim:
        raise ValueError(f"points must have {params.dim} coordinates")
    R = params.radius
    rad = np.linalg.norm(pts, axis=-1)
    if np.any(rad > R * (1 + 1e-12) + 1e-14):
        raise ValueError("point outside the closed domain")
    return pts, scalar


def _den(params: WeightParams, pts: np.ndarray) -> np.ndarray:
    a, R = params.x0_abs, params.radius
    return a * a + R * R - 2.0 * a * pts[..., 0]


def eval_psi(params: WeightParams, point):
    """Weight value psi(x); vanishes on the boundary, peaks at x0."""
    pts, scalar = _as_points(params, point)
    a, R = params.x0_abs, params.radius
    q = 2.0 * a * R
    g = R * R - np.sum(pts * pts, axis=-1)
    out = q * g / _den(params, pts)
    return float(out[0]) if scalar else out


def eval_grad_psi(params: WeightParams, point):
    """Closed-form gradient of psi, shape (..., dim)."""
    pts, scalar = _as_points(params, point)
    a, R = params.x0_abs, params.radius
    q = 2.0 * a * R
    den = _den(params, pts)
    g = R * R - np.sum(pts * pts, axis=-1)
    grad = -2.0 * q * pts / den[..., None]
    grad[..., 0] += 2.0 * a * q * g / (den * den)
    return grad[0] if scalar else grad


def eval_hess_psi(params: WeightParams, point):
    """Closed-form Hessian of psi, shape (..., dim, dim)."""
    pts, scalar = _as_points(params, point)
    a, R, n = params.x0_abs, params.radius, params.dim
    q = 2.0 * a * R
    den = _den(params, pts)
    g = R * R - np.sum(pts * pts, axis=-1)
    m = pts.shape[0]
    H = np.zeros((m, n, n))
    inv = 1.0 / den
    for k in range(n):
        H[:, k, k] += -2.0 * inv
    H[:, 0, :] += -4.0 * a * pts * (inv * inv)[:, None]
    H[:, :, 0] += -4.0 * a * pts * (inv * inv)[:, None]
    H[:, 0, 0] += 8.0 * a * a * g * inv ** 3
    H *= q
    return H[0] if scalar else H


def eval_lap_psi(params: WeightParams, point):
    """Closed-form Laplacian of psi."""
    pts, scalar = _as_points(params, point)
    a, R, n = params.x0_abs, params.radius, params.dim
    q = 2.0 * a * R
    den = _den(params, pts)
    g = R * R - np.sum(pts * pts, axis=-1)
    out = q * (-2.0 * n / den - 8.0 * a * pts[..., 0] / den ** 2
               + 8.0 * a * a * g / den ** 3)
    return float(out[0]) if scalar else out


def eval_grad_lap_psi(params: WeightParams, point):
    """Closed-form gradient of the Laplacian of psi, shape (..., dim)."""
    pts, scalar = _as_points(params, point)
    a, R, n = params.x0_abs, params.radius, params.dim
    q = 2.0 * a * R
    den = _den(params, pts)
    g = R * R - np.sum(pts * pts, axis=-1)
    out = -16.0 * a * a * pts / den[..., None] ** 3
    out[..., 0] += ((-4.0 * n - 8.0) * a / den ** 2
                    - 32.0 * a * a * pts[..., 0] / den ** 3
                    + 48.0 * a ** 3 * g / den ** 4)
    out *= q
    return out[0] if scalar else out


def eval_peak(params: WeightParams, point=None):
    return 2.0 * params.x0_abs * params.radius


def eval_grad_sq(params: WeightParams, point):
    grad = eval_grad_psi(params, point)
    return rowdot(grad, grad)


def eval_phi1(params: WeightParams, point):
    return eval_psi(params, point) - eval_peak(params)


def eval_phi3(params: WeightParams, point):
    return -eval_psi(params, point) - eval_peak(params)


_REFERENCE = {"psi": eval_psi, "grad": eval_grad_psi, "hess": eval_hess_psi,
              "lap": eval_lap_psi, "grad_lap": eval_grad_lap_psi,
              "grad_sq": eval_grad_sq, "phi1": eval_phi1, "phi3": eval_phi3,
              "peak": eval_peak}


def _package_point_sets(dim):
    """Every point set the package evaluates psi on: the geometry and
    derivative scans, cell centres and boundary face midpoints."""
    probe = WeightParams(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=1.0, dim=dim)
    sets = {f"sample{m}": _sample_points(probe, m)
            for m in (10_000, 20_000, 40_000, 20_001)}
    for n in ((256,) if dim == 1 else (32, 64)):
        grid = build_grid(dim, n)
        sets[f"centers{n}"] = grid.centers
        sets[f"bface_mid{n}"] = grid.bface_mid
    return sets


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("x0,r", [(0.25, 0.1), (0.2, 0.08)])
def test_jet_bitwise_equals_the_per_quantity_evaluators(dim, x0, r):
    params = WeightParams(x0_abs=x0, r=r, s=0.5, h=0.1, T=1.0, dim=dim)
    for name, pts in _package_point_sets(dim).items():
        jet = PsiJet(params, pts)
        for attr, reference in _REFERENCE.items():
            got, want = getattr(jet, attr), reference(params, pts)
            assert np.shape(got) == np.shape(want), (name, attr)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), \
                (name, attr)


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [P1, P2])
def test_peak_value_oracle(p):
    jet = PsiJet(p, p.x0_point[None])
    assert jet.peak == pytest.approx(2 * p.x0_abs * p.radius, rel=1e-14)
    assert jet.psi[0] == pytest.approx(2 * p.x0_abs * p.radius, rel=1e-12)


@pytest.mark.parametrize("p", [P1, P2])
def test_peak_is_global_max_and_boundary_zero(p):
    R = p.radius
    if p.dim == 1:
        pts = np.linspace(-R, R, 5001).reshape(-1, 1)
    else:
        rr = np.linspace(0, R, 101)
        tt = np.linspace(0, 2 * math.pi, 101)
        rg, tg = np.meshgrid(rr, tt)
        pts = np.column_stack([(rg * np.cos(tg)).ravel(),
                               (rg * np.sin(tg)).ravel()])
    jet = PsiJet(p, pts)
    psi = jet.psi
    assert np.all(psi <= jet.peak + 1e-12)
    assert np.all(psi >= -1e-12)
    bnd = np.zeros((2, p.dim))
    bnd[0, 0], bnd[1, 0] = R, -R
    assert np.max(np.abs(PsiJet(p, bnd).psi)) < 1e-12


def _interior_points(p, n, rng):
    R = 0.95 * p.radius
    if p.dim == 1:
        return rng.uniform(-R, R, (n, 1))
    r = R * np.sqrt(rng.uniform(0, 1, n))
    t = rng.uniform(0, 2 * math.pi, n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


@pytest.mark.parametrize("p", [P1, P2])
def test_gradient_matches_finite_differences(p):
    rng = np.random.default_rng(11)
    pts = _interior_points(p, 40, rng)
    errs = {}
    for eps in (1e-4, 5e-5):
        fd = np.zeros_like(pts)
        for k in range(p.dim):
            e = np.zeros(p.dim)
            e[k] = eps
            fd[:, k] = (PsiJet(p, pts + e).psi - PsiJet(p, pts - e).psi) \
                / (2 * eps)
        errs[eps] = np.max(np.abs(PsiJet(p, pts).grad - fd))
    assert errs[1e-4] < 1e-6
    assert errs[1e-4] / max(errs[5e-5], 1e-14) > 3.0   # order 2


@pytest.mark.parametrize("p", [P1, P2])
def test_hessian_and_laplacian_match_finite_differences(p):
    rng = np.random.default_rng(13)
    pts = _interior_points(p, 25, rng)
    eps = 1e-4
    jet = PsiJet(p, pts)
    for k in range(p.dim):
        e = np.zeros(p.dim)
        e[k] = eps
        fd_row = (PsiJet(p, pts + e).grad - PsiJet(p, pts - e).grad) \
            / (2 * eps)
        rel = np.abs(jet.hess[:, k, :] - fd_row) / (1.0 + np.abs(fd_row))
        assert np.max(rel) < 5e-5
    trace = np.einsum("nkk->n", jet.hess)
    assert np.max(np.abs(trace - jet.lap)) < 1e-10


@pytest.mark.parametrize("p", [P1, P2])
def test_gradient_of_laplacian_matches_finite_differences(p):
    rng = np.random.default_rng(17)
    pts = _interior_points(p, 25, rng)
    eps = 1e-4
    g = PsiJet(p, pts).grad_lap
    for k in range(p.dim):
        e = np.zeros(p.dim)
        e[k] = eps
        fd = (PsiJet(p, pts + e).lap - PsiJet(p, pts - e).lap) / (2 * eps)
        rel = np.abs(g[:, k] - fd) / (1.0 + np.abs(fd))
        assert np.max(rel) < 1e-3


@pytest.mark.parametrize("p", [P1, P2])
def test_hessian_at_peak_oracle(p):
    R, a = p.radius, p.x0_abs
    lam = 4 * a * R / (R * R - a * a)
    H = PsiJet(p, p.x0_point[None]).hess[0]
    assert np.allclose(H, -lam * np.eye(p.dim), atol=1e-9)


# ---------------------------------------------------------------------------
# tilted exponent and weight fields
# ---------------------------------------------------------------------------

def test_phi_signs_and_reconstruction():
    g = build_grid(1, 201)
    wf = weight_fields(P1, g)
    assert np.all(wf.phi1 <= 1e-12)
    assert np.all(wf.phi3 <= 1e-12)
    # phi3 - phi1 = -2 psi by construction
    assert np.allclose(wf.phi3 - wf.phi1, -2 * PsiJet(P1, g.centers).psi,
                       atol=1e-12)


def _Phi_eta_closed_form(params, sign, pts, t, d):
    """Phi_i = s*phi_i/Gamma and eta_i = s/Gamma^2 * (-|phi_i|/2
    + d*s*|grad psi|^2/4) with phi_i = sign*psi - psi(x0), from the
    pointwise evaluators."""
    gamma = params.T - t + params.h
    jet = PsiJet(params, pts)
    phi = sign * jet.psi - jet.peak
    grad = jet.grad.reshape(-1)
    eta = (params.s / gamma ** 2) * (-0.5 * np.abs(phi)
                                     + 0.25 * d * params.s * grad ** 2)
    return params.s * phi / gamma, eta


def test_Phi_eta_consistency():
    """The tilt's exponent and multiplier rows (u1, u2 under phi1, then
    under phi3) against the closed form, with d1 = 1 and d2 = 2."""
    for n, t, atol_Phi in ((11, 3.0, 1e-14), (128, 1.5, 1e-13)):
        g = build_grid(1, n)
        ts = tilt(g, t, np.ones((2, n)), np.zeros(n), weight_fields(P1, g),
                  1.0, 2.0)
        for row, (sign, d) in enumerate([(1, 1.0), (1, 2.0), (-1, 1.0),
                                         (-1, 2.0)]):
            Phi_c, eta_c = _Phi_eta_closed_form(P1, sign, g.centers, t, d)
            assert np.allclose(ts.Phi[row], Phi_c, atol=atol_Phi)
            assert np.allclose(ts.eta[row], eta_c, atol=1e-13)


def test_weight_fields_match_pointwise():
    g = build_grid(1, 128)
    wf = weight_fields(P1, g)
    jet = PsiJet(P1, g.centers)
    psi = jet.psi
    assert wf.params is P1
    assert np.allclose(wf.phi1 + jet.peak, psi, atol=1e-14)
    assert np.allclose(wf.phi3 + jet.peak, -psi, atol=1e-14)
    grad = jet.grad
    assert np.allclose(wf.grad, grad, atol=1e-14)
    assert np.allclose(wf.grad_sq, np.sum(grad * grad, axis=-1),
                       atol=1e-14)
    assert np.allclose(wf.lap, jet.lap, atol=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32), (2, 64)])
def test_phi_rows_depend_on_x0_and_dim_alone(dim, n):
    """phi1 and phi3 are bitwise the same for every (r, s, h, T), so the
    interpolation window may tilt with the configured weight fields."""
    base = dict(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=10.0, dim=dim)
    g = build_grid(dim, n)
    ref = weight_fields(WeightParams(**base), g)
    for change in (dict(r=0.05), dict(s=1.7e-4), dict(s=1.0), dict(h=1.0),
                   dict(h=1e-3), dict(T=0.5), dict(T=1e4),
                   dict(r=0.02, s=1e-9, h=0.9, T=3.0)):
        wf = weight_fields(WeightParams(**{**base, **change}), g)
        assert wf.phi1.tobytes() == ref.phi1.tobytes(), change
        assert wf.phi3.tobytes() == ref.phi3.tobytes(), change


# ---------------------------------------------------------------------------
# sampled geometry constants
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def geom():
    return geometry_constants(P1)


def test_geometry_mu1_closed_form(geom):
    assert geom["mu1"] == pytest.approx(2 * P1.x0_abs * P1.radius, rel=1e-12)
    assert geom["rho"] == pytest.approx(0.5 * (P1.x0_abs + P1.radius), rel=0)


def test_geometry_clause_bounds_hold_on_fresh_samples(geom):
    """Zero violations of all clauses at 10^4 random points."""
    rng = np.random.default_rng(23)
    pts = rng.uniform(-P1.radius, P1.radius, (10_000, 1))
    jet = PsiJet(P1, pts)
    psi = jet.psi
    grad = jet.grad.reshape(-1)
    grad_sq = grad ** 2
    peak = jet.peak
    phi1, phi3 = psi - peak, -psi - peak
    dist0 = np.abs(pts[:, 0] - P1.x0_abs)
    rad = np.abs(pts[:, 0])
    annulus = rad >= geom["rho"]

    # gradient-value bound everywhere, both signs of the weight
    assert np.all(grad_sq <= geom["c1"] * np.abs(phi1) + 1e-12)
    assert np.all(grad_sq <= geom["c1"] * np.abs(phi3) + 1e-12)
    # reverse bound on the outer annulus, plus phi1 off the annulus
    assert np.all(np.abs(phi1[annulus])
                  <= geom["c2"] * grad_sq[annulus] + 1e-12)
    assert np.all(np.abs(phi3[annulus])
                  <= geom["c2"] * grad_sq[annulus] + 1e-12)
    inner = ~annulus & (dist0 > 1e-4)
    assert np.all(np.abs(phi1[inner]) <= geom["c2"] * grad_sq[inner] + 1e-12)
    # separation of the two exponents off the annulus
    assert np.all((phi3 - phi1)[~annulus] <= -geom["c3"] + 1e-12)
    # decay outside the observation ball
    outside = dist0 >= P1.r
    assert np.all(phi1[outside] <= -geom["mu0"] + 1e-12)
    # two-sided pinch near the peak
    nbhd = (dist0 <= 0.5 * (P1.radius - P1.x0_abs)) & (dist0 > 1e-4)
    pinch = (peak - psi[nbhd])
    assert np.all(pinch >= geom["c01"] * grad_sq[nbhd] - 1e-12)
    assert np.all(pinch <= geom["c02"] * grad_sq[nbhd] + 1e-12)


def test_geometry_constants_deterministic():
    assert geometry_constants(P1) == geometry_constants(P1)


# ---------------------------------------------------------------------------
# the sample points and derivative maxima against their numpy references
# ---------------------------------------------------------------------------

def _meshgrid_sample_points(params: WeightParams, m: int) -> np.ndarray:
    """The 2-D scan built with one cos/sin per meshgrid point, as
    `_sample_points` did before it took them once per angle."""
    R = params.radius
    mr = max(int(math.sqrt(m)), 24)
    rr = R * (np.arange(mr) + 0.5) / mr
    tt = 2 * math.pi * np.arange(mr) / mr
    rg, tg = np.meshgrid(rr, tt, indexing="ij")
    pts = np.zeros((mr * mr, 2))
    pts[:, 0] = (rg * np.cos(tg)).ravel()
    pts[:, 1] = (rg * np.sin(tg)).ravel()
    bnd = np.zeros((mr, 2))
    bnd[:, 0] = R * np.cos(tt)
    bnd[:, 1] = R * np.sin(tt)
    return np.vstack([pts, bnd])


@pytest.mark.parametrize("m", [10_000, 20_000, 20_001, 40_000, 320_000])
def test_sample_points_bitwise_equal_the_meshgrid_scan(m):
    pts = _sample_points(P2, m)
    ref = _meshgrid_sample_points(P2, m)
    assert pts.shape == ref.shape and pts.tobytes() == ref.tobytes()


def _eigvalsh_maxima(params: WeightParams) -> dict:
    """`derivative_maxima` with `eigvalsh` on every sampled Hessian and
    numpy's axis reductions: the reference for the candidate search."""
    jet = PsiJet(params, _sample_points(params, DERIVATIVE_SAMPLES))
    hess_norm = np.max(np.abs(np.linalg.eigvalsh(jet.hess)), axis=-1)
    grad = jet.grad
    return {
        "max_psi": float(np.max(np.abs(jet.psi))) * 1.05,
        "max_grad_sq": float(np.max(np.sum(grad * grad, axis=-1))) * 1.05,
        "max_hess": float(np.max(hess_norm)) * 1.05,
        "max_lap": float(np.max(np.abs(jet.lap))) * 1.05,
        "max_grad_lap": float(
            np.max(np.linalg.norm(jet.grad_lap, axis=-1))) * 1.05,
    }


# the centres of the shipped configs and of the benchmark's seed jitter
_CENTRES = [0.05, 0.1, 0.25, 0.3] + [round(0.2540 + 0.0001 * k, 4)
                                     for k in (0, 2, 5, 7, 10, 12, 15)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("x0", _CENTRES)
def test_derivative_maxima_equal_the_full_eigvalsh_scan(dim, x0):
    params = WeightParams(x0_abs=x0, r=0.1, s=0.5, h=0.1, T=1.0, dim=dim)
    assert derivative_maxima(params) == _eigvalsh_maxima(params)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("x0", _CENTRES)
def test_hess_bitwise_equals_the_strided_stack(dim, x0):
    """`PsiJet.hess`, built from whole columns, keeps every bit of the
    stack `eval_hess_psi` builds by strided passes onto zeros, the sign of
    each zero included (the off-diagonal at x_2 = 0 reads +0.0)."""
    params = WeightParams(x0_abs=x0, r=0.1, s=0.5, h=0.1, T=1.0, dim=dim)
    for pts in (_sample_points(params, DERIVATIVE_SAMPLES),
                build_grid(dim, 32).centers):
        assert PsiJet(params, pts).hess.tobytes() \
            == eval_hess_psi(params, pts).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_derivative_maxima_fall_back_to_every_hessian(monkeypatch, bad):
    """A non-finite estimate sends every Hessian to `eigvalsh`: LAPACK
    returns 0 for a NaN matrix and NaN for an infinite one, as before."""
    hess = PsiJet.hess.func

    def spoiled(self):
        H = hess(self)
        H[7, 0, 0] = bad
        return H

    monkeypatch.setattr(PsiJet, "hess", property(spoiled))
    got = derivative_maxima(P2)["max_hess"]
    want = _eigvalsh_maxima(P2)["max_hess"]
    assert got == want or (math.isnan(got) and math.isnan(want))
