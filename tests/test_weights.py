"""Closed-form weight derivatives and sampled geometry constants.

Frozen oracles (hand-derived from the closed form of the weight):
  * peak value psi(x0) = 2*|x0|*R;
  * Hessian at x0 equals -(4*|x0|*R/(R^2-|x0|^2)) * I;
  * all derivative evaluators agree with central finite differences at
    second order.
"""

import math

import numpy as np
import pytest

from degenrd.weights import (WeightParams, eval_grad_lap_psi, eval_grad_psi,
                             eval_hess_psi, eval_lap_psi, eval_psi,
                             geometry_constants, psi_at_x0, weight_fields)
from degenrd.grid import Domain, build_grid
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
    with pytest.raises(ValueError):
        eval_psi(P1, np.array([0.7]))


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [P1, P2])
def test_peak_value_oracle(p):
    assert psi_at_x0(p) == pytest.approx(2 * p.x0_abs * p.radius, rel=1e-14)
    assert eval_psi(p, p.x0_point) == pytest.approx(2 * p.x0_abs * p.radius,
                                                    rel=1e-12)


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
    psi = eval_psi(p, pts)
    assert np.all(psi <= psi_at_x0(p) + 1e-12)
    assert np.all(psi >= -1e-12)
    bnd = np.zeros((2, p.dim))
    bnd[0, 0], bnd[1, 0] = R, -R
    assert np.max(np.abs(eval_psi(p, bnd))) < 1e-12


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
            fd[:, k] = (eval_psi(p, pts + e) - eval_psi(p, pts - e)) \
                / (2 * eps)
        errs[eps] = np.max(np.abs(np.atleast_2d(eval_grad_psi(p, pts))
                                  - fd))
    assert errs[1e-4] < 1e-6
    assert errs[1e-4] / max(errs[5e-5], 1e-14) > 3.0   # order 2


@pytest.mark.parametrize("p", [P1, P2])
def test_hessian_and_laplacian_match_finite_differences(p):
    rng = np.random.default_rng(13)
    pts = _interior_points(p, 25, rng)
    eps = 1e-4
    hess = np.atleast_3d(eval_hess_psi(p, pts))
    if p.dim == 1:
        hess = hess.reshape(-1, 1, 1)
    for k in range(p.dim):
        e = np.zeros(p.dim)
        e[k] = eps
        fd_row = (np.atleast_2d(eval_grad_psi(p, pts + e))
                  - np.atleast_2d(eval_grad_psi(p, pts - e))) / (2 * eps)
        rel = np.abs(hess[:, k, :] - fd_row) / (1.0 + np.abs(fd_row))
        assert np.max(rel) < 5e-5
    trace = np.einsum("nkk->n", hess)
    assert np.max(np.abs(trace - eval_lap_psi(p, pts))) < 1e-10


@pytest.mark.parametrize("p", [P1, P2])
def test_gradient_of_laplacian_matches_finite_differences(p):
    rng = np.random.default_rng(17)
    pts = _interior_points(p, 25, rng)
    eps = 1e-4
    g = np.atleast_2d(eval_grad_lap_psi(p, pts))
    for k in range(p.dim):
        e = np.zeros(p.dim)
        e[k] = eps
        fd = (eval_lap_psi(p, pts + e) - eval_lap_psi(p, pts - e)) \
            / (2 * eps)
        rel = np.abs(g[:, k] - fd) / (1.0 + np.abs(fd))
        assert np.max(rel) < 1e-3


@pytest.mark.parametrize("p", [P1, P2])
def test_hessian_at_peak_oracle(p):
    R, a = p.radius, p.x0_abs
    lam = 4 * a * R / (R * R - a * a)
    H = np.asarray(eval_hess_psi(p, p.x0_point)).reshape(p.dim, p.dim)
    assert np.allclose(H, -lam * np.eye(p.dim), atol=1e-9)


# ---------------------------------------------------------------------------
# tilted exponent and weight fields
# ---------------------------------------------------------------------------

def test_phi_signs_and_reconstruction():
    g = build_grid(Domain(1), 201)
    wf = weight_fields(P1, g)
    assert np.all(wf.phi1 <= 1e-12)
    assert np.all(wf.phi3 <= 1e-12)
    # phi3 - phi1 = -2 psi by construction
    assert np.allclose(wf.phi3 - wf.phi1, -2 * eval_psi(P1, g.centers),
                       atol=1e-12)


def _Phi_eta_closed_form(params, sign, pts, t, d):
    """Phi_i = s*phi_i/Gamma and eta_i = s/Gamma^2 * (-|phi_i|/2
    + d*s*|grad psi|^2/4) with phi_i = sign*psi - psi(x0), from the
    pointwise evaluators."""
    gamma = params.T - t + params.h
    phi = sign * eval_psi(params, pts) - psi_at_x0(params)
    grad = eval_grad_psi(params, pts).reshape(-1)
    eta = (params.s / gamma ** 2) * (-0.5 * np.abs(phi)
                                     + 0.25 * d * params.s * grad ** 2)
    return params.s * phi / gamma, eta


def test_Phi_eta_consistency():
    """The tilt's exponent and multiplier rows (u1, u2 under phi1, then
    under phi3) against the closed form, with d1 = 1 and d2 = 2."""
    for n, t, atol_Phi in ((11, 3.0, 1e-14), (128, 1.5, 1e-13)):
        g = build_grid(Domain(1), n)
        ts = tilt(g, t, np.ones((2, n)), np.zeros(n), weight_fields(P1, g))
        eta = ts.eta(1.0, 2.0)
        for row, (sign, d) in enumerate([(1, 1.0), (1, 2.0), (-1, 1.0),
                                         (-1, 2.0)]):
            Phi_c, eta_c = _Phi_eta_closed_form(P1, sign, g.centers, t, d)
            assert np.allclose(ts.Phi[row], Phi_c, atol=atol_Phi)
            assert np.allclose(eta[row], eta_c, atol=1e-13)


def test_weight_fields_match_pointwise():
    g = build_grid(Domain(1), 128)
    wf = weight_fields(P1, g)
    psi = eval_psi(P1, g.centers)
    assert np.allclose(wf.phi1 + psi_at_x0(P1), psi, atol=1e-14)
    assert np.allclose(wf.phi3 + psi_at_x0(P1), -psi, atol=1e-14)
    grad = eval_grad_psi(P1, g.centers)
    assert np.allclose(wf.grad_psi, grad, atol=1e-14)
    assert np.allclose(wf.grad_psi_sq, np.sum(grad * grad, axis=-1),
                       atol=1e-14)
    assert np.allclose(wf.laplacian_psi, eval_lap_psi(P1, g.centers),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# sampled geometry constants
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def geom():
    return geometry_constants(P1)


def test_geometry_mu1_closed_form(geom):
    assert geom.mu1 == pytest.approx(2 * P1.x0_abs * P1.radius, rel=1e-12)
    assert geom.rho == pytest.approx(0.5 * (P1.x0_abs + P1.radius), rel=0)


def test_geometry_clause_bounds_hold_on_fresh_samples(geom):
    """Zero violations of all clauses at 10^4 random points."""
    rng = np.random.default_rng(23)
    pts = rng.uniform(-P1.radius, P1.radius, (10_000, 1))
    psi = eval_psi(P1, pts)
    grad = eval_grad_psi(P1, pts).reshape(-1)
    grad_sq = grad ** 2
    peak = psi_at_x0(P1)
    phi1, phi3 = psi - peak, -psi - peak
    dist0 = np.abs(pts[:, 0] - P1.x0_abs)
    rad = np.abs(pts[:, 0])
    annulus = rad >= geom.rho

    # gradient-value bound everywhere, both signs of the weight
    assert np.all(grad_sq <= geom.c1 * np.abs(phi1) + 1e-12)
    assert np.all(grad_sq <= geom.c1 * np.abs(phi3) + 1e-12)
    # reverse bound on the outer annulus, plus phi1 off the annulus
    assert np.all(np.abs(phi1[annulus])
                  <= geom.c2 * grad_sq[annulus] + 1e-12)
    assert np.all(np.abs(phi3[annulus])
                  <= geom.c2 * grad_sq[annulus] + 1e-12)
    inner = ~annulus & (dist0 > 1e-4)
    assert np.all(np.abs(phi1[inner]) <= geom.c2 * grad_sq[inner] + 1e-12)
    # separation of the two exponents off the annulus
    assert np.all((phi3 - phi1)[~annulus] <= -geom.c3 + 1e-12)
    # decay outside the observation ball
    outside = dist0 >= P1.r
    assert np.all(phi1[outside] <= -geom.mu0 + 1e-12)
    # two-sided pinch near the peak
    nbhd = (dist0 <= 0.5 * (P1.radius - P1.x0_abs)) & (dist0 > 1e-4)
    pinch = (peak - psi[nbhd])
    assert np.all(pinch >= geom.c01 * grad_sq[nbhd] - 1e-12)
    assert np.all(pinch <= geom.c02 * grad_sq[nbhd] + 1e-12)


def test_geometry_constants_deterministic():
    assert geometry_constants(P1) == geometry_constants(P1)
