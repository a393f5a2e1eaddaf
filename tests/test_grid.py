"""Grid construction and discrete-calculus identities.

Frozen oracles:
  * unit-measure radii: 1/2, pi^(-1/2), (3/(4*pi))^(1/3);
  * 1-D discrete eigenpair cos(k*pi*(x+1/2)) with
    lambda_k = (4/dx^2) sin^2(k*pi*dx/2), derived by direct substitution
    into the three-point zero-flux stencil;
  * disk (area 1): first nonzero zero-flux eigenvalue (p'_11)^2 * pi with
    p'_11 = 1.8411837813, from the Bessel-derivative tables.
"""

import math

import numpy as np
import pytest
import scipy.sparse.linalg

from degenrd.grid import (Domain, Field, ball_mask, build_grid,
                          cell_gradient, dirichlet_energy, domain_radius,
                          integrate, neumann_eigenvalue_1,
                          neumann_laplacian)


def test_domain_radius_oracles():
    assert domain_radius(1) == pytest.approx(0.5, abs=0)
    assert domain_radius(2) == pytest.approx(math.pi ** -0.5, rel=1e-15)
    assert domain_radius(3) == pytest.approx((3 / (4 * math.pi)) ** (1 / 3),
                                             rel=1e-15)


def test_unsupported_dimension_rejected():
    with pytest.raises(ValueError, match="unsupported dimension"):
        build_grid(Domain(3), 32)
    with pytest.raises(ValueError):
        Domain(0)


def test_resolution_floor():
    with pytest.raises(ValueError):
        build_grid(Domain(1), 4)


@pytest.mark.parametrize("dim,res", [(1, 64), (1, 256), (2, 12), (2, 24)])
def test_unit_measure(dim, res):
    g = build_grid(Domain(dim), res)
    assert g.volumes.sum() == pytest.approx(1.0, rel=1e-12)
    assert integrate(g, np.full(g.ncells, 3.5)) == pytest.approx(3.5,
                                                                 rel=1e-12)


@pytest.mark.parametrize("dim,res", [(1, 128), (2, 16)])
def test_energy_matches_operator_pairing_exactly(dim, res):
    """sum_faces t*(dv)^2 == <-L v, v>_V identically (discrete identity)."""
    g = build_grid(Domain(dim), res)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(g.ncells)
    lv = g.laplacian @ v
    pairing = -float(np.dot(g.volumes * lv, v))
    assert dirichlet_energy(g, v) == pytest.approx(pairing, rel=1e-12)


@pytest.mark.parametrize("dim,res", [(1, 128), (2, 16)])
def test_operator_symmetry_and_conservation(dim, res):
    g = build_grid(Domain(dim), res)
    A = np.diag(g.volumes) @ g.laplacian.toarray()
    assert np.max(np.abs(A - A.T)) < 1e-10
    # zero-flux conservation: volume-weighted sum of L v vanishes
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.ncells)
    assert abs(np.dot(g.volumes, g.laplacian @ v)) < 1e-12
    # constants are in the kernel
    c = Field(g, np.ones(g.ncells))
    op_scale = np.max(np.abs(A)) / np.min(g.volumes)
    assert np.max(np.abs(neumann_laplacian(g, c, 2.0).values)) \
        < 1e-13 * op_scale


@pytest.mark.parametrize("k", [1, 2, 5])
def test_1d_discrete_eigenpair_exact(k):
    g = build_grid(Domain(1), 128)
    dx = g.spacing
    xi = g.centers[:, 0] + 0.5            # map [-1/2,1/2] to [0,1]
    phi = np.cos(k * math.pi * xi)
    lam = (4.0 / dx ** 2) * math.sin(k * math.pi * dx / 2.0) ** 2
    resid = g.laplacian @ phi + lam * phi
    assert np.max(np.abs(resid)) < 1e-9 * lam


def test_1d_first_eigenvalue_converges_to_pi_squared():
    errs = []
    for res in (64, 128):
        g = build_grid(Domain(1), res)
        errs.append(abs(neumann_eigenvalue_1(g) - math.pi ** 2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_2d_first_eigenvalue_disk_oracle():
    g = build_grid(Domain(2), 24)
    lam = neumann_eigenvalue_1(g)
    exact = 1.8411837813 ** 2 * math.pi   # (p'_11 / R)^2, R = pi^(-1/2)
    assert lam == pytest.approx(exact, rel=0.02)


@pytest.mark.parametrize("res,rel", [(256, 1e-12), (4096, 1e-9)])
def test_1d_first_eigenvalue_closed_form(res, rel):
    """lambda_1 = 4 n^2 sin^2(pi/2n), the k=1 pair above; the eigen-solve's
    rounding error grows like eps*4n^2/lambda_1 (about 4e-12 at n=4096)."""
    lam = neumann_eigenvalue_1(build_grid(Domain(1), res))
    exact = 4.0 * res ** 2 * math.sin(math.pi / (2 * res)) ** 2
    assert lam == pytest.approx(exact, rel=rel)


def test_2d_first_eigenvalue_disk_oracle_fine():
    """16,129 cells; the error is second order, 3.4e-5 here."""
    lam = neumann_eigenvalue_1(build_grid(Domain(2), 64))
    assert lam == pytest.approx(1.8411837813 ** 2 * math.pi, rel=1e-4)


def test_first_eigenvalue_bitwise_reproducible():
    lams = [neumann_eigenvalue_1(build_grid(Domain(2), 32))
            for _ in range(2)]
    assert lams[0] == lams[1]


def test_first_eigenvalue_failure_raises_runtime_error(monkeypatch):
    """A solver failure surfaces as RuntimeError (CLI exit code 2)."""
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no luck", [], [])
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(RuntimeError, match="eigenvalue iteration failed"):
        neumann_eigenvalue_1(build_grid(Domain(1), 64))


def test_cell_gradient_linear_exact_1d():
    g = build_grid(Domain(1), 64)
    v = 3.0 * g.centers[:, 0] + 1.0
    grad = cell_gradient(g, v)
    assert np.max(np.abs(grad[:, 0] - 3.0)) < 1e-10


def test_cell_gradient_second_order_1d():
    errs = []
    for res in (64, 128):
        g = build_grid(Domain(1), res)
        x = g.centers[:, 0]
        grad = cell_gradient(g, np.sin(2 * np.pi * x))[:, 0]
        errs.append(np.max(np.abs(grad - 2 * np.pi * np.cos(2 * np.pi * x))))
    assert errs[0] / errs[1] > 3.5


def test_ball_mask_1d():
    g = build_grid(Domain(1), 256)
    mask = ball_mask(g, 0.25, 0.1)
    x = g.centers[:, 0]
    assert np.array_equal(mask, np.abs(x - 0.25) <= 0.1 + 1e-12)
    assert mask.sum() > 0


def test_field_rejects_nonfinite(grid256):
    with pytest.raises(ValueError):
        Field(grid256, np.full(grid256.ncells, np.nan))


def test_grid_summary_serializable(grid256):
    import json
    s = grid256.summary()
    json.dumps(s)
    assert s["dim"] == 1 and s["ncells"] == 256
