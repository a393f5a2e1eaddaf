"""Grid construction and discrete-calculus identities.

Frozen oracles:
  * unit-measure radii: 1/2, pi^(-1/2), (3/(4*pi))^(1/3);
  * 1-D discrete eigenpair cos(k*pi*(x+1/2)) with
    lambda_k = (4/dx^2) sin^2(k*pi*dx/2), derived by direct substitution
    into the three-point zero-flux stencil;
  * disk (area 1): first nonzero zero-flux eigenvalue (p'_11)^2 * pi with
    p'_11 = 1.8411837813, from the Bessel-derivative tables.

The mode-reduced first eigenvalue is also checked against scipy solves of
the assembled operator: shift-invert Lanczos, and dense `eigh` on small
disks.  The Laplacian's numpy CSR arrays must equal scipy's assembly bit
for bit.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import degenrd
from degenrd.grid import (Grid, ball_mask, build_grid,
                          cell_gradient, dirichlet_energy, domain_radius,
                          integrate, neumann_eigenvalue_1, rowdot,
                          _ring_mode)


def _loop_grid_2d(resolution: int) -> Grid:
    """The polar grid built face by face: the reference for the vectorized
    builder, which must give the same arrays bit for bit."""
    R = domain_radius(2)
    nr = resolution
    ntheta = 4 * resolution
    dr = R / nr
    dth = 2.0 * math.pi / ntheta
    redges = dr * np.arange(nr + 1)
    ncells = 1 + (nr - 1) * ntheta
    centers = np.zeros((ncells, 2))
    volumes = np.zeros(ncells)
    volumes[0] = math.pi * redges[1] ** 2
    th_mid = dth * (np.arange(ntheta) + 0.5)
    cos_m, sin_m = np.cos(th_mid), np.sin(th_mid)
    rmid = np.zeros(nr + 1)
    for k in range(1, nr):
        r0, r1 = redges[k], redges[k + 1]
        rmid[k] = 0.5 * (r0 + r1)
        sl = slice(1 + (k - 1) * ntheta, 1 + k * ntheta)
        centers[sl, 0] = rmid[k] * cos_m
        centers[sl, 1] = rmid[k] * sin_m
        volumes[sl] = 0.5 * (r1 ** 2 - r0 ** 2) * dth

    fi, fj, ftr, far, fno = [], [], [], [], []

    def add_face(ci, cj, area, dist, normal):
        fi.append(ci)
        fj.append(cj)
        far.append(area)
        ftr.append(area / dist)
        fno.append(normal)

    for j in range(ntheta):
        add_face(0, 1 + j, redges[1] * dth, rmid[1], (cos_m[j], sin_m[j]))
    for k in range(1, nr - 1):
        base, nxt = 1 + (k - 1) * ntheta, 1 + k * ntheta
        re = redges[k + 1]
        dist = rmid[k + 1] - rmid[k]
        for j in range(ntheta):
            add_face(base + j, nxt + j, re * dth, dist,
                     (cos_m[j], sin_m[j]))
    th_edge = dth * np.arange(ntheta)
    for k in range(1, nr):
        base = 1 + (k - 1) * ntheta
        dist = rmid[k] * dth
        for j in range(ntheta):
            jn = (j + 1) % ntheta
            te = th_edge[jn]
            add_face(base + j, base + jn, dr, dist,
                     (-math.sin(te), math.cos(te)))

    bfaces = (np.arange(1 + (nr - 2) * ntheta, ncells),
              np.full(ntheta, R * dth),
              np.column_stack([R * cos_m, R * sin_m]),
              np.column_stack([cos_m, sin_m]))
    faces = (np.asarray(fi), np.asarray(fj), np.asarray(ftr),
             np.asarray(far), np.asarray(fno, float))
    return Grid(2, resolution, centers, volumes, faces, bfaces)


def laplacian_matrix(g):
    """`g.laplacian`'s CSR arrays wrapped as a scipy matrix."""
    indptr, indices, data = g.laplacian
    return sp.csr_matrix((data, indices, indptr), shape=(g.ncells, g.ncells))


def test_domain_radius_oracles():
    assert domain_radius(1) == pytest.approx(0.5, abs=0)
    assert domain_radius(2) == pytest.approx(math.pi ** -0.5, rel=1e-15)
    with pytest.raises(ValueError, match="unsupported dimension"):
        domain_radius(3)


def test_unsupported_dimension_rejected():
    for dim in (0, 3):
        with pytest.raises(ValueError, match="unsupported dimension"):
            build_grid(dim, 64)


def test_resolution_floor():
    with pytest.raises(ValueError):
        build_grid(1, 4)


@pytest.mark.parametrize("dim,res", [(1, 64), (1, 256), (2, 12), (2, 24)])
def test_unit_measure(dim, res):
    g = build_grid(dim, res)
    assert g.volumes.sum() == pytest.approx(1.0, rel=1e-12)
    assert integrate(g, np.full(g.ncells, 3.5)) == pytest.approx(3.5,
                                                                 rel=1e-12)


@pytest.mark.parametrize("dim,res", [(1, 128), (2, 16)])
def test_energy_matches_operator_pairing_exactly(dim, res):
    """sum_faces t*(dv)^2 == <-L v, v>_V identically (discrete identity)."""
    g = build_grid(dim, res)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(g.ncells)
    lv = laplacian_matrix(g) @ v
    pairing = -float(np.dot(g.volumes * lv, v))
    assert dirichlet_energy(g, v) == pytest.approx(pairing, rel=1e-12)


@pytest.mark.parametrize("dim,res", [(1, 128), (2, 16)])
def test_operator_symmetry_and_conservation(dim, res):
    g = build_grid(dim, res)
    L = laplacian_matrix(g)
    A = np.diag(g.volumes) @ L.toarray()
    assert np.max(np.abs(A - A.T)) < 1e-10
    # zero-flux conservation: volume-weighted sum of L v vanishes
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.ncells)
    assert abs(np.dot(g.volumes, L @ v)) < 1e-12
    # constants are in the kernel
    c = np.ones(g.ncells)
    op_scale = np.max(np.abs(A)) / np.min(g.volumes)
    assert np.max(np.abs(2.0 * (L @ c))) < 1e-13 * op_scale


_REDUCTIONS_N64 = """
import numpy as np
from degenrd.grid import (ball_mask, ball_norm2, build_grid,
                          dirichlet_energy, integrate)
g = build_grid(2, 64)
u1 = np.random.default_rng(5).standard_normal(g.ncells)
u2 = np.cos(7.0 * g.centers[:, 0]) * np.sin(3.0 * g.centers[:, 1])
ball = ball_mask(g, 0.0, 0.5)
out = [integrate(g, u1 * u1), dirichlet_energy(g, u1),
       ball_norm2(g, u1, u2, ball)]
"""


def test_reductions_independent_of_blas_threads():
    """The n=64 disk has 16,129 cells, 32,256 faces and 14,337 cells in
    the ball, all past the length (10,000) where OpenBLAS splits a dot
    product over threads.  The sums must not depend on the thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(degenrd.__file__).parents[1]))
    script = _REDUCTIONS_N64 + "print(*(x.hex() for x in out))"
    single = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    scope = {}
    exec(_REDUCTIONS_N64, scope)
    assert [x.hex() for x in scope["out"]] == single


_GRID_ARRAYS = ("centers", "volumes", "face_i", "face_j", "face_trans",
                "face_area", "face_normal", "bface_cell",
                "bface_area", "bface_mid", "bface_normal")


@pytest.mark.parametrize("res", [8, 9, 32, 64])
def test_2d_grid_matches_face_by_face_build(res):
    g = build_grid(2, res)
    ref = _loop_grid_2d(res)
    for name in _GRID_ARRAYS:
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    for name, got, want in zip(("indptr", "indices", "data"),
                               g.laplacian, ref.laplacian):
        assert np.array_equal(got, want), name
    assert g.spacing == domain_radius(2) / res


@pytest.mark.parametrize("k", [1, 2, 5])
def test_1d_discrete_eigenpair_exact(k):
    g = build_grid(1, 128)
    dx = g.spacing
    xi = g.centers[:, 0] + 0.5            # map [-1/2,1/2] to [0,1]
    phi = np.cos(k * math.pi * xi)
    lam = (4.0 / dx ** 2) * math.sin(k * math.pi * dx / 2.0) ** 2
    resid = laplacian_matrix(g) @ phi + lam * phi
    assert np.max(np.abs(resid)) < 1e-9 * lam


def test_1d_first_eigenvalue_converges_to_pi_squared():
    errs = []
    for res in (64, 128):
        g = build_grid(1, res)
        errs.append(abs(neumann_eigenvalue_1(g) - math.pi ** 2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_2d_first_eigenvalue_disk_oracle():
    g = build_grid(2, 24)
    lam = neumann_eigenvalue_1(g)
    exact = 1.8411837813 ** 2 * math.pi   # (p'_11 / R)^2, R = pi^(-1/2)
    assert lam == pytest.approx(exact, rel=0.02)


@pytest.mark.parametrize("res,rel", [(256, 1e-12), (4096, 1e-9)])
def test_1d_first_eigenvalue_closed_form(res, rel):
    """lambda_1 = 4 n^2 sin^2(pi/2n), the k=1 pair above."""
    lam = neumann_eigenvalue_1(build_grid(1, res))
    exact = 4.0 * res ** 2 * math.sin(math.pi / (2 * res)) ** 2
    assert lam == pytest.approx(exact, rel=rel)


def test_2d_first_eigenvalue_disk_oracle_fine():
    """16,129 cells; the error is second order, 3.4e-5 here."""
    lam = neumann_eigenvalue_1(build_grid(2, 64))
    assert lam == pytest.approx(1.8411837813 ** 2 * math.pi, rel=1e-4)


def _generalized_problem(g):
    """A (face-transmissibility graph Laplacian) and V (volume diagonal)
    of A z = lam V z, assembled from the grid's sparse Laplacian."""
    V = sp.diags(g.volumes)
    A = V @ (-laplacian_matrix(g))
    return ((A + A.T) * 0.5).tocsc(), V.tocsc()


def _lanczos_lambda_1(g):
    """Shift-invert Lanczos about sigma = -1, where A - sigma V is
    definite: the two eigenvalues nearest it are 0 and lambda_1."""
    A, V = _generalized_problem(g)
    v0 = np.random.default_rng(0).standard_normal(g.ncells)
    w = scipy.sparse.linalg.eigsh(A, k=2, M=V, sigma=-1.0, v0=v0,
                                  return_eigenvectors=False)
    return float(np.max(w))


def _dense_spectrum(g):
    A, V = _generalized_problem(g)
    return scipy.linalg.eigh(A.toarray(), V.toarray(), eigvals_only=True)


@pytest.mark.parametrize("dim,res", [(1, 64), (1, 128), (1, 256),
                                     (2, 24), (2, 32), (2, 64)])
def test_first_eigenvalue_matches_lanczos(dim, res):
    g = build_grid(dim, res)
    assert neumann_eigenvalue_1(g) == pytest.approx(_lanczos_lambda_1(g),
                                                    rel=1e-12)


@pytest.mark.parametrize("res", [8, 9, 11, 16, 17])
def test_2d_first_eigenvalue_matches_dense_solve(res):
    """At n = 11 the shift by the mode's eigenvalue is singular in floats,
    so the shifted solve moves off it."""
    g = build_grid(2, res)
    assert neumann_eigenvalue_1(g) == pytest.approx(
        _dense_spectrum(g)[1], rel=1e-12)


@pytest.mark.parametrize("res", [8, 9])
def test_2d_angular_modes_give_the_whole_spectrum(res):
    """Mode 0, modes 1..ntheta/2-1 twice (cos and sin) and mode ntheta/2
    together carry every eigenvalue of the full grid, centre cell
    included."""
    g = build_grid(2, res)
    ntheta = 4 * res
    modes = [np.linalg.eigvalsh(_ring_mode(g, m)[0])
             for m in range(ntheta // 2 + 1)]
    got = np.sort(np.concatenate([modes[0], *modes[1:-1], *modes[1:-1],
                                  modes[-1]]))
    want = _dense_spectrum(g)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12 * want[-1]


def test_first_eigenvalue_bitwise_reproducible():
    lams = [neumann_eigenvalue_1(build_grid(2, 32))
            for _ in range(2)]
    assert lams[0] == lams[1]


def test_first_eigenvalue_independent_of_blas_threads():
    """The mode solves go through LAPACK; their bits must not depend on
    OpenBLAS's thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(degenrd.__file__).parents[1]))
    script = ("from degenrd.grid import build_grid, "
              "neumann_eigenvalue_1\n"
              "print(*(neumann_eigenvalue_1(build_grid(2, n)).hex() "
              "for n in (32, 64)))")
    single = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert [neumann_eigenvalue_1(build_grid(2, n)).hex()
            for n in (32, 64)] == single


def test_first_eigenvalue_failure_raises_runtime_error(monkeypatch):
    """A failed dense solve surfaces as RuntimeError (CLI exit code 2)."""
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(RuntimeError, match="eigenvalue solve failed"):
        neumann_eigenvalue_1(build_grid(2, 16))


def test_first_eigenvalue_bad_eigenpair_raises_runtime_error(monkeypatch):
    """An eigenvector that does not satisfy A z = lam V z on the full grid
    fails the residual check."""
    def corrupted(H, b):
        return np.linspace(1.0, 2.0, b.size)
    monkeypatch.setattr(np.linalg, "solve", corrupted)
    with pytest.raises(RuntimeError, match="residual check"):
        neumann_eigenvalue_1(build_grid(2, 16))


def _scatter_cell_gradient(grid, v):
    """The 2-D Green-Gauss gradient by three in-place scatters: the
    reference whose per-cell summation order `cell_gradient` keeps."""
    grad = np.zeros((grid.ncells, 2))
    vf = 0.5 * (v[grid.face_i] + v[grid.face_j])
    w = grid.face_area[:, None] * grid.face_normal * vf[:, None]
    np.add.at(grad, grid.face_i, w)
    np.add.at(grad, grid.face_j, -w)
    wb = (grid.bface_area[:, None] * grid.bface_normal
          * v[grid.bface_cell][:, None])
    np.add.at(grad, grid.bface_cell, wb)
    return grad / grid.volumes[:, None]


@pytest.mark.parametrize("n", [8, 9, 32, 64])
def test_cell_gradient_2d_bitwise_equals_scatters(n):
    g = build_grid(2, n)
    v = np.random.default_rng(n).standard_normal(g.ncells)
    grad = cell_gradient(g, v)
    assert grad.flags.c_contiguous
    assert np.array_equal(grad, _scatter_cell_gradient(g, v))


def test_cell_gradient_linear_exact_1d():
    g = build_grid(1, 64)
    v = 3.0 * g.centers[:, 0] + 1.0
    grad = cell_gradient(g, v)
    assert np.max(np.abs(grad[:, 0] - 3.0)) < 1e-10


def test_cell_gradient_second_order_1d():
    errs = []
    for res in (64, 128):
        g = build_grid(1, res)
        x = g.centers[:, 0]
        grad = cell_gradient(g, np.sin(2 * np.pi * x))[:, 0]
        errs.append(np.max(np.abs(grad - 2 * np.pi * np.cos(2 * np.pi * x))))
    assert errs[0] / errs[1] > 3.5


def test_ball_mask_1d():
    g = build_grid(1, 256)
    mask = ball_mask(g, 0.25, 0.1)
    x = g.centers[:, 0]
    assert np.array_equal(mask, np.abs(x - 0.25) <= 0.1 + 1e-12)
    assert mask.sum() > 0


def _special_rows(dim: int) -> np.ndarray:
    """Random rows, then rows of signed zeros, subnormals, infinities and
    NaN in every column."""
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf,
                        -np.inf, np.nan, 1.5, -3.0])
    combos = np.array(np.meshgrid(*[special] * dim)).reshape(dim, -1).T
    return np.vstack([rng.standard_normal((1000, dim)), combos])


@pytest.mark.parametrize("dim", [1, 2])
def test_rowdot_bitwise_equals_numpy_row_sums(dim):
    a = _special_rows(dim)
    b = a[::-1].copy()
    with np.errstate(invalid="ignore", over="ignore"):
        assert rowdot(a, b).tobytes() == np.sum(a * b, axis=-1).tobytes()
        assert rowdot(a, a).tobytes() == np.sum(a * a, axis=-1).tobytes()
        assert np.sqrt(rowdot(a, a)).tobytes() \
            == np.linalg.norm(a, axis=-1).tobytes()


def test_grid_summary_serializable(grid256):
    import json
    s = grid256.summary()
    json.dumps(s)
    assert s["dim"] == 1 and s["ncells"] == 256


@pytest.mark.parametrize(
    "dim,res", [(1, n) for n in [*range(8, 70), 256, 4096]]
    + [(2, n) for n in [*range(8, 70), 96, 128]])
def test_laplacian_arrays_equal_scipy_assembly(dim, res, scipy_laplacian):
    """The numpy CSR arrays are scipy's canonical CSR arrays of the same
    matrix, int32 indices included: the diagonal sums its faces in face
    order, and each entry is (1/V)[row] * transmissibility."""
    g = build_grid(dim, res)
    ref = scipy_laplacian(g).sorted_indices()
    for name, got in zip(("indptr", "indices", "data"), g.laplacian):
        want = getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_laplacian_assembled_on_first_access():
    """`build_grid` leaves the Laplacian's CSR arrays for the commands
    that step; they are built once, then cached."""
    g = build_grid(2, 16)
    assert "laplacian" not in vars(g)
    assert g.laplacian is g.laplacian
    assert "laplacian" in vars(g)
