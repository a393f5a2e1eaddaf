"""Unit-measure ball domains, finite-volume grids, and discrete Neumann operators.

The computational domain is the ball of measure one: an interval of length 1
in 1-D, a disk of area 1 in 2-D.  All spatial operators are cell-centered
finite volume with zero-flux (homogeneous Neumann) boundary faces, so that
the discrete divergence theorem holds exactly: the volume-weighted sum of a
discrete Laplacian is zero to rounding error, and the operator is symmetric
in the volume-weighted inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg


def domain_radius(dim: int) -> float:
    """Radius of the ball of unit measure in dimension `dim`."""
    if dim == 1:
        return 0.5
    if dim == 2:
        return math.pi ** -0.5
    if dim == 3:
        return (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    raise ValueError(f"unsupported dimension: {dim}")


@dataclass(frozen=True)
class Domain:
    """Ball of unit measure in dimension 1, 2 or 3."""

    dim: int
    radius: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "radius", domain_radius(self.dim))


class Grid:
    """Cell-centered finite-volume grid on a unit-measure ball.

    Attributes
    ----------
    centers : (ncells, dim) cell centroids (all strictly inside the domain)
    volumes : (ncells,) cell measures, summing to 1
    spacing : characteristic mesh width
    face_i, face_j : interior face neighbor indices
    face_trans : face transmissibility area/distance (unit diffusivity)
    face_area, face_normal, face_mid : interior face geometry
    bface_cell, bface_area, bface_mid, bface_normal : boundary face geometry
    laplacian : sparse unit-diffusivity Neumann Laplacian (rows scaled 1/V)
    """

    def __init__(self, domain, resolution, centers, volumes, spacing,
                 faces, bfaces):
        self.domain = domain
        self.resolution = int(resolution)
        self.centers = np.ascontiguousarray(centers, dtype=float)
        self.volumes = np.ascontiguousarray(volumes, dtype=float)
        self.spacing = float(spacing)
        (self.face_i, self.face_j, self.face_trans,
         self.face_area, self.face_normal, self.face_mid) = faces
        (self.bface_cell, self.bface_area,
         self.bface_mid, self.bface_normal) = bfaces
        self.ncells = self.centers.shape[0]
        self.laplacian = self._assemble_laplacian()

    def _assemble_laplacian(self):
        i, j, t = self.face_i, self.face_j, self.face_trans
        rows = np.concatenate([i, j, i, j])
        cols = np.concatenate([j, i, i, j])
        vals = np.concatenate([t, t, -t, -t])
        A = sp.csr_matrix((vals, (rows, cols)),
                          shape=(self.ncells, self.ncells))
        inv_v = sp.diags(1.0 / self.volumes)
        return (inv_v @ A).tocsr()

    def summary(self) -> dict:
        """JSON-serializable grid metadata."""
        return {
            "dim": self.domain.dim,
            "radius": self.domain.radius,
            "resolution": self.resolution,
            "spacing": self.spacing,
            "ncells": self.ncells,
        }


class Field:
    """Per-cell real values bound to a grid; values must stay finite."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.ncells,):
            raise ValueError(
                f"field shape {values.shape} does not match grid "
                f"with {grid.ncells} cells")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        self.grid = grid
        self.values = values

    @classmethod
    def from_function(cls, grid: Grid, fn):
        """Sample a callable of the cell-center coordinates."""
        return cls(grid, np.asarray([fn(x) for x in grid.centers], float))


def _require_same_grid(grid: Grid, field: Field):
    if field.grid is not grid:
        raise ValueError("field belongs to a different grid")


def _build_grid_1d(domain: Domain, resolution: int) -> Grid:
    n = resolution
    dx = 1.0 / n
    centers = (-0.5 + dx * (np.arange(n) + 0.5)).reshape(n, 1)
    volumes = np.full(n, dx)
    i = np.arange(n - 1)
    faces = (
        i, i + 1,
        np.full(n - 1, 1.0 / dx),          # trans = area/dist = 1/dx
        np.ones(n - 1),                    # face area
        np.ones((n - 1, 1)),               # normal i -> j (+x)
        (-0.5 + dx * (i + 1.0)).reshape(n - 1, 1),
    )
    bfaces = (
        np.array([0, n - 1]),
        np.ones(2),
        np.array([[-0.5], [0.5]]),
        np.array([[-1.0], [1.0]]),
    )
    return Grid(domain, resolution, centers, volumes, dx, faces, bfaces)


def _build_grid_2d(domain: Domain, resolution: int) -> Grid:
    """Structured polar grid; the center cell is a full small disk."""
    R = domain.radius
    nr = resolution
    ntheta = 4 * resolution
    dr = R / nr
    dth = 2.0 * math.pi / ntheta

    redges = dr * np.arange(nr + 1)
    # cell indexing: 0 = center disk; ring k (1..nr-1) holds ntheta cells
    # starting at 1 + (k-1)*ntheta
    ncells = 1 + (nr - 1) * ntheta
    centers = np.zeros((ncells, 2))
    volumes = np.zeros(ncells)
    volumes[0] = math.pi * redges[1] ** 2
    th_mid = dth * (np.arange(ntheta) + 0.5)
    cos_m, sin_m = np.cos(th_mid), np.sin(th_mid)
    rmid = np.zeros(nr + 1)            # representative radius per ring
    for k in range(1, nr):
        r0, r1 = redges[k], redges[k + 1]
        rmid[k] = 0.5 * (r0 + r1)
        sl = slice(1 + (k - 1) * ntheta, 1 + k * ntheta)
        centers[sl, 0] = rmid[k] * cos_m
        centers[sl, 1] = rmid[k] * sin_m
        volumes[sl] = 0.5 * (r1 ** 2 - r0 ** 2) * dth

    fi, fj, ftr, far, fno, fmd = [], [], [], [], [], []

    def add_face(ci, cj, area, dist, mid, normal):
        fi.append(ci)
        fj.append(cj)
        far.append(area)
        ftr.append(area / dist)
        fmd.append(mid)
        fno.append(normal)

    # center disk <-> first ring
    for j in range(ntheta):
        nvec = (cos_m[j], sin_m[j])
        add_face(0, 1 + j, redges[1] * dth, rmid[1],
                 (redges[1] * cos_m[j], redges[1] * sin_m[j]), nvec)
    # radial faces between ring k and ring k+1
    for k in range(1, nr - 1):
        base, nxt = 1 + (k - 1) * ntheta, 1 + k * ntheta
        re = redges[k + 1]
        dist = rmid[k + 1] - rmid[k]
        for j in range(ntheta):
            add_face(base + j, nxt + j, re * dth, dist,
                     (re * cos_m[j], re * sin_m[j]), (cos_m[j], sin_m[j]))
    # angular faces within each ring
    th_edge = dth * np.arange(ntheta)
    for k in range(1, nr):
        base = 1 + (k - 1) * ntheta
        dist = rmid[k] * dth
        for j in range(ntheta):
            jn = (j + 1) % ntheta
            te = th_edge[jn]
            # normal at the shared edge points in +theta direction of cell j
            add_face(base + j, base + jn, dr, dist,
                     (rmid[k] * math.cos(te), rmid[k] * math.sin(te)),
                     (-math.sin(te), math.cos(te)))

    bcell = np.arange(1 + (nr - 2) * ntheta, ncells)
    bfaces = (
        bcell,
        np.full(ntheta, R * dth),
        np.column_stack([R * cos_m, R * sin_m]),
        np.column_stack([cos_m, sin_m]),
    )
    faces = (np.asarray(fi), np.asarray(fj), np.asarray(ftr),
             np.asarray(far), np.asarray(fno, float), np.asarray(fmd, float))
    return Grid(domain, resolution, centers, volumes, dr, faces, bfaces)


def build_grid(domain: Domain, resolution: int) -> Grid:
    """Build the finite-volume grid; 1-D interval or 2-D polar disk."""
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    if domain.dim == 1:
        return _build_grid_1d(domain, resolution)
    if domain.dim == 2:
        return _build_grid_2d(domain, resolution)
    raise ValueError(
        "unsupported dimension: 3-D PDE grids are not provided "
        "(weight evaluation in 3-D is pointwise and needs no grid)")


def integrate(grid: Grid, field: Field | np.ndarray) -> float:
    """Volume-weighted midpoint quadrature of a cell field."""
    v = field.values if isinstance(field, Field) else np.asarray(field, float)
    if isinstance(field, Field):
        _require_same_grid(grid, field)
    return float(np.dot(grid.volumes, v))


def neumann_laplacian(grid: Grid, field: Field, diffusivity: float) -> Field:
    """Apply the zero-flux finite-volume Laplacian scaled by `diffusivity`."""
    if diffusivity <= 0:
        raise ValueError("diffusivity must be positive")
    _require_same_grid(grid, field)
    return Field(grid, diffusivity * (grid.laplacian @ field.values))


def dirichlet_energy(grid: Grid, values: np.ndarray) -> float:
    """Discrete grad-squared integral: sum over faces of trans*(jump)^2.

    Equals the volume-weighted inner product <-laplacian(v), v> exactly
    (summation by parts with zero boundary flux).
    """
    d = values[grid.face_j] - values[grid.face_i]
    return float(np.dot(grid.face_trans, d * d))


def cell_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Second-order cell-centered gradient, shape (ncells, dim).

    1-D: central differences with one-sided quadratic stencils at the two
    boundary cells.  2-D: Green-Gauss reconstruction with arithmetic face
    averages (boundary faces use the cell value).
    """
    v = np.asarray(values, float)
    if grid.domain.dim == 1:
        n = grid.ncells
        dx = grid.spacing
        g = np.empty(n)
        g[1:-1] = (v[2:] - v[:-2]) / (2 * dx)
        g[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dx)
        g[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dx)
        return g.reshape(n, 1)
    grad = np.zeros((grid.ncells, 2))
    vf = 0.5 * (v[grid.face_i] + v[grid.face_j])
    w = grid.face_area[:, None] * grid.face_normal * vf[:, None]
    np.add.at(grad, grid.face_i, w)
    np.add.at(grad, grid.face_j, -w)
    wb = (grid.bface_area[:, None] * grid.bface_normal
          * v[grid.bface_cell][:, None])
    np.add.at(grad, grid.bface_cell, wb)
    return grad / grid.volumes[:, None]


def neumann_eigenvalue_1(grid: Grid) -> float:
    """Smallest nonzero eigenvalue of the unit-diffusivity Neumann Laplacian.

    Solves the generalized symmetric problem A z = lam * V z, where A is the
    (positive semidefinite) face-transmissibility graph Laplacian and V the
    volume diagonal, by shift-invert Lanczos about sigma = -1, where
    A - sigma*V is definite: the two eigenvalues nearest it are 0
    (constants) and lam.  The start vector is fixed, so the result is
    bitwise reproducible.  Raises RuntimeError when the returned pair does
    not satisfy the equation.
    """
    A = sp.diags(grid.volumes) @ (-grid.laplacian)
    A = ((A + A.T) * 0.5).tocsc()
    V = grid.volumes
    v0 = np.random.default_rng(0).standard_normal(grid.ncells)
    try:
        w, z = scipy.sparse.linalg.eigsh(A, k=2, M=sp.diags(V).tocsc(),
                                         sigma=-1.0, v0=v0)
    except scipy.sparse.linalg.ArpackError as exc:
        raise RuntimeError(f"eigenvalue iteration failed: {exc}") from exc
    i = int(np.argmax(w))
    lam = float(w[i])
    res = float(np.linalg.norm(A @ z[:, i] - lam * V * z[:, i]))
    if not np.isfinite(lam) or lam <= 0 or res > 1e-6 * max(1.0, abs(lam)):
        raise RuntimeError(
            f"eigenvalue iteration did not converge: lam={lam}, "
            f"residual={res:.3e}")
    return lam


def ball_mask(grid: Grid, x0_axis: float, r: float) -> np.ndarray:
    """Cells whose center lies in the ball of radius r about (x0, 0, ...)."""
    x0 = np.zeros(grid.domain.dim)
    x0[0] = x0_axis
    return np.linalg.norm(grid.centers - x0, axis=1) <= r
