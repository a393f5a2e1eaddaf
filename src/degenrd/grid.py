"""Finite-volume grids on the unit-measure ball; discrete Neumann operators.

The computational domain is the ball of measure one: an interval of length 1
in 1-D, a disk of area 1 in 2-D.  All spatial operators are cell-centered
finite volume with zero-flux (homogeneous Neumann) boundary faces, so that
the discrete divergence theorem holds exactly: the volume-weighted sum of a
discrete Laplacian is zero to rounding error, and the operator is symmetric
in the volume-weighted inner product.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


def domain_radius(dim: int) -> float:
    """Radius of the ball of unit measure in dimension `dim`."""
    if dim == 1:
        return 0.5
    if dim == 2:
        return math.pi ** -0.5
    raise ValueError(f"unsupported dimension: {dim}")


def grid_spacing(dim: int, resolution: int) -> float:
    """Mesh width of `build_grid`'s grid: dx = 1/n on the interval, the
    ring width dr = R/n on the disk."""
    return (1.0 if dim == 1 else domain_radius(dim)) / resolution


class Grid:
    """Cell-centered finite-volume grid on a unit-measure ball.

    Attributes
    ----------
    dim, radius : dimension (1 or 2) and radius of the ball
    centers : (ncells, dim) cell centroids (all strictly inside the domain)
    volumes : (ncells,) cell measures, summing to 1
    spacing : characteristic mesh width, `grid_spacing(dim, resolution)`
    face_i, face_j : interior face neighbor indices
    face_trans : face transmissibility area/distance (unit diffusivity)
    face_area, face_normal : interior face geometry
    bface_cell, bface_area, bface_mid, bface_normal : boundary face geometry
    laplacian : unit-diffusivity Neumann Laplacian (rows scaled 1/V) as
        canonical CSR arrays (indptr, indices, data): int32 indices sorted
        within each row, no duplicates.  Assembled on first access for
        the commands that step; the eigenvalue and the integrals use the
        face arrays
    """

    def __init__(self, dim, resolution, centers, volumes, faces, bfaces):
        self.dim = dim
        self.radius = domain_radius(dim)
        self.resolution = int(resolution)
        self.spacing = grid_spacing(dim, self.resolution)
        self.centers = np.ascontiguousarray(centers, dtype=float)
        self.volumes = np.ascontiguousarray(volumes, dtype=float)
        (self.face_i, self.face_j, self.face_trans,
         self.face_area, self.face_normal) = faces
        (self.bface_cell, self.bface_area,
         self.bface_mid, self.bface_normal) = bfaces
        self.ncells = self.centers.shape[0]

    @cached_property
    def laplacian(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        i, j, t = self.face_i, self.face_j, self.face_trans
        n = self.ncells
        rows = np.concatenate([i, j, np.arange(n)])
        cols = np.concatenate([j, i, np.arange(n)])
        # each diagonal entry sums -t over its faces from 0, first where
        # the cell is face_i, then where it is face_j, each in face order:
        # the order in which scipy sums the duplicate COO triplets
        # (i, i, -t), (j, j, -t) (the tests compare with that assembly)
        diag = -np.bincount(np.concatenate([i, j]), np.concatenate([t, t]), n)
        order = np.argsort(rows * n + cols, kind="stable")
        indptr = np.zeros(n + 1, np.intc)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        data = (1.0 / self.volumes)[rows[order]] \
            * np.concatenate([t, t, diag])[order]
        return indptr, cols[order].astype(np.intc), data

    def summary(self) -> dict:
        """JSON-serializable grid metadata."""
        return {
            "dim": self.dim,
            "radius": self.radius,
            "resolution": self.resolution,
            "spacing": self.spacing,
            "ncells": self.ncells,
        }


def _build_grid_1d(resolution: int) -> Grid:
    n = resolution
    dx = grid_spacing(1, n)
    centers = (-0.5 + dx * (np.arange(n) + 0.5)).reshape(n, 1)
    volumes = np.full(n, dx)
    i = np.arange(n - 1)
    faces = (
        i, i + 1,
        np.full(n - 1, 1.0 / dx),          # trans = area/dist = 1/dx
        np.ones(n - 1),                    # face area
        np.ones((n - 1, 1)),               # normal i -> j (+x)
    )
    bfaces = (
        np.array([0, n - 1]),
        np.ones(2),
        np.array([[-0.5], [0.5]]),
        np.array([[-1.0], [1.0]]),
    )
    return Grid(1, resolution, centers, volumes, faces, bfaces)


def _build_grid_2d(resolution: int) -> Grid:
    """Structured polar grid; the center cell is a full small disk."""
    R = domain_radius(2)
    nr = resolution
    ntheta = 4 * resolution
    dr = grid_spacing(2, nr)
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
    rmid[1:nr] = 0.5 * (redges[1:nr] + redges[2:])
    rm = rmid[1:nr, None]              # ring k = 1..nr-1 in row k-1
    centers[1:] = np.column_stack([(rm * cos_m).ravel(), (rm * sin_m).ravel()])
    volumes[1:] = np.repeat(0.5 * (redges[2:] ** 2 - redges[1:nr] ** 2) * dth,
                            ntheta)

    # faces in order: center disk <-> first ring, radial faces between
    # ring k and k+1 (k = 1..nr-2), then angular faces within each ring
    # k = 1..nr-1; within each group j runs over the ntheta angles
    ring = 1 + ntheta * np.arange(nr - 1)[:, None] + np.arange(ntheta)
    jn = (np.arange(ntheta) + 1) % ntheta
    te = dth * np.arange(ntheta)[jn]   # shared edge angle, +theta of cell j
    cos_e = np.array([math.cos(x) for x in te])
    sin_e = np.array([math.sin(x) for x in te])
    rad_area = np.repeat(redges[1:nr] * dth, ntheta)
    rad_dist = np.repeat(np.r_[rmid[1], rmid[2:nr] - rmid[1:nr - 1]], ntheta)
    ang_dist = np.repeat(rmid[1:nr] * dth, ntheta)
    fi = np.r_[np.zeros(ntheta, int), ring[:-1].ravel(), ring.ravel()]
    fj = np.r_[ring[0], ring[1:].ravel(), ring[:, jn].ravel()]
    far = np.r_[rad_area, np.full((nr - 1) * ntheta, dr)]
    ftr = np.r_[rad_area / rad_dist, dr / ang_dist]
    fno = np.r_[np.tile(np.column_stack([cos_m, sin_m]), (nr - 1, 1)),
                np.tile(np.column_stack([-sin_e, cos_e]), (nr - 1, 1))]

    bcell = np.arange(1 + (nr - 2) * ntheta, ncells)
    bfaces = (
        bcell,
        np.full(ntheta, R * dth),
        np.column_stack([R * cos_m, R * sin_m]),
        np.column_stack([cos_m, sin_m]),
    )
    faces = (fi, fj, ftr, far, fno)
    return Grid(2, resolution, centers, volumes, faces, bfaces)


def build_grid(dim: int, resolution: int) -> Grid:
    """Build the finite-volume grid on the unit-measure ball: the interval
    for dim 1, the polar disk for dim 2.  Raises ValueError for another dim
    or a resolution below 8."""
    domain_radius(dim)                   # raises on an unsupported dim
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    return (_build_grid_1d if dim == 1 else _build_grid_2d)(resolution)


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two (m, dim) arrays, shape (m,).

    Adds the column products to +0.0 in column order, the order in which
    `np.sum(a * b, axis=-1)` adds a row, so the bits are equal, -0.0 and
    NaN rows included (`np.sqrt(rowdot(d, d))` is `np.linalg.norm(d,
    axis=-1)`).  numpy's reduction over a short last axis walks each row
    in a scalar loop; the columns take some 8x less time at 40,000 points.
    """
    out = a[:, 0] * b[:, 0]
    out += 0.0                     # as numpy's sum: -0.0 becomes +0.0
    for i in range(1, a.shape[1]):
        out += a[:, i] * b[:, i]
    return out


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Volume-weighted midpoint quadrature of a cell field.

    Every cell and face sum in this module is numpy's pairwise sum, not a
    BLAS dot product, so it does not depend on or wake BLAS threads.
    """
    return float((grid.volumes * values).sum())


def dirichlet_energy(grid: Grid, values: np.ndarray) -> float:
    """Discrete grad-squared integral: sum over faces of trans*(jump)^2.

    Equals the volume-weighted inner product <-laplacian(v), v> exactly
    (summation by parts with zero boundary flux).
    """
    d = values[grid.face_j] - values[grid.face_i]
    return float((grid.face_trans * (d * d)).sum())


def cell_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Second-order cell-centered gradient, shape (ncells, dim).

    1-D: central differences with one-sided quadratic stencils at the two
    boundary cells.  2-D: Green-Gauss reconstruction with arithmetic face
    averages (boundary faces use the cell value).
    """
    v = np.asarray(values, float)
    if grid.dim == 1:
        n = grid.ncells
        dx = grid.spacing
        g = np.empty(n)
        g[1:-1] = (v[2:] - v[:-2]) / (2 * dx)
        g[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dx)
        g[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dx)
        return g.reshape(n, 1)
    vf = 0.5 * (v[grid.face_i] + v[grid.face_j])
    w = grid.face_area[:, None] * grid.face_normal * vf[:, None]
    wb = (grid.bface_area[:, None] * grid.bface_normal
          * v[grid.bface_cell][:, None])
    # bincount adds in index order: each cell sums its faces in the order
    # face_i, face_j, boundary, as three in-place scatters would
    idx = np.concatenate([grid.face_i, grid.face_j, grid.bface_cell])
    flux = np.concatenate([w, -w, wb])
    grad = np.column_stack([np.bincount(idx, flux[:, c], grid.ncells)
                            for c in range(2)])
    return grad / grid.volumes[:, None]


def _ring_mode(grid: Grid, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Angular Fourier mode m of the polar grid's problem A z = lam V z.

    Every ring holds ntheta cells of equal volume with equal radial and
    angular transmissibilities, so the pattern cos(m*theta) reduces the
    problem to a symmetric tridiagonal pencil (K_m, M_m) in r.  The centre
    cell couples to all first-ring cells alike: it is the first unknown of
    mode 0 (whose ring rows are weighted by ntheta), and for m >= 1 its
    amplitude is 0 and ring k's diagonal gains s_k * (2 - 2cos(2 pi m /
    ntheta)) = 4 s_k sin^2(pi m / ntheta).  The transmissibilities and
    volumes are read from the grid's arrays in `_build_grid_2d`'s face
    order.  Returns H = M_m^(-1/2) K_m M_m^(-1/2), dense, and
    w = diag(M_m^(-1/2)): an eigenvector y of H has radial amplitudes w*y.
    """
    nr, ntheta = grid.resolution, 4 * grid.resolution
    nrad = (nr - 1) * ntheta
    t = np.r_[grid.face_trans[:nrad:ntheta], 0.0]   # ring k | k+1, k = 0..
    s = grid.face_trans[nrad::ntheta]               # within ring k = 1..
    vol = grid.volumes[1::ntheta]                   # ring k = 1..
    diag = t + np.r_[0.0, t[:-1]]                   # centre, ring 1, ...
    if m == 0:
        diag, off = ntheta * diag, -ntheta * t[:-1]
        mass = np.r_[grid.volumes[0], ntheta * vol]
    else:
        diag = diag[1:] + 4.0 * math.sin(math.pi * m / ntheta) ** 2 * s
        off, mass = -t[1:-1], vol
    w = 1.0 / np.sqrt(mass)
    H = np.diag(diag * w * w)
    k = np.arange(off.size)
    H[k, k + 1] = H[k + 1, k] = off * w[:-1] * w[1:]
    return H, w


def neumann_eigenvalue_1(grid: Grid) -> float:
    """Smallest nonzero eigenvalue of the unit-diffusivity Neumann Laplacian.

    Solves A z = lam * V z, where A is the (positive semidefinite)
    face-transmissibility graph Laplacian and V the volume diagonal,
    through the grid's Fourier modes, with numpy alone.  1-D: the cosine
    modes diagonalize it, lam = (4/dx^2) sin^2(pi dx/2), z = cos(pi(x+1/2)).
    2-D: lam is the smaller of mode 0's second eigenvalue (its first is 0)
    and mode 1's first (`_ring_mode`; eigenvalues rise with m up to
    ntheta/2).  The mode's eigenvector comes from one solve shifted by its
    eigenvalue (moved off it by 1e-12 relative where that is singular in
    floats, as at n = 11), and lam is its Rayleigh quotient on the full
    grid, exact to rounding where the dense eigenvalue is off by
    eps * lam_max / lam (2e-12 at n=128).  `eigh` is not used: its
    eigenvector path took 16-48 ms at n = 32-64 under OpenBLAS's default
    threading (2-core host).
    Raises RuntimeError when a solve fails or the eigenpair fails its
    residual check on the full grid, with A applied face by face.
    """
    V = grid.volumes
    if grid.dim == 1:
        dx = grid.spacing
        lam = (4.0 / dx ** 2) * math.sin(math.pi * dx / 2.0) ** 2
        z = np.cos(math.pi * (grid.centers[:, 0] + 0.5))
        z = z / math.sqrt(integrate(grid, z * z))
    else:
        ntheta = 4 * grid.resolution
        modes = [_ring_mode(grid, 0), _ring_mode(grid, 1)]
        try:
            w0, w1 = (np.linalg.eigvalsh(H) for H, _ in modes)
            m, mu = (0, w0[1]) if w0[1] <= w1[0] else (1, w1[0])
            H, w = modes[m]
            shifted, one = H - mu * np.eye(w.size), np.ones(w.size)
            try:
                y = w * np.linalg.solve(shifted, one)
            except np.linalg.LinAlgError:   # mu is exact to the last bit
                y = w * np.linalg.solve(shifted - 1e-12 * mu * np.eye(w.size),
                                        one)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigenvalue solve failed: {exc}") from exc
        if m == 0:
            z = np.r_[y[0], np.repeat(y[1:], ntheta)]
        else:
            theta = (2.0 * math.pi / ntheta) * (np.arange(ntheta) + 0.5)
            z = np.r_[0.0, np.outer(y, np.cos(theta)).ravel()]
        z = z / math.sqrt(integrate(grid, z * z))
        lam = dirichlet_energy(grid, z)
    flux = grid.face_trans * (z[grid.face_i] - z[grid.face_j])
    r = (np.bincount(grid.face_i, flux, grid.ncells)
         - np.bincount(grid.face_j, flux, grid.ncells) - lam * V * z)
    res = math.sqrt(float((r * r).sum()))
    if not np.isfinite(lam) or lam <= 0 or res > 1e-6 * max(1.0, abs(lam)):
        raise RuntimeError(
            f"eigenpair fails its residual check: lam={lam}, "
            f"residual={res:.3e}")
    return lam


def ball_mask(grid: Grid, x0_axis: float, r: float) -> np.ndarray:
    """Cells whose center lies in the ball of radius r about (x0, 0, ...)."""
    x0 = np.zeros(grid.dim)
    x0[0] = x0_axis
    d = grid.centers - x0
    return np.sqrt(rowdot(d, d)) <= r


def ball_norm2(grid: Grid, u1: np.ndarray, u2: np.ndarray,
               ball: np.ndarray) -> float:
    """Squared norm of the pair (u1, u2) over the cells of `ball`."""
    return float((grid.volumes[ball] * (u1 * u1 + u2 * u2)[ball]).sum())
