"""Shared fixtures: the reference degenerate run and its constant ledger,
and the scipy assembly of the grid Laplacian."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from degenrd.constants import build_ledger
from degenrd.grid import build_grid
from degenrd.solver import CatalystSpec, InitialSpec, SimConfig, run
from degenrd.weights import WeightParams


def _scipy_laplacian(grid):
    """The Laplacian as scipy.sparse assembled it before `Grid.laplacian`
    moved to numpy: a CSR matrix whose row indices are not sorted."""
    i, j, t = grid.face_i, grid.face_j, grid.face_trans
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([t, t, -t, -t])
    A = sp.csr_matrix((vals, (rows, cols)), shape=(grid.ncells, grid.ncells))
    return (sp.diags(1.0 / grid.volumes) @ A).tocsr()


@pytest.fixture(scope="session")
def scipy_laplacian():
    """The reference assembly of `Grid.laplacian`, kept in the tests."""
    return _scipy_laplacian


@pytest.fixture(scope="session")
def grid256():
    return build_grid(1, 256)


@pytest.fixture(scope="session")
def ref_config():
    return SimConfig(
        dim=1, resolution=256, d1=1.0, d2=1.0,
        catalyst=CatalystSpec(kind="bump", k0=1.0, x0=0.25, r=0.1),
        initial=InitialSpec(kind="cosine", amplitude=0.3),
        t_end=10.0, record_stride=0.05, field_stride=0.25)


@pytest.fixture(scope="session")
def ref_run(ref_config):
    return run(ref_config)


@pytest.fixture(scope="session")
def ref_params():
    return WeightParams(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=10.0, dim=1)


@pytest.fixture(scope="session")
def ref_ledger(ref_run, ref_params):
    return build_ledger(ref_run.grid, ref_params, ref_run.config,
                        ref_run.snapshots[0])
