"""Shared fixtures: the reference degenerate run and its constant ledger."""

from __future__ import annotations

import pytest

from degenrd.constants import build_ledger
from degenrd.grid import build_grid
from degenrd.solver import CatalystSpec, InitialSpec, SimConfig, run
from degenrd.weights import WeightParams


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
    a0, b0 = ref_run.snapshots[0]
    return build_ledger(ref_run.grid, ref_params, a0, b0, ref_run.B0,
                        k0=1.0, k_sup=1.0, d1=1.0, d2=1.0)
