"""Two-species reaction-diffusion simulator with a quantitative-decay
verification harness.

Layers, bottom up:

  grid         finite-volume grids on the unit-measure ball, discrete
               calculus (integration, Laplacian, Dirichlet energy).
  weights      the space-time exponential weight family, its closed-form
               derivatives, and the sampled geometry constants.
  solver       IMEX time integration of the two-species system.
  diagnostics  trace containers, decay-rate fits, conservation audits.
  constants    the explicit constant ledger, down to the certified
               contraction factor and decay rate.
  logconv      tilted quadratic forms, the frequency function, the
               three-time interpolation checker, the window's tilted norms.
  verify       run-level audit: every check against the ledger, the
               observation estimate and the interpolation window among them.
  config/cli   JSON configuration and the `degenrd` command.
"""

from .grid import Grid, build_grid, integrate, dirichlet_energy, domain_radius
from .weights import WeightParams, weight_fields, geometry_constants
from .solver import CatalystSpec, InitialSpec, SimConfig, run
from .diagnostics import TraceSeries, fit_decay_rate, TOLERANCES
from .constants import ConstantLedger, build_ledger
from .logconv import (TiltedState, tilt, sym_form, antisym_form, interp_check,
                      InterpInput, frequency_trace)
from .verify import audit, observation_estimate_check
from .config import RunConfig, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "Grid", "build_grid", "integrate", "dirichlet_energy", "domain_radius",
    "WeightParams", "weight_fields", "geometry_constants",
    "CatalystSpec", "InitialSpec", "SimConfig", "run",
    "TraceSeries", "fit_decay_rate", "audit", "TOLERANCES",
    "ConstantLedger", "build_ledger",
    "TiltedState", "tilt", "sym_form", "antisym_form", "frequency_trace",
    "InterpInput", "interp_check", "observation_estimate_check",
    "RunConfig", "load_config", "parse_config",
    "__version__",
]
