"""IMEX time integration of the two-species reversible reaction system.

The PDE pair

    da/dt - d1*lap(a) =  k(x,t) * (b^2 - a^2)
    db/dt - d2*lap(b) = -k(x,t) * (b^2 - a^2)

is advanced with Crank-Nicolson diffusion (implicit, second order) and an
explicit midpoint-predictor reaction.  The reaction increments applied to a
and b are exactly opposite, and the CN solves preserve the volume-weighted
total of each species, so the total mass of a+b is conserved to rounding
error.  Positivity is monitored, never enforced: a negative concentration
aborts the run with advice to reduce dt, since silently clipping would
invalidate the identities the verification harness checks.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
import warnings

import numpy as np

from .grid import Grid, build_grid, integrate, dirichlet_energy, \
    ball_mask, ball_norm2, rowdot
from .diagnostics import TraceSeries, nearest_index

_CATALYST_KINDS = ("constant", "bump", "annular-zero", "time-modulated-bump")
_INITIAL_KINDS = ("constant", "cosine", "gaussian")


class ConfigError(ValueError):
    """A configuration that cannot run, rejected at parse time or before
    the first step (usage error, exit 1)."""


def smoothstep(z: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 1 for z<=0, 0 for z>=1, C^2 in between."""
    z = np.clip(z, 0.0, 1.0)
    return 1.0 - z ** 3 * (10.0 - 15.0 * z + 6.0 * z * z)


@dataclass(frozen=True)
class CatalystSpec:
    """Reaction-coefficient field k(x, t).

    kinds:
      constant             k = k0 everywhere.
      bump                 k = k0 on the ball B(x0, r), smoothly cut to 0
                           over a transition layer of width `smoothness`.
      annular-zero         k = k_max except on the annulus
                           (annulus_inner, annulus_outer) about the origin
                           where it dips smoothly to 0; the annulus must
                           not meet B(x0, r).
      time-modulated-bump  bump profile times 1 + (k_max/k0 - 1) *
                           sin^2(2*pi*t/period).
    """

    kind: str
    k0: float
    k_max: float | None = None
    x0: float = 0.25
    r: float = 0.1
    smoothness: float | None = None
    annulus_inner: float | None = None
    annulus_outer: float | None = None
    period: float = 1.0

    def __post_init__(self):
        if self.kind not in _CATALYST_KINDS:
            raise ValueError(f"catalyst.kind must be one of "
                             f"{_CATALYST_KINDS}; got {self.kind!r}")
        if self.k0 < 0 or (self.kind != "constant" and not self.k0 > 0):
            # k0 = 0 is allowed only for the constant kind (pure-diffusion
            # oracle runs); localized kinds need a positive floor.
            raise ValueError("catalyst.k0 must be positive (floor on the "
                             "ball)")
        if not self.r > 0:
            raise ValueError(f"catalyst.r must be positive; got {self.r!r}")
        if self.smoothness is not None and not self.smoothness > 0:
            raise ValueError(f"catalyst.smoothness must be positive or "
                             f"null; got {self.smoothness!r}")
        kmax = self.k_max if self.k_max is not None else self.k0
        object.__setattr__(self, "k_max", float(kmax))
        if self.k_max < self.k0:
            raise ValueError("catalyst.k_max must dominate catalyst.k0")
        if self.kind == "annular-zero":
            ri, ro = self.annulus_inner, self.annulus_outer
            if ri is None or ro is None or not 0 < ri < ro:
                raise ValueError("annular-zero needs 0 < "
                                 "catalyst.annulus_inner < "
                                 "catalyst.annulus_outer")
        if self.kind == "time-modulated-bump" and not self.period > 0:
            raise ValueError("catalyst.period must be positive")

    def _width(self, spacing: float) -> float:
        return self.smoothness if self.smoothness is not None \
            else 2.0 * spacing

    def check_annulus(self, spacing: float) -> None:
        """Reject an annular-zero annulus that, with its transition layer
        on a grid of this spacing, meets the observation ball."""
        w = self._width(spacing)
        ri, ro = self.annulus_inner, self.annulus_outer
        if self.kind == "annular-zero" and ri - w < self.x0 + self.r \
                and ro + w > max(self.x0 - self.r, 0):
            raise ValueError("catalyst.annulus_inner/annulus_outer: the "
                             "annulus (with its transition layer) must not "
                             "meet the observation ball")

    def profile(self, grid: Grid) -> np.ndarray:
        """Sample k at the cell centers, less time-modulated-bump's factor."""
        if self.kind == "constant":
            return np.full(grid.ncells, self.k0)
        w = self._width(grid.spacing)
        x0 = np.zeros(grid.dim)
        x0[0] = self.x0
        d = grid.centers - x0
        dist = np.sqrt(rowdot(d, d))
        if self.kind in ("bump", "time-modulated-bump"):
            return self.k0 * smoothstep((dist - self.r) / w)
        # annular-zero: full strength except a smooth dip on the annulus
        self.check_annulus(grid.spacing)
        ri, ro = self.annulus_inner, self.annulus_outer
        rad = np.sqrt(rowdot(grid.centers, grid.centers))
        mid_in = smoothstep((ri - rad) / w)    # 0 well inside ri, 1 beyond
        dip = smoothstep((rad - ro) / w) * mid_in
        return self.k_max * (1.0 - dip)

    def at(self, profile: np.ndarray, t: float) -> np.ndarray:
        """k(., t) from `profile`; only time-modulated-bump rescales it."""
        if self.kind != "time-modulated-bump":
            return profile
        ratio = self.k_max / self.k0
        return profile * (1.0 + (ratio - 1.0)
                          * math.sin(2.0 * math.pi * t / self.period) ** 2)

    def values(self, grid: Grid, t: float) -> np.ndarray:
        """Sample k(., t) at the cell centers."""
        return self.at(self.profile(grid), t)


@dataclass(frozen=True)
class InitialSpec:
    """Built-in initial profiles (pre-normalization).

    constant: a = value_a, b = value_b.
    cosine:   a = 1 + amplitude*cos(pi*(x1 + 1/2)),
              b = 1 - amplitude*cos(pi*(x1 + 1/2)).
    gaussian: floor + amplitude*exp(-|x -+ center*e1|^2/(2 width^2)),
              mirrored bumps for a and b.
    """

    kind: str = "cosine"
    amplitude: float = 0.3
    value_a: float = 1.0
    value_b: float = 1.0
    center: float = 0.2
    width: float = 0.1
    floor: float = 0.5

    def __post_init__(self):
        if self.kind not in _INITIAL_KINDS:
            raise ValueError(f"initial.kind must be one of "
                             f"{_INITIAL_KINDS}; got {self.kind!r}")
        if not self.width > 0:
            raise ValueError(f"initial.width must be positive; got "
                             f"{self.width!r}")

    def profiles(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        x1 = grid.centers[:, 0]
        if self.kind == "constant":
            a = np.full(grid.ncells, float(self.value_a))
            b = np.full(grid.ncells, float(self.value_b))
        elif self.kind == "cosine":
            mode = np.cos(math.pi * (x1 + 0.5))
            a = 1.0 + self.amplitude * mode
            b = 1.0 - self.amplitude * mode
        else:
            c = np.zeros(grid.dim)
            c[0] = self.center
            pa, pb = grid.centers - c, grid.centers + c
            da, db = np.sqrt(rowdot(pa, pa)), np.sqrt(rowdot(pb, pb))
            a = self.floor + self.amplitude * np.exp(-da ** 2
                                                     / (2 * self.width ** 2))
            b = self.floor + self.amplitude * np.exp(-db ** 2
                                                     / (2 * self.width ** 2))
        return a, b


@dataclass(frozen=True)
class SimConfig:
    """Full simulation configuration."""

    dim: int = 1
    resolution: int = 256
    d1: float = 1.0
    d2: float = 1.0
    catalyst: CatalystSpec = CatalystSpec(kind="bump", k0=1.0)
    initial: InitialSpec = InitialSpec()
    dt: float | None = None
    t_end: float = 10.0
    record_stride: float = 0.05
    field_stride: float = 0.25

    def __post_init__(self):
        """Reject what the stepper cannot run, naming the config key."""
        numbers = [("stepper.t_end", self.t_end), ("physics.d1", self.d1),
                   ("physics.d2", self.d2),
                   ("stepper.record_stride", self.record_stride),
                   ("stepper.field_stride", self.field_stride)]
        if self.dt is not None:
            numbers.append(("stepper.dt", self.dt))
        for key, value in numbers:
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not 0 < value <= sys.float_info.max:
                raise ValueError(
                    f"{key} must be a finite number > 0; got {value!r}")
            # the energy check's three-point time derivative needs at least
            # two steps and three trace samples
            if key in ("stepper.dt", "stepper.record_stride") \
                    and value > 0.5 * self.t_end:
                raise ValueError(
                    f"{key} = {value!r} exceeds half of stepper.t_end = "
                    f"{self.t_end!r}")


def init_state(grid: Grid, config: SimConfig) -> np.ndarray:
    """Sample and normalize initial data; returns u = (a, b).

    The raw profiles are rescaled by one common factor so the total mass of
    a+b is exactly 2; u has shape (2, ncells).
    """
    a, b = config.initial.profiles(grid)
    if np.min(a) <= 0 or np.min(b) <= 0:
        keys = {"constant": "value_a, value_b", "cosine": "amplitude",
                "gaussian": "floor, amplitude"}[config.initial.kind]
        raise ConfigError(f"initial profiles must be strictly positive on "
                          f"the grid; check initial.{keys}")
    total = integrate(grid, a) + integrate(grid, b)
    factor = 2.0 / total
    if not 0.5 <= factor <= 2.0:
        warnings.warn(
            f"initial profiles far from mass-2 normalization "
            f"(rescale factor {factor:.3g})", stacklevel=2)
    return np.array([a, b]) * factor


def _factor(superlu, n, indptr, indices, data):
    """SuperLU factorization of the n x n matrix with canonical CSC arrays
    (indptr, indices, data): `gstrf` called as scipy 1.17's
    `scipy.sparse.linalg.splu(A)` calls it.  The L and U factors, never
    read here, would come back as their raw CSC arrays."""
    return superlu.gstrf(n, int(indptr[-1]), data, indices, indptr,
                         csc_construct_func=lambda *arrays, **shape: arrays,
                         ilu=False, options=dict(
                             DiagPivotThresh=None, ColPerm=None,
                             PanelSize=None, Relax=None))


_EYE1 = (np.array([0, 1], np.intc), np.zeros(1, np.intc), np.ones(1))


def _solve_eye1(superlu) -> np.ndarray:
    return _factor(superlu, 1, *_EYE1).solve(np.ones(1))


def _matvec_eye1(sparsetools) -> np.ndarray:
    y = np.zeros(1)
    sparsetools.csr_matvec(1, 1, *_EYE1, np.ones(1), y)
    return y


# scipy's compiled extensions that `splu` and `csr_matrix @ vector` run,
# by module: the directory under the scipy package, and the call on the
# 1x1 identity `_EYE1` (its CSR and CSC arrays) that must return [1.0]
_EXTENSIONS = {"_superlu": ("sparse/linalg/_dsolve", _solve_eye1),
               "_sparsetools": ("sparse", _matvec_eye1)}


def _scipy_version() -> str:
    from importlib import metadata
    try:
        return f"scipy {metadata.version('scipy')}"
    except metadata.PackageNotFoundError:
        return "scipy (not installed)"


@functools.cache
def load_extensions() -> dict:
    """scipy's `_superlu` and `_sparsetools` extension modules, by name.

    They are loaded from their files under the installed scipy package
    without importing it (`scipy.sparse.linalg` costs about 0.35 s and
    23 MB), and registered as `degenrd._superlu` and
    `degenrd._sparsetools`: under scipy's names, a later `import
    scipy.sparse` in the process would lose its `_sparsetools` attribute.
    `_superlu` links scipy's own OpenBLAS, whose pool threads spin but
    get no SuperLU work, so it loads with OPENBLAS_NUM_THREADS=1 and the
    caller's value (or its absence) is then restored; a later `import
    scipy.linalg` shares that one-thread library.  numpy's OpenBLAS keeps
    its pool.  Raises OSError naming the installed scipy version and the
    file when one is missing, cannot be loaded, or its entry point does
    not accept the call this module makes.
    """
    scipy = importlib.util.find_spec("scipy")
    root = Path(scipy.origin).parent if scipy and scipy.origin \
        else Path("scipy")
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    modules = {}
    for name, (where, probe) in _EXTENSIONS.items():
        path = root / where / (name + suffix)
        try:
            if not path.is_file():
                raise ImportError("no such file")
            spec = importlib.util.spec_from_file_location(f"degenrd.{name}",
                                                          path)
            saved = os.environ.get("OPENBLAS_NUM_THREADS")
            os.environ["OPENBLAS_NUM_THREADS"] = "1"    # read by dlopen
            try:
                module = importlib.util.module_from_spec(spec)
            finally:
                os.environ.pop("OPENBLAS_NUM_THREADS", None)
                if saved is not None:
                    os.environ["OPENBLAS_NUM_THREADS"] = saved
            spec.loader.exec_module(module)
            if list(probe(module)) != [1.0]:
                raise ValueError("wrong result on the 1x1 identity")
        except (ImportError, AttributeError, TypeError, ValueError,
                RuntimeError) as exc:
            raise OSError(f"{_scipy_version()}: cannot use {path} "
                          f"({exc})") from exc
        modules[name] = sys.modules[spec.name] = module
    return modules


def _drop_zeros(indptr, indices, data):
    """Compressed sparse arrays without their zero entries, which scipy's
    sparse sums drop."""
    keep = data != 0
    kept = np.concatenate([[0], np.cumsum(keep)])[indptr].astype(np.intc)
    return kept, indices[keep], data[keep]


class Stepper:
    """Cached Crank-Nicolson factorizations for a fixed (grid, dt, d1, d2).

    The CN matrices are formed from the grid's CSR Laplacian arrays and
    run on scipy's compiled SuperLU and sparse kernels (`load_extensions`),
    bit for bit what `scipy.sparse.linalg.splu` and `csr_matrix @ vector`
    compute on the same matrices assembled by scipy.sparse (the tests
    compare them).  `solve` holds the SuperLU solve callables: one, shared
    by both species, when d1 == d2, else one per species.  `forward` holds
    the CSR arrays (indptr, indices, data) of the block-diagonal explicit
    CN half diag(I + (dt/2) d1 L, I + (dt/2) d2 L) over the stacked
    (2 ncells,) state, one block per species whether or not d1 == d2:
    each row sums the products of its species' block in the same order,
    so one `csr_matvec` call has the bits of the two per-species products.
    `implicit` and `explicit` act on a (2, ncells) state, one species per
    row; `implicit` looks `solve` up at call time.  `last` is the state
    `step` last returned, with its maximum.
    """

    def __init__(self, grid: Grid, dt: float, d1: float, d2: float,
                 dt_set: bool = False):
        """Raises ConfigError naming the diffusivity key whose matrix
        cannot be factorized, and stepper.dt when `dt_set`; OSError when
        scipy's extensions cannot be used."""
        ext = load_extensions()
        self._matvec = ext["_sparsetools"].csr_matvec
        self.dt = dt
        n = grid.ncells
        indptr, indices, data = grid.laplacian
        rows = np.repeat(np.arange(n, dtype=np.intc), np.diff(indptr))
        diag = rows == indices
        # the pattern is symmetric, so the CSC arrays of L share indptr
        # and indices with its CSR arrays; `by_col` takes the CSR entries
        # in column order
        by_col = np.argsort(indices * np.int64(n) + rows, kind="stable")
        self.solve = []
        blocks = []
        for d in ((d1,) if d1 == d2 else (d1, d2)):
            cL = (0.5 * dt * d) * data
            A = _drop_zeros(indptr, indices, np.where(diag, 1.0 - cL, -cL)
                            [by_col])
            try:
                self.solve.append(_factor(ext["_superlu"], n, *A).solve)
            except RuntimeError as exc:
                keys = [k for k, v in (("physics.d1", d1), ("physics.d2", d2))
                        if v == d] + ["stepper.dt"] * dt_set
                raise ConfigError(
                    f"{', '.join(keys)}: the Crank-Nicolson matrix "
                    f"I - (dt/2)*d*L with d = {d:g}, dt = {dt:g} cannot be "
                    f"factorized ({exc})") from exc
            blocks.append(_drop_zeros(indptr, indices,
                                      np.where(diag, 1.0 + cL, cL)))
        (p1, i1, v1), (p2, i2, v2) = blocks[0], blocks[-1]
        self.forward = (np.concatenate([p1, p2[1:] + p1[-1]]),
                        np.concatenate([i1, i2 + n]),
                        np.concatenate([v1, v2]))
        self.last = (None, math.nan)

    def implicit(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - dt/2 d L) x = rhs for both rows of `rhs`."""
        if len(self.solve) == 1:
            # one two-column solve; SuperLU returns it in Fortran order, so
            # the transpose has the contiguous rows that keep every later
            # reduction over a species on the same (bitwise) code path
            return self.solve[0](rhs.T).T
        return np.array([s(r) for s, r in zip(self.solve, rhs)])

    def explicit(self, u: np.ndarray) -> np.ndarray:
        """(I + dt/2 d L) u for both rows of `u`."""
        out = np.zeros(u.shape)         # csr_matvec adds the product to out
        self._matvec(u.size, u.size, *self.forward, u.ravel(), out.ravel())
        return out


def _reaction_dt(k_max: float, peak) -> float:
    """0.5/(k_max * peak), the stability bound where a + b peaks at `peak`;
    it does not rise as `peak` does."""
    if k_max == 0.0:
        return math.inf                      # pure diffusion: unconditional
    return 0.5 / (k_max * max(peak, 1e-30))


def stability_dt(config: SimConfig, a: np.ndarray, b: np.ndarray) -> float:
    """Explicit-reaction stability bound dt <= 0.5/(k_max * max(a+b))."""
    return _reaction_dt(config.catalyst.k_max, float((a + b).max()))


def default_dt(grid: Grid, config: SimConfig, a, b) -> float:
    return min(stability_dt(config, a, b), 0.5 * grid.spacing)


def step_plan(grid: Grid, config: SimConfig,
              u: np.ndarray) -> tuple[float, int, int, int]:
    """(dt, nsteps, rec_every, snap_every) of a run from the state u at
    t = 0.  Raises ConfigError naming the key when dt needs over 2**52
    steps to reach t_end, or when a set stepper.dt exceeds the t = 0
    stability bound."""
    # every snapshot is a record: records are spaced by the longest stride
    # up to record_stride that field_stride is a whole multiple of
    stride = config.record_stride
    per_snap = math.ceil(config.field_stride / stride - 1e-9)
    if abs(per_snap * stride - config.field_stride) \
            > 1e-9 * config.field_stride:
        stride = config.field_stride / per_snap
    dt = config.dt if config.dt is not None else default_dt(grid, config, *u)
    if not config.t_end / 2.0 ** 52 < dt:     # t += dt would stall
        key = "stepper.dt" if config.dt is not None else "the stability " \
            f"bound of catalyst.k_max = {config.catalyst.k_max:g} (default k0)"
        raise ConfigError(f"{key}: dt = {dt:g} needs over 2**52 steps to "
                          f"reach stepper.t_end = {config.t_end:g}")
    rec_every = max(1, round(stride / dt))
    if config.dt is None:
        # a and b stay in the invariant rectangle [0, max u]^2, so the
        # stability bound with a + b = 2*max u holds at every step
        bound = _reaction_dt(config.catalyst.k_max, 2.0 * u.max())
        if stride / rec_every > bound:
            rec_every = math.ceil(stride / bound)
        dt = stride / rec_every
    nsteps = max(1, round(config.t_end / dt))
    if abs(nsteps * dt - config.t_end) > 1e-9 * config.t_end:
        nsteps = math.ceil(config.t_end / dt - 1e-12)
        dt = config.t_end / nsteps
        rec_every = max(1, round(stride / dt))
    if config.dt is not None and dt > stability_dt(config, *u) * (1 + 1e-12):
        raise ConfigError("stepper.dt exceeds the explicit-reaction "
                          "stability bound at t = 0; reduce it")
    return dt, nsteps, rec_every, per_snap * rec_every


_SIGN = np.array([[1.0], [-1.0]])   # the reaction adds to a, takes from b


def step(u: np.ndarray, t: float, profile: np.ndarray, config: SimConfig,
         stepper: Stepper) -> np.ndarray:
    """One IMEX step of the (2, ncells) state `u` = (a, b) from time t.

    CN diffusion plus an explicit midpoint reaction; `profile` is the
    catalyst's spatial profile (`CatalystSpec.profile`).  The new state is
    read-only, and the next step's stability guard reuses its maximum,
    kept in `stepper.last`.
    """
    dt, cat = stepper.dt, config.catalyst
    last, peak = stepper.last
    # fl(a + b) <= 2*max(u) and the bound does not rise with the peak, so
    # max(a + b) is needed only when 2*max(u) fails to clear dt
    if dt > _reaction_dt(cat.k_max, 2.0 * (peak if u is last else u.max())) \
            * (1 + 1e-12) and dt > stability_dt(config, *u) * (1 + 1e-12):
        raise ValueError(
            "dt exceeds the explicit-reaction stability bound; reduce dt")
    # midpoint predictor: backward-Euler half step, reaction frozen at t.
    # Each reaction term is formed in place on its own new temporary; IEEE
    # multiply and add commute, so (dt/2) * (k * (b^2 - a^2)) and
    # u + h * _SIGN keep their bits in this order
    sq = u * u
    h = sq[1] - sq[0]
    h *= cat.at(profile, t)
    h *= 0.5 * dt
    rhs = h * _SIGN
    rhs += u
    u_h = stepper.implicit(rhs)
    sq = u_h * u_h
    rh = sq[1] - sq[0]
    rh *= cat.at(profile, t + 0.5 * dt)
    rh *= dt
    rhs = stepper.explicit(u)
    rhs += rh * _SIGN
    u_new = stepper.implicit(rhs)
    # whole-array reductions without ndarray.min's Python wrapper; NaN
    # propagates through both
    lo, hi = np.minimum.reduce(u_new, None), np.maximum.reduce(u_new, None)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RuntimeError("non-finite state after step; reduce dt")
    if lo < 0:
        raise RuntimeError("positivity lost, reduce dt")
    u_new.flags.writeable = False
    stepper.last = (u_new, hi)
    return u_new


@dataclass
class RunResult:
    """Trace, snapshots, and provenance of one completed simulation."""

    config: SimConfig
    grid: Grid
    trace: TraceSeries
    snapshot_times: np.ndarray      # (S,)
    snapshots: np.ndarray           # (S, 2, ncells): (a, b) at each time
    dt: float

    @property
    def B0(self) -> float:
        """The initial floor min(a0, b0), from the t = 0 snapshot."""
        return float(self.snapshot_at(0.0)[1].min())

    def snapshot_at(self, t: float) -> tuple[float, np.ndarray]:
        """(t_i, u_i): the snapshot nearest t, u_i = (a, b)."""
        i = nearest_index(self.snapshot_times, t)
        if i is None:
            raise KeyError(f"no field snapshot near t={t}")
        return float(self.snapshot_times[i]), self.snapshots[i]


# the trace's channels, in the order `_record` fills them and trace.csv
# lists them
TRACE_CHANNELS = ("mass", "l2_dist", "l3_sum", "min_ab", "dissipation_grad_a",
                  "dissipation_grad_b", "dissipation_reaction", "u_l3_max",
                  "l2_ball")


def _record(grid, config, a, b, k, ball):
    u1, u2 = a - 1.0, b - 1.0
    du = u2 - u1
    return dict(zip(TRACE_CHANNELS, (
        integrate(grid, a + b),
        integrate(grid, u1 * u1 + u2 * u2),
        integrate(grid, a ** 3 + b ** 3),
        float(min(a.min(), b.min())),
        config.d1 * dirichlet_energy(grid, a),
        config.d2 * dirichlet_energy(grid, b),
        integrate(grid, k * (a + b) * du * du),
        max(integrate(grid, np.abs(u1) ** 3),
            integrate(grid, np.abs(u2) ** 3)),
        ball_norm2(grid, u1, u2, ball))))


def run(config: SimConfig) -> RunResult:
    """Advance the system to t_end, recording traces and snapshots."""
    grid = build_grid(config.dim, config.resolution)
    u = init_state(grid, config)
    dt, nsteps, rec_every, snap_every = step_plan(grid, config, u)

    stepper = Stepper(grid, dt, config.d1, config.d2, config.dt is not None)
    dt_source = "default" if config.dt is None else \
        f"stepper.dt = {config.dt:g} set" + ("" if dt == config.dt else
        f", shortened to divide stepper.t_end = {config.t_end:g}")
    ball = ball_mask(grid, config.catalyst.x0, config.catalyst.r)
    profile = config.catalyst.profile(grid)

    times, rows, snap_times, snapshots = [], [], [], []

    def take(n, u, t):
        k = config.catalyst.at(profile, t)
        times.append(t)
        rows.append(_record(grid, config, u[0], u[1], k, ball))
        if n % snap_every == 0 or n == nsteps:
            snap_times.append(t)
            snapshots.append(u)             # `step` returns a new array

    t = 0.0
    take(0, u, t)
    for n in range(1, nsteps + 1):
        try:
            u = step(u, t, profile, config, stepper)
        except (RuntimeError, ValueError) as exc:
            raise RuntimeError(
                f"{exc}: step {n} from t = {t:g}, dt = {dt:g} ({dt_source}),"
                f" physics.d1 = {config.d1:g}, physics.d2 = {config.d2:g}"
            ) from exc
        t += dt
        if n % rec_every == 0 or n == nsteps:
            take(n, u, t)

    channels = {key: np.array([r[key] for r in rows]) for key in rows[0]}
    trace = TraceSeries(np.array(times), channels)
    return RunResult(config=config, grid=grid, trace=trace,
                     snapshot_times=np.array(snap_times),
                     snapshots=np.reshape(snapshots, (-1, 2, grid.ncells)),
                     dt=dt)
