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

import math
import sys
from dataclasses import dataclass
import warnings

import numpy as np

from .grid import Domain, Grid, build_grid, integrate, dirichlet_energy, \
    ball_mask, ball_norm2
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
        x0 = np.zeros(grid.domain.dim)
        x0[0] = self.x0
        dist = np.linalg.norm(grid.centers - x0, axis=1)
        if self.kind in ("bump", "time-modulated-bump"):
            return self.k0 * smoothstep((dist - self.r) / w)
        # annular-zero: full strength except a smooth dip on the annulus
        self.check_annulus(grid.spacing)
        ri, ro = self.annulus_inner, self.annulus_outer
        rad = np.linalg.norm(grid.centers, axis=1)
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
            c = np.zeros(grid.domain.dim)
            c[0] = self.center
            da = np.linalg.norm(grid.centers - c, axis=1)
            db = np.linalg.norm(grid.centers + c, axis=1)
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


def init_state(grid: Grid, config: SimConfig) -> tuple[np.ndarray, float]:
    """Sample and normalize initial data; returns (u, B0), u = (a, b).

    The raw profiles are rescaled by one common factor so the total mass of
    a+b is exactly 2; u has shape (2, ncells), and B0 is the cellwise floor
    min(a0, b0) after rescaling.
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
    u = np.array([a, b]) * factor
    return u, float(u.min())


class Stepper:
    """Cached Crank-Nicolson factorizations for a fixed (grid, dt, d1, d2).

    `solve` holds the SuperLU solve callables: one, shared by both species,
    when d1 == d2, else one per species; `forward` holds the explicit CN
    halves in the same way.  `implicit` solves for a (2, ncells) state, one
    species per row, and looks `solve` up at call time.
    """

    def __init__(self, grid: Grid, dt: float, d1: float, d2: float,
                 dt_set: bool = False):
        """Raises ConfigError naming the diffusivity key whose matrix
        cannot be factorized, and stepper.dt when `dt_set`."""
        import scipy.sparse as sp
        import scipy.sparse.linalg
        self.dt = dt
        eye = sp.identity(grid.ncells, format="csc")
        L = grid.laplacian.tocsc()
        self.solve = []
        self.forward = []
        for d in ((d1,) if d1 == d2 else (d1, d2)):
            A = (eye - (0.5 * dt * d) * L).tocsc()
            try:
                self.solve.append(scipy.sparse.linalg.splu(A).solve)
            except RuntimeError as exc:
                keys = [k for k, v in (("physics.d1", d1), ("physics.d2", d2))
                        if v == d] + ["stepper.dt"] * dt_set
                raise ConfigError(
                    f"{', '.join(keys)}: the Crank-Nicolson matrix "
                    f"I - (dt/2)*d*L with d = {d:g}, dt = {dt:g} cannot be "
                    f"factorized ({exc})") from exc
            self.forward.append((eye + (0.5 * dt * d) * L).tocsr())

    def implicit(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - dt/2 d L) x = rhs for both rows of `rhs`."""
        if len(self.solve) == 1:
            # one two-column solve; contiguous rows keep every later
            # reduction over a species on the same (bitwise) code path
            return np.ascontiguousarray(self.solve[0](rhs.T).T)
        return np.array([s(r) for s, r in zip(self.solve, rhs)])


def stability_dt(config: SimConfig, a: np.ndarray, b: np.ndarray) -> float:
    """Explicit-reaction stability bound dt <= 0.5/(k_max * max(a+b))."""
    peak = float((a + b).max())
    if config.catalyst.k_max == 0.0:
        return math.inf                      # pure diffusion: unconditional
    return 0.5 / (config.catalyst.k_max * max(peak, 1e-30))


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
        bound = stability_dt(config, u.max(), u.max())
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
    catalyst's spatial profile (`CatalystSpec.profile`).
    """
    dt, cat = stepper.dt, config.catalyst
    if dt > stability_dt(config, *u) * (1 + 1e-12):
        raise ValueError(
            "dt exceeds the explicit-reaction stability bound; reduce dt")
    # midpoint predictor: backward-Euler half step, reaction frozen at t
    sq = u * u
    h = (0.5 * dt) * (cat.at(profile, t) * (sq[1] - sq[0]))
    u_h = stepper.implicit(u + h * _SIGN)
    sq = u_h * u_h
    rh = dt * (cat.at(profile, t + 0.5 * dt) * (sq[1] - sq[0]))
    F = stepper.forward
    rhs = np.array([F[0] @ u[0], F[-1] @ u[1]])
    rhs += rh * _SIGN
    u_new = stepper.implicit(rhs)
    lo, hi = u_new.min(), u_new.max()     # NaN propagates through both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RuntimeError("non-finite state after step; reduce dt")
    if lo < 0:
        raise RuntimeError("positivity lost, reduce dt")
    return u_new


@dataclass
class RunResult:
    """Trace, snapshots, and provenance of one completed simulation."""

    config: SimConfig
    grid: Grid
    trace: TraceSeries
    snapshot_times: np.ndarray      # (S,)
    snapshots: np.ndarray           # (S, 2, ncells): (a, b) at each time
    B0: float
    dt: float

    def snapshot_at(self, t: float) -> tuple[float, np.ndarray]:
        """(t_i, u_i): the snapshot nearest t, u_i = (a, b)."""
        i = nearest_index(self.snapshot_times, t)
        if i is None:
            raise KeyError(f"no field snapshot near t={t}")
        return float(self.snapshot_times[i]), self.snapshots[i]


def _record(grid, config, a, b, k, ball):
    u1, u2 = a - 1.0, b - 1.0
    du = u2 - u1
    return {
        "mass": integrate(grid, a + b),
        "l2_dist": integrate(grid, u1 * u1 + u2 * u2),
        "l3_sum": integrate(grid, a ** 3 + b ** 3),
        "min_ab": float(min(a.min(), b.min())),
        "dissipation_grad_a": config.d1 * dirichlet_energy(grid, a),
        "dissipation_grad_b": config.d2 * dirichlet_energy(grid, b),
        "dissipation_reaction": integrate(grid, k * (a + b) * du * du),
        "u_l3_max": max(integrate(grid, np.abs(u1) ** 3),
                        integrate(grid, np.abs(u2) ** 3)),
        "l2_ball": ball_norm2(grid, u1, u2, ball),
    }


def run(config: SimConfig) -> RunResult:
    """Advance the system to t_end, recording traces and snapshots."""
    grid = build_grid(Domain(config.dim), config.resolution)
    u, B0 = init_state(grid, config)
    dt, nsteps, rec_every, snap_every = step_plan(grid, config, u)

    stepper = Stepper(grid, dt, config.d1, config.d2, config.dt is not None)
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
        except RuntimeError as exc:
            raise RuntimeError(
                f"{exc}: step {n} from t = {t:g}, stepper.dt = {dt:g} ("
                f"{'default' if config.dt is None else 'set'}), physics.d1 "
                f"= {config.d1:g}, physics.d2 = {config.d2:g}") from exc
        t += dt
        if n % rec_every == 0 or n == nsteps:
            take(n, u, t)

    channels = {key: np.array([r[key] for r in rows]) for key in rows[0]}
    trace = TraceSeries(np.array(times), channels)
    return RunResult(config=config, grid=grid, trace=trace,
                     snapshot_times=np.array(snap_times),
                     snapshots=np.reshape(snapshots, (-1, 2, grid.ncells)),
                     B0=B0, dt=dt)
