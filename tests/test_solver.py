"""Time integrator: conservation, oracles, error handling.

Frozen oracles:
  * single discrete cosine mode under pure diffusion decays per step by
    exactly (1 - dt*lam/2)/(1 + dt*lam/2) with the grid eigenvalue lam
    (trapezoidal-rule resolvent applied to an exact eigenvector);
  * heat decay rate of the squared distance = 2*d1*pi^2 for the slowest
    cosine mode.
"""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from degenrd import solver
from degenrd.config import load_config
from degenrd.diagnostics import fit_decay_rate
from degenrd.grid import ball_mask, build_grid, integrate
from degenrd.solver import (CatalystSpec, InitialSpec, SimConfig, Stepper,
                            default_dt, init_state, run, step, stability_dt)


def _cfg(**kw):
    base = dict(dim=1, resolution=128,
                catalyst=CatalystSpec(kind="bump", k0=1.0),
                initial=InitialSpec(kind="cosine", amplitude=0.3),
                t_end=1.0)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# catalyst and initial profiles
# ---------------------------------------------------------------------------

def test_catalyst_kinds(grid256):
    g = grid256
    x = g.centers[:, 0]
    k = CatalystSpec(kind="constant", k0=2.0).values(g, 0.0)
    assert np.all(k == 2.0)
    kb = CatalystSpec(kind="bump", k0=1.0, x0=0.25, r=0.1).values(g, 0.0)
    assert np.all(kb >= 0) and np.max(kb) == pytest.approx(1.0)
    assert np.all(kb[np.abs(x - 0.25) <= 0.1] == 1.0)
    assert np.all(kb[np.abs(x - 0.25) > 0.2] == 0.0)
    kt0 = CatalystSpec(kind="time-modulated-bump", k0=1.0, k_max=3.0,
                       period=1.0)
    assert np.allclose(kt0.values(g, 0.0), kt0.values(g, 1.0))
    assert np.max(kt0.values(g, 0.25)) == pytest.approx(3.0)


def test_annular_zero_must_avoid_observation_ball():
    bad = CatalystSpec(kind="annular-zero", k0=1.0, x0=0.25, r=0.1,
                       annulus_inner=0.2, annulus_outer=0.3)
    with pytest.raises(ValueError):
        bad.values(build_grid(1, 256), 0.0)
    spec = CatalystSpec(kind="annular-zero", k0=1.0, x0=0.3, r=0.05,
                        annulus_inner=0.05, annulus_outer=0.15)
    g = build_grid(1, 256)
    k = spec.values(g, 0.0)
    x = np.abs(g.centers[:, 0])
    assert np.all(k[(x > 0.05) & (x < 0.15)] < 1.0)
    assert np.all(k[np.abs(g.centers[:, 0] - 0.3) <= 0.05] == 1.0)


def test_init_state_normalized_mass(grid256):
    for kind in ("constant", "cosine", "gaussian"):
        cfg = _cfg(initial=InitialSpec(kind=kind))
        u = init_state(grid256, cfg)
        assert u.shape == (2, grid256.ncells)
        assert integrate(grid256, u[0] + u[1]) \
            == pytest.approx(2.0, abs=1e-13)
        assert u.min() > 0


# ---------------------------------------------------------------------------
# exact discrete-mode oracle (pure diffusion)
# ---------------------------------------------------------------------------

def test_single_mode_per_step_factor_exact():
    g = build_grid(1, 128)
    dx = g.spacing
    k = 2
    lam = (4.0 / dx ** 2) * math.sin(k * math.pi * dx / 2.0) ** 2
    xi = g.centers[:, 0] + 0.5
    mode = 0.2 * np.cos(k * math.pi * xi)
    cfg = _cfg(catalyst=CatalystSpec(kind="constant", k0=0.0), dt=1e-3)
    stepper = Stepper(g, cfg.dt, cfg.d1, cfg.d2)
    profile = cfg.catalyst.profile(g)
    u, t = np.stack([1.0 + mode, 1.0 - mode]), 0.0
    factor = (1 - cfg.dt * lam / 2) / (1 + cfg.dt * lam / 2)
    for n in range(5):
        u, t = step(u, t, profile, cfg, stepper), t + cfg.dt
        expected = 1.0 + mode * factor ** (n + 1)
        assert np.max(np.abs(u[0] - expected)) < 1e-13


def test_heat_decay_rate_oracle():
    cfg = _cfg(resolution=256, dt=1e-3, t_end=1.0, record_stride=0.01,
               catalyst=CatalystSpec(kind="constant", k0=0.0))
    r = run(cfg)
    fit = fit_decay_rate(r.trace, "l2_dist")
    assert fit["r_squared"] > 1 - 1e-10
    assert fit["rate"] == pytest.approx(2 * math.pi ** 2, rel=0.02)


# ---------------------------------------------------------------------------
# conservation and monotonicity on a reactive run
# ---------------------------------------------------------------------------

def test_mass_conserved_to_machine_precision(ref_run):
    assert np.max(np.abs(ref_run.trace["mass"] - 2.0)) < 1e-10


def test_l2_and_l3_monotone(ref_run):
    tr = ref_run.trace
    assert np.max(np.diff(tr["l2_dist"])) <= 1e-12
    assert np.max(tr["l3_sum"] - tr["l3_sum"][0]) <= 1e-10


def test_minimum_principle(ref_run):
    assert np.min(ref_run.trace["min_ab"]) >= ref_run.B0 - 1e-8


def test_reaction_increments_exactly_opposite(grid256):
    cfg = _cfg(resolution=256, dt=1e-3)
    u = init_state(grid256, cfg)
    stepper = Stepper(grid256, cfg.dt, cfg.d1, cfg.d2)
    u2 = step(u, 0.0, cfg.catalyst.profile(grid256), cfg, stepper)
    m0 = integrate(grid256, u[0] + u[1])
    m1 = integrate(grid256, u2[0] + u2[1])
    assert m1 == pytest.approx(m0, abs=1e-14)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_oversized_dt_raises_not_crashes():
    cfg = _cfg(catalyst=CatalystSpec(kind="constant", k0=60.0), dt=0.05,
               initial=InitialSpec(kind="cosine", amplitude=0.45),
               t_end=2.0)
    with pytest.raises((ValueError, RuntimeError)):
        run(cfg)


def _guarded_step(u_edit, dt=0.01, catalyst=CatalystSpec(kind="bump",
                                                         k0=1.0)):
    """One `step` on a 1-D n=32 grid from ones with `u_edit` applied."""
    cfg = _cfg(resolution=32, catalyst=catalyst)
    grid = build_grid(1, 32)
    u = np.ones((2, grid.ncells))
    u_edit(u)
    return step(u, 0.0, catalyst.profile(grid), cfg,
                Stepper(grid, dt, cfg.d1, cfg.d2))


def test_step_rejects_dt_above_reaction_bound():
    def peak(u):                             # a + b = 60: bound 0.0083
        u[:, 7] = 30.0
    with pytest.raises(ValueError, match="dt exceeds the explicit-reaction "
                                         "stability bound"):
        _guarded_step(peak)


def test_guard_reuses_only_the_peak_of_the_state_it_returned():
    """`step` returns a read-only state, so the maximum the next guard
    reuses is that state's; an edited copy is scanned anew and trips it."""
    cfg = _cfg(resolution=32)
    grid = build_grid(1, 32)
    stepper = Stepper(grid, 0.01, cfg.d1, cfg.d2)
    profile = cfg.catalyst.profile(grid)
    u = step(np.ones((2, grid.ncells)), 0.0, profile, cfg, stepper)
    with pytest.raises(ValueError, match="read-only"):
        u[:, 7] = 30.0
    spiked = u.copy()
    spiked[:, 7] = 30.0                      # a + b = 60: bound 0.0083
    with pytest.raises(ValueError, match="dt exceeds the explicit-reaction "
                                         "stability bound"):
        step(spiked, 0.01, profile, cfg, stepper)
    assert np.array_equal(step(u, 0.01, profile, cfg, stepper),
                          step(u.copy(), 0.01, profile, cfg, stepper))


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
def test_step_rejects_non_finite_state(value):
    def poison(u):
        u[0, 5] = value
    # a pure-diffusion catalyst has no reaction bound for inf to trip;
    # its reaction term 0 * inf is NaN
    with pytest.raises(RuntimeError, match="non-finite state after step"), \
            np.errstate(invalid="ignore"):
        _guarded_step(poison, catalyst=CatalystSpec(kind="constant", k0=0.0))


def test_step_rejects_lost_positivity():
    def spike(u):                            # CN rings below zero
        u[:] = 1e-3
        u[0, 16] = 1.0
    with pytest.raises(RuntimeError, match="positivity lost"):
        _guarded_step(spike, dt=0.1)


def test_zero_constant_catalyst_never_trips_the_bound():
    def huge(u):
        u *= 1e6
    u_new = _guarded_step(huge, dt=10.0,
                          catalyst=CatalystSpec(kind="constant", k0=0.0))
    assert np.allclose(u_new, 1e6, rtol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(d1=-1.0)
    with pytest.raises(ValueError):
        _cfg(dt=0.0)
    with pytest.raises(ValueError):
        CatalystSpec(kind="nope", k0=1.0)
    with pytest.raises(ValueError):
        InitialSpec(kind="nope")


def test_default_dt_positive(grid256):
    cfg = _cfg()
    u = init_state(grid256, cfg)
    assert default_dt(grid256, cfg, *u) > 0


def test_equilibrium_run_constant_traces():
    cfg = _cfg(initial=InitialSpec(kind="constant"), t_end=1.0)
    r = run(cfg)
    tr = r.trace
    assert np.max(np.abs(tr["mass"] - 2.0)) < 5e-12
    assert np.max(tr["l2_dist"]) < 1e-24
    assert np.max(np.abs(tr["l3_sum"] - 2.0)) < 1e-11
    assert np.max(np.abs(tr["min_ab"] - 1.0)) < 1e-12


def test_snapshot_lookup(ref_run):
    t, u = ref_run.snapshot_at(5.0)
    assert t == pytest.approx(5.0, abs=1e-9)
    assert u.shape == (2, ref_run.grid.ncells)
    with pytest.raises(KeyError):
        ref_run.snapshot_at(3.1415)


# ---------------------------------------------------------------------------
# bitwise oracle: the per-species step loop the (2, ncells) core replaced
# ---------------------------------------------------------------------------

def _reference_step(grid, t, a, b, config, dt, solve, forward):
    """One step of (a, b) from t: a solve per species, k sampled per call."""
    assert dt <= stability_dt(config, a, b) * (1 + 1e-12)
    k_now = config.catalyst.values(grid, t)
    k_half = k_now if config.catalyst.kind != "time-modulated-bump" \
        else config.catalyst.values(grid, t + 0.5 * dt)
    r0 = k_now * (b * b - a * a)
    a_h = solve[0](a + (0.5 * dt) * r0)
    b_h = solve[1](b - (0.5 * dt) * r0)
    rh = k_half * (b_h * b_h - a_h * a_h)
    a_new = solve[0](forward[0] @ a + dt * rh)
    b_new = solve[1](forward[1] @ b - dt * rh)
    return a_new, b_new


def _reference_run(config, dt):
    """Times, trace channels and snapshots of the reference loop."""
    grid = build_grid(config.dim, config.resolution)
    a, b = init_state(grid, config)
    rec_every = max(1, round(config.record_stride / dt))
    nsteps = max(1, round(config.t_end / dt))
    snap_every = max(1, round(config.field_stride / dt))
    eye = sp.identity(grid.ncells, format="csc")
    indptr, indices, data = grid.laplacian
    L = sp.csr_matrix((data, indices, indptr),
                      shape=(grid.ncells, grid.ncells)).tocsc()
    solve = [scipy.sparse.linalg.factorized((eye - (0.5 * dt * d) * L)
                                            .tocsc())
             for d in (config.d1, config.d2)]
    forward = [(eye + (0.5 * dt * d) * L).tocsr()
               for d in (config.d1, config.d2)]
    ball = ball_mask(grid, config.catalyst.x0, config.catalyst.r)
    times, rows, snaps = [], [], []

    def take(n, t, a, b):
        k = config.catalyst.values(grid, t)
        times.append(t)
        rows.append(solver._record(grid, config, a, b, k, ball))
        if n % snap_every == 0 or n == nsteps:
            snaps.append((t, a.copy(), b.copy()))

    t = 0.0
    take(0, t, a, b)
    for n in range(1, nsteps + 1):
        a, b = _reference_step(grid, t, a, b, config, dt, solve, forward)
        t += dt
        if n % rec_every == 0 or n == nsteps:
            take(n, t, a, b)
    return times, {key: [r[key] for r in rows] for key in rows[0]}, snaps


# away from the catalyst, slowly diffusing bumps of a and b keep max(a + b)
# near 3 and 2*max(u) near 5 all run long: dt = 0.01 clears 0.5/(13*3) but
# not 0.5/(13*5), so every step's guard needs the exact max(a + b)
_EXACT_PEAK = dict(
    d1=1e-3, d2=1e-3, dt=0.01,
    catalyst=CatalystSpec(kind="bump", k0=13.0, x0=0.0, r=0.1),
    initial=InitialSpec(kind="gaussian", amplitude=2.0, width=0.1,
                        center=0.2, floor=0.5))

_ORACLE_CASES = {
    "1d-bump": dict(catalyst=CatalystSpec(kind="bump", k0=1.0)),
    "1d-modulated": dict(catalyst=CatalystSpec(
        kind="time-modulated-bump", k0=1.0, k_max=3.0, period=0.5)),
    "1d-unequal-d": dict(d1=1.0, d2=0.3),
    "2d-annular": dict(
        dim=2, resolution=16, d2=2.0,
        catalyst=CatalystSpec(kind="annular-zero", k0=1.0,
                              annulus_inner=0.45, annulus_outer=0.5),
        initial=InitialSpec(kind="gaussian")),
    "2d-constant": dict(dim=2, resolution=16,
                        catalyst=CatalystSpec(kind="constant", k0=1.0)),
    "1d-zero-catalyst": dict(catalyst=CatalystSpec(kind="constant", k0=0.0)),
    "2d-bump-32": dict(dim=2, resolution=32),
    "1d-exact-peak": _EXACT_PEAK,
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_run_bitwise_equals_per_species_loop(case):
    kw = dict(resolution=64, t_end=0.5, record_stride=0.05,
              field_stride=0.1)
    kw.update(_ORACLE_CASES[case])
    cfg = _cfg(**kw)
    r = run(cfg)
    times, channels, snaps = _reference_run(cfg, r.dt)
    assert np.array_equal(r.trace.times, times)
    assert sorted(r.trace.channels) == sorted(channels)
    for key, values in channels.items():
        assert np.array_equal(r.trace[key], values), key
    assert len(r.snapshots) == len(snaps) > 2
    for t, (a, b), (t_ref, a_ref, b_ref) in zip(r.snapshot_times,
                                                r.snapshots, snaps):
        assert t == t_ref
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)


def test_exact_peak_case_needs_the_exact_peak_mid_run():
    """In the "1d-exact-peak" case the guard's 2*max(u) fails dt from the
    state at t = 0.4, and max(a + b) clears it."""
    kw = dict(resolution=64, t_end=0.5, record_stride=0.05,
              field_stride=0.1, **_EXACT_PEAK)
    cfg = _cfg(**kw)
    t, u = run(cfg).snapshot_at(0.4)
    assert t == pytest.approx(0.4)
    assert cfg.dt > solver._reaction_dt(cfg.catalyst.k_max, 2.0 * u.max()) \
        * (1 + 1e-12)
    assert cfg.dt <= stability_dt(cfg, *u) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# bitwise oracle: the step before its guard reused the last state's peak
# ---------------------------------------------------------------------------

# The step and the stability bound as they were when every step's guard
# scanned a + b, kept verbatim but for their names as the bitwise
# reference of `step`.

def _alloc_stability_dt(config: SimConfig, a: np.ndarray, b: np.ndarray
                        ) -> float:
    """Explicit-reaction stability bound dt <= 0.5/(k_max * max(a+b))."""
    peak = float((a + b).max())
    if config.catalyst.k_max == 0.0:
        return math.inf                      # pure diffusion: unconditional
    return 0.5 / (config.catalyst.k_max * max(peak, 1e-30))


_SIGN = np.array([[1.0], [-1.0]])   # the reaction adds to a, takes from b


def _alloc_step(u: np.ndarray, t: float, profile: np.ndarray,
                config: SimConfig, stepper) -> np.ndarray:
    """One IMEX step of the (2, ncells) state `u` = (a, b) from time t.

    CN diffusion plus an explicit midpoint reaction; `profile` is the
    catalyst's spatial profile (`CatalystSpec.profile`).
    """
    dt, cat = stepper.dt, config.catalyst
    if dt > _alloc_stability_dt(config, *u) * (1 + 1e-12):
        raise ValueError(
            "dt exceeds the explicit-reaction stability bound; reduce dt")
    # midpoint predictor: backward-Euler half step, reaction frozen at t
    sq = u * u
    h = (0.5 * dt) * (cat.at(profile, t) * (sq[1] - sq[0]))
    u_h = stepper.implicit(u + h * _SIGN)
    sq = u_h * u_h
    rh = dt * (cat.at(profile, t + 0.5 * dt) * (sq[1] - sq[0]))
    rhs = stepper.explicit(u)
    rhs += rh * _SIGN
    u_new = stepper.implicit(rhs)
    lo, hi = u_new.min(), u_new.max()     # NaN propagates through both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RuntimeError("non-finite state after step; reduce dt")
    if lo < 0:
        raise RuntimeError("positivity lost, reduce dt")
    return u_new


def test_shipped_run_bitwise_equals_the_allocating_step(monkeypatch):
    """The full-length run of configs/degenerate_bump.json: every trace
    channel and snapshot has the allocating step's bits, and the states
    kept as snapshots share no memory with each other."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                      / "degenerate_bump.json").sim
    with monkeypatch.context() as m:
        m.setattr(solver, "step", _alloc_step)
        ref = run(cfg)
    snap_times, kept, fast = set(ref.snapshot_times.tolist()), [], solver.step

    def keep(u, t, profile, config, stepper):
        u_new = fast(u, t, profile, config, stepper)
        if t + stepper.dt in snap_times:
            kept.append(u_new)
        return u_new
    monkeypatch.setattr(solver, "step", keep)
    r = run(cfg)
    assert r.trace.times.size == 201 and len(r.snapshots) == 41
    assert np.array_equal(r.trace.times, ref.trace.times)
    assert sorted(r.trace.channels) == sorted(ref.trace.channels)
    for key in ref.trace.channels:
        assert np.array_equal(r.trace[key], ref.trace[key]), key
    assert np.array_equal(r.snapshot_times, ref.snapshot_times)
    assert np.array_equal(r.snapshots, ref.snapshots)
    assert np.array_equal(kept, r.snapshots[1:])
    assert not any(np.shares_memory(x, y)
                   for i, x in enumerate(kept) for y in kept[:i])


# ---------------------------------------------------------------------------
# the CN operators against scipy's assembly, `splu` and CSR product
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,res", [(1, 8), (1, 256), (2, 8), (2, 11),
                                     (2, 32)])
@pytest.mark.parametrize("d1,d2", [(1.0, 1.0), (1.0, 0.3), (2.0, 1e-322)])
def test_stepper_bitwise_equals_splu_and_csr_product(dim, res, d1, d2,
                                                     scipy_laplacian):
    """Both CN halves give scipy's bits: the solves those of `splu` on
    I - (dt/2) d L, the explicit half `(I + (dt/2) d L).tocsr() @ u` per
    species, from the arrays of scipy's block-diagonal assembly of the two
    forward operators.  At d2 = 1e-322, (dt/2) d L underflows to 0 and
    scipy's sums drop the zero entries: block 2 is the identity."""
    g = build_grid(dim, res)
    n, dt = g.ncells, 1e-3
    stepper = Stepper(g, dt, d1, d2)
    eye = sp.identity(n, format="csc")
    L = scipy_laplacian(g).tocsc()
    solve = [scipy.sparse.linalg.splu((eye - (0.5 * dt * d) * L).tocsc())
             .solve for d in (d1, d2)]
    forward = [(eye + (0.5 * dt * d) * L).tocsr() for d in (d1, d2)]
    u = np.random.default_rng(res).random((2, n))
    for s in (0, 1):
        assert np.array_equal(stepper.solve[-1 if s else 0](u[s]),
                              solve[s](u[s]))
    block = sp.block_diag(forward, format="csr")
    for name, got in zip(("indptr", "indices", "data"), stepper.forward):
        assert np.array_equal(got, getattr(block, name)), name
    if d2 == 1e-322:
        indptr, indices, data = stepper.forward
        assert np.array_equal(indptr[n:] - indptr[n], np.arange(n + 1))
        assert np.array_equal(indices[indptr[n]:], np.arange(n, 2 * n))
        assert np.array_equal(data[indptr[n]:], np.ones(n))
    want = solve[0](u.T).T if d1 == d2 else [solve[0](u[0]), solve[1](u[1])]
    got = stepper.implicit(u)
    assert got.flags.c_contiguous and np.array_equal(got, want)
    assert np.array_equal(stepper.explicit(u),
                          [forward[0] @ u[0], forward[1] @ u[1]])


# ---------------------------------------------------------------------------
# work done per run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d2,nsolve", [(1.0, 1), (0.3, 2)])
def test_one_factorization_when_diffusivities_equal(d2, nsolve):
    g = build_grid(1, 64)
    assert len(Stepper(g, 1e-3, 1.0, d2).solve) == nsolve


@pytest.mark.parametrize("dim,res", [(1, 64), (2, 16)])
@pytest.mark.parametrize("d2,nsolve", [(1.0, 2), (0.3, 4)])
def test_kernel_calls_per_step(dim, res, d2, nsolve):
    """A step makes one `csr_matvec` call over both species and one SuperLU
    solve per stage and factorization."""
    cfg = _cfg(dim=dim, resolution=res, d2=d2, dt=1e-3)
    g = build_grid(dim, res)
    stepper = Stepper(g, cfg.dt, cfg.d1, cfg.d2)
    calls = {"matvec": 0, "solve": 0}

    def counted(fn, name):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call
    stepper._matvec = counted(stepper._matvec, "matvec")
    stepper.solve = [counted(s, "solve") for s in stepper.solve]
    u, t, profile = init_state(g, cfg), 0.0, cfg.catalyst.profile(g)
    for _ in range(3):
        u, t = step(u, t, profile, cfg, stepper), t + cfg.dt
    assert calls == {"matvec": 3, "solve": 3 * nsolve}


@pytest.mark.parametrize("catalyst", [
    CatalystSpec(kind="constant", k0=1.0),
    CatalystSpec(kind="bump", k0=1.0),
    CatalystSpec(kind="annular-zero", k0=1.0, x0=0.3, r=0.05,
                 annulus_inner=0.05, annulus_outer=0.15),
    CatalystSpec(kind="time-modulated-bump", k0=1.0, k_max=3.0)])
def test_catalyst_sampled_once_per_run(monkeypatch, catalyst):
    """The grid is sampled once; steps and records reuse the profile."""
    calls = {"values": 0, "profile": 0}
    for name in calls:
        def counted(self, *args, _name=name,
                    _fn=getattr(CatalystSpec, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(CatalystSpec, name, counted)
    r = run(_cfg(resolution=64, catalyst=catalyst, t_end=0.5))
    assert r.trace.times.size > 2
    assert calls["values"] <= 1 and calls["profile"] <= 1


def _final_state(catalyst, dt):
    cfg = SimConfig(dim=1, resolution=128, dt=dt, t_end=0.5,
                    record_stride=0.25, field_stride=0.5, catalyst=catalyst,
                    initial=InitialSpec(kind="gaussian", amplitude=1.0))
    r = run(cfg)
    return r.grid, r.snapshots[-1]


@pytest.mark.parametrize("catalyst", [
    CatalystSpec(kind="bump", k0=1.0),
    CatalystSpec(kind="time-modulated-bump", k0=1.0, k_max=3.0, period=0.5),
], ids=lambda c: c.kind)
def test_imex_time_order_on_finest_pair(catalyst):
    """Second order in time: the L2 error at t = 0.5 against a dt = 1/6400
    reference falls by 2^1.95 (bump) and 2^1.96 (time-modulated bump) from
    dt = 1/400 to 1/800, at 1-D n = 128 with gaussian data.

    Coarser pairs wobble: from dt = 1/50 the observed orders are 1.77,
    2.52, 2.49 (bump) and 1.77, 2.42, 2.32.  Crank-Nicolson is A-stable but
    not L-stable: its amplification factor tends to -1 on stiff modes
    (dt/dx^2 = 328 at dt = 1/50), so the steep data's high-frequency error
    is not damped but flips sign every step and mixes with the dt^2 term
    until dt resolves those modes.  Implicit-Euler start-up steps would
    damp them (Luskin & Rannacher, Applicable Anal. 1982); the solver does
    not take them, so only the finest pair is pinned.
    """
    grid, ref = _final_state(catalyst, 1 / 6400)
    errs = []
    for dt in (1 / 400, 1 / 800):
        d = _final_state(catalyst, dt)[1] - ref
        errs.append(math.sqrt(integrate(grid, (d * d).sum(axis=0))))
    assert math.log2(errs[0] / errs[1]) >= 1.9
