"""Tilting, quadratic forms, frequency trace, and the three-time lemma.

Closed-form oracle for the sampled interpolation check (hand-derived):
with y(t) = exp(-t), flat frequency 1/2, zero drift constants, horizon 1,
offset 0.1 and times (0.2, 0.5, 0.8):
  * exponent M = 3*ln 2 / ln 1.5 = 5.128533874054364;
  * drift term D = 0;
  * conclusion margin = 0.3*(M - 1) = 1.2385601622163092.
"""

import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from degenrd import logconv
from degenrd.constants import DPS
from degenrd.grid import cell_gradient, dirichlet_energy, integrate
from degenrd.logconv import (InterpInput, antisym_form, frequency_trace,
                             growth_violations, interp_check, sym_form,
                             sym_form_direct, tilt)
from degenrd.solver import CatalystSpec, ConfigError, InitialSpec, \
    SimConfig, run
from degenrd.verify import (_frequency_trace_checks, audit, check_cubic_bound,
                            check_source_bound, interpolation_window_check,
                            observation_estimate_check)
from degenrd.weights import PsiJet, WeightParams, weight_fields

M_ORACLE = 3 * math.log(2) / math.log(1.5)
MARGIN_ORACLE = 0.3 * (M_ORACLE - 1)


def _tilt_mid(ref_run, params):
    """The reference run's snapshot at t = 5, tilted with `params`."""
    t, u = ref_run.snapshot_at(5.0)
    k = ref_run.config.catalyst.values(ref_run.grid, t)
    return tilt(ref_run.grid, t, u, k, weight_fields(params, ref_run.grid),
                1.0, 1.0)


# ---------------------------------------------------------------------------
# tilting
# ---------------------------------------------------------------------------

def test_tilt_equilibrium_is_zero(grid256, ref_params):
    ones = np.ones((2, grid256.ncells))
    k = CatalystSpec(kind="bump", k0=1.0).values(grid256, 1.0)
    ts = tilt(grid256, 1.0, ones, k, weight_fields(ref_params, grid256),
              1.0, 1.0)
    assert ts.norm2() == 0.0
    assert np.all(ts.v == 0.0)
    assert sym_form(ts) == antisym_form(ts) == 0.0


def test_tilt_source_antisymmetry(ref_run, ref_params):
    ts = _tilt_mid(ref_run, ref_params)
    assert np.array_equal(ts.v[1], -ts.v[0])
    assert np.array_equal(ts.v[2], ts.v[0])
    assert np.array_equal(ts.v[3], -ts.v[0])


def test_tilt_component_reconstruction(ref_run, ref_params):
    """The negative-weight components are the positive ones re-tilted by
    the difference of the exponents (which is -2*s*psi/Gamma)."""
    ts = _tilt_mid(ref_run, ref_params)
    expect3 = ts.f[0] * np.exp(0.5 * (ts.Phi[2] - ts.Phi[0]))
    assert np.allclose(ts.f[2], expect3, rtol=1e-12, atol=1e-300)


def test_pair_norm_sandwich(ref_run, ref_params):
    """||(f1,f2)||^2 <= ||f||^2 <= 2*||(f1,f2)||^2 since the second
    exponent never exceeds the first."""
    ts = _tilt_mid(ref_run, ref_params)
    n_pair = integrate(ref_run.grid, ts.f[0] ** 2) \
        + integrate(ref_run.grid, ts.f[1] ** 2)
    n_all = ts.norm2()
    assert n_pair <= n_all <= 2 * n_pair * (1 + 1e-12)


def test_tilt_rejects_time_outside_window(grid256, ref_params):
    ones = np.ones((2, grid256.ncells))
    k = CatalystSpec(kind="bump", k0=1.0).values(grid256, 11.0)
    with pytest.raises(ValueError):
        tilt(grid256, 11.0, ones, k, weight_fields(ref_params, grid256),
             1.0, 1.0)


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------

def test_sym_form_nonnegative_for_small_tilt(ref_run):
    p = WeightParams(x0_abs=0.25, r=0.1, s=1e-4, h=0.1, T=10.0, dim=1)
    ts = _tilt_mid(ref_run, p)
    assert sym_form(ts) >= -1e-15


def test_sym_form_two_assemblies_agree(ref_run, ref_params):
    ts = _tilt_mid(ref_run, ref_params)
    a = sym_form(ts)
    b = sym_form_direct(ts)
    scale = max(abs(a), abs(b), ts.norm2())
    dx = ref_run.grid.spacing
    assert abs(a - b) <= 1e3 * dx ** 2 * scale


# ---------------------------------------------------------------------------
# frequency trace
# ---------------------------------------------------------------------------

def _growth_flags(ft, led):
    """The samples that the audit's frequency_growth check counts: N'
    breaks the growth hypothesis with F2 = 2*C1/h^2 (ledger constants)."""
    p = led.params
    return growth_violations(ft.times, ft["N"], led.C0, led.C1,
                             2.0 * led.C1 / p.h ** 2, p.T, p.h).tolist()


def test_frequency_trace_reference_run(ref_run, ref_params, ref_ledger):
    tr = frequency_trace(ref_run, weight_fields(ref_params, ref_run.grid))
    assert _growth_flags(tr, ref_ledger) == []
    assert np.all(np.isfinite(tr["N"]))
    assert np.all(tr["N"] > 0)
    assert np.all(tr["Sff"] >= -1e-12)
    assert np.all(tr["norm2"] > 0)
    # antisymmetric residual vanishes at discretization order at every
    # snapshot the trace reads, each tilted here
    cfg, wf = ref_run.config, weight_fields(ref_params, ref_run.grid)
    Aff = [antisym_form(tilt(ref_run.grid, *ref_run.snapshot_at(t),
                             cfg.catalyst.values(ref_run.grid, t), wf,
                             cfg.d1, cfg.d2)) for t in tr.times.tolist()]
    dx = ref_run.grid.spacing
    assert np.max(np.abs(Aff)) <= 1e3 * dx ** 2 * np.max(tr["norm2"])


# ---------------------------------------------------------------------------
# the row map against the per-component loop it replaced
# ---------------------------------------------------------------------------

def _per_component_reference(r, params, t, u):
    """Component i = 1..4 takes u1 for odd i, else u2 (and with it d1 or
    d2) and phi1 for i <= 2, else phi3.  Returns the f_i and (Sff, Aff, F2,
    ||f||^2, source pairing, direct Sff), each formed as the loop did."""
    grid, cfg = r.grid, r.config
    wf = weight_fields(params, grid)
    s, gam = params.s, params.gamma(t)
    u1, u2 = u - 1.0
    v1 = cfg.catalyst.values(grid, t) * (u1 + u2 + 2.0) * (u2 - u1)
    gpsi_b = PsiJet(params, grid.bface_mid).grad
    dn_psi = np.sum(gpsi_b * grid.bface_normal, axis=1)
    f, Phi, comp = {}, {}, {}
    Sff = Aff = F2 = direct = 0.0
    for i in (1, 2, 3, 4):
        ui, vi, d = (u1, v1, cfg.d1) if i in (1, 3) else (u2, -v1, cfg.d2)
        phi, sign = (wf.phi1, 1.0) if i in (1, 2) else (wf.phi3, -1.0)
        comp[i] = (ui, vi)
        Phi[i] = s * phi / gam
        fi = f[i] = ui * np.exp(0.5 * Phi[i])
        eta = s / gam ** 2 * (-0.5 * np.abs(phi)
                              + 0.25 * d * s * wf.grad_sq)
        Sff += d * dirichlet_energy(grid, fi) - integrate(grid, eta * fi * fi)
        gphi = (sign * s / gam) * wf.grad
        adv = -d * np.sum(gphi * cell_gradient(grid, fi), axis=1) \
            - 0.5 * d * ((sign * s / gam) * wf.lap) * fi
        Aff += integrate(grid, adv * fi)
        F2 += integrate(grid, vi ** 2 * np.exp(Phi[i]))
        if grid.dim == 1:
            f_b = 1.5 * fi[grid.bface_cell] \
                - 0.5 * fi[np.array([1, grid.ncells - 2])]
        else:
            f_b = fi[grid.bface_cell]
        dn_phi = sign * (s / gam) * dn_psi
        boundary = float(np.sum(grid.bface_area * 0.5 * dn_phi * f_b * f_b))
        direct += d * (dirichlet_energy(grid, fi) - boundary) \
            - integrate(grid, eta * fi * fi)
    n2 = sum(integrate(grid, f[i] ** 2) for i in (1, 2, 3, 4))
    fdf = sum(integrate(grid, comp[i][1] * comp[i][0] * np.exp(Phi[i]))
              for i in (1, 2, 3, 4))
    return f, (Sff, Aff, F2, n2, fdf, direct)


@pytest.fixture(scope="module")
def disk_unequal_diffusivities():
    """A 2-D n=16 run with d1 != d2, and its weight parameters."""
    r = run(SimConfig(dim=2, resolution=16, d1=0.7, d2=1.3,
                      catalyst=CatalystSpec(kind="bump", k0=1.0, x0=0.25,
                                            r=0.1),
                      t_end=1.0, record_stride=0.05, field_stride=0.25))
    return r, WeightParams(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=1.0, dim=2)


@pytest.mark.parametrize("case", ["ref1d", "disk16_unequal_d"])
def test_row_map_bitwise_equals_per_component_loop(
        case, ref_run, ref_params, disk_unequal_diffusivities):
    """f, Sff, Aff, F2, ||f||^2, the source pairing and the direct Sff at
    every snapshot of the frequency trace equal the per-component loop
    bit for bit: the trace's channels as it returns them, Aff and the
    direct Sff from each snapshot tilted here."""
    r, params = (ref_run, ref_params) if case == "ref1d" \
        else disk_unequal_diffusivities
    cfg, wf = r.config, weight_fields(params, r.grid)
    ft = frequency_trace(r, wf)
    assert ft.times.size >= 5
    ref = []
    for t in ft.times.tolist():
        t, u = r.snapshot_at(t)
        f, scalars = _per_component_reference(r, params, t, u)
        ts = tilt(r.grid, t, u, cfg.catalyst.values(r.grid, t), wf, cfg.d1,
                  cfg.d2)
        for row in range(4):
            assert np.array_equal(ts.f[row], f[row + 1])
        Sff, Aff, F2, n2, fdf, direct = scalars
        assert antisym_form(ts) == Aff
        assert sym_form_direct(ts) == direct
        ref.append((Sff, F2, n2, fdf))
    for name, want in zip(("Sff", "F2", "norm2", "Fdotf"), np.array(ref).T):
        assert np.array_equal(ft[name], want)


# ---------------------------------------------------------------------------
# three-time interpolation check
# ---------------------------------------------------------------------------

def _interp_input(y, N, **kw):
    t = np.linspace(0.0, 1.0, 201)
    base = dict(times=t, y=y(t), N=N(t), F1=np.zeros_like(t),
                F2=np.zeros_like(t), C0=0.0, C1=0.0, h=0.1, T=1.0,
                t1=0.2, t2=0.5, t3=0.8)
    base.update(kw)
    return InterpInput(**base)


def test_interp_closed_form_oracle():
    out = interp_check(_interp_input(lambda t: np.exp(-t),
                                     lambda t: np.full_like(t, 0.5)))
    assert out["M"] == pytest.approx(M_ORACLE, rel=1e-12)
    assert out["D"] == 0.0
    assert out["hypothesis_violations"] == []
    assert out["conclusion_margin"] == pytest.approx(MARGIN_ORACLE,
                                                     rel=1e-12)
    assert out["pass"]


def _closed_form_M(C0, C1, s1, s2, s3):
    """3*I(t2, t3)/I(t1, t2) for I(a, b) = int_a^b exp(C1*t) s^(-1-C0) dt,
    s = T - t + h, from the antiderivative; s_i = T - t_i + h."""
    with mp.workdps(40):
        s1, s2, s3 = (mp.mpf(x) for x in (s1, s2, s3))
        if C1 == 0:          # [s^(-C0)/C0] between the ends
            def prim(s):
                return s ** -C0 / C0
        else:                # C0 = 0: exp(C1*(T+h)) * [-E1(C1*s)]
            def prim(s):
                return -mp.e1(C1 * s)
        return float(3 * (prim(s3) - prim(s2)) / (prim(s2) - prim(s1)))


@pytest.mark.parametrize("C0,C1,t3", [(0.5, 0.0, 1.0), (0.5, 0.0, 0.8),
                                      (0.0, 3.0, 0.8), (0.0, 3.0, 1.0)])
def test_interp_exponent_and_margin_closed_forms(C0, C1, t3):
    """M from the ledger's time integral matches the antiderivative, also
    with t3 < T and no exponential factor (C1 = 0).  With y = exp(-t) and zero
    sources, D = 3*(1+M)*(t3-t1)*C1 and the margin is
    D + 3*C0*(1+M)*ln(s1/s3) - t3 - M*t1 + (1+M)*t2."""
    out = interp_check(_interp_input(lambda t: np.exp(-t),
                                     lambda t: np.full_like(t, 0.5),
                                     C0=C0, C1=C1, t3=t3))
    t1, t2 = 0.2, 0.5
    s1, s2, s3 = (1.0 - t + 0.1 for t in (t1, t2, t3))
    M = _closed_form_M(C0, C1, s1, s2, s3)
    D = 3 * (1 + M) * (t3 - t1) * C1
    margin = (D + 3 * C0 * (1 + M) * math.log(s1 / s3)
              - t3 - M * t1 + (1 + M) * t2)
    assert out["M"] == pytest.approx(M, rel=1e-12)
    assert out["D"] == pytest.approx(D, rel=1e-12)
    assert out["conclusion_margin"] == pytest.approx(margin, rel=1e-12)


def test_interp_growth_hypothesis_oracle():
    """N = t, C0 = C1 = 0, F2 = 1/2, T = 1, h = 0.1: the growth bound
    t/(1.1-t) + 1/2 is below N' = 1 exactly for t < 1.1/3."""
    t = np.linspace(0.0, 1.0, 201)
    out = interp_check(_interp_input(lambda t: np.zeros_like(t),
                                     lambda t: t,
                                     F2=np.full_like(t, 0.5)))
    assert out["hypothesis_violations"] == t[t < 1.1 / 3].tolist()


def _ln_time_integral_reference(C0, C1, T, h, a, b):
    """log int_a^b exp(C1*t) (T-t+h)^(-1-C0) dt by mp.quad in t, with the
    integrand scaled by its value at b, where it peaks within ~1/C1, and
    breakpoints closing in on b by factors of 10."""
    with mp.workdps(40):
        C0, C1, T, h, a, b = (mp.mpf(x) for x in (C0, C1, T, h, a, b))

        def f(t):
            return mp.exp(C1 * (t - b)) * ((T - t + h) / (T - b + h)) \
                ** (-1 - C0)

        pts = [b - (b - a) * mp.mpf(10) ** -k for k in range(12)] + [b]
        return (mp.log(mp.quad(f, pts)) + C1 * b
                - (1 + C0) * mp.log(T - b + h))


def test_interp_exponent_with_ledger_constants(ref_ledger):
    """The exponent M at the ledger's (C0, C1) and the window of the
    acceptance run matches an independent quadrature in t: ln M to 1e-12
    absolute, i.e. M to 1e-12 relative (M itself, about e^5674, leaves
    double range)."""
    C0, C1 = ref_ledger.C0, ref_ledger.C1
    T, h, t1, t2, t3 = 2.0, 0.1, 0.5, 1.0, 1.5
    t = np.linspace(0.0, T, 41)
    zeros = np.zeros_like(t)
    out = interp_check(InterpInput(
        times=t, y=np.exp(-t), N=np.full_like(t, 0.5), F1=zeros, F2=zeros,
        C0=C0, C1=C1, h=h, T=T, t1=t1, t2=t2, t3=t3))
    with mp.workdps(40):
        ln_M = (mp.log(3)
                + _ln_time_integral_reference(C0, C1, T, h, t2, t3)
                - _ln_time_integral_reference(C0, C1, T, h, t1, t2))
        assert ln_M > 700
        assert abs(mp.mpf(out["log_M"]) - ln_M) < 1e-12


def test_frequency_flags_are_interp_growth_violations(ref_run, ref_params,
                                                      ref_ledger):
    """The audit's frequency_growth check counts exactly the samples where
    interp_check finds the growth hypothesis broken with F2 = 2*C1/h^2.
    The stub constants are chosen so that some samples are flagged and
    some are not, and half the F2 flags more of them; y = 0 keeps the
    first hypothesis out of the violations.  On the reference run the
    full audit's margin is minus the count with the ledger's constants."""
    led = SimpleNamespace(C0=-0.99, C1=3e-6, s2=0.0, params=ref_params)
    ft = frequency_trace(ref_run, weight_fields(ref_params, ref_run.grid))
    flags = _growth_flags(ft, led)
    assert 0 < len(flags) < ft.times.size
    h, T = ref_params.h, ref_params.T
    zeros = np.zeros_like(ft.times)
    out = interp_check(InterpInput(
        times=ft.times, y=zeros, N=ft["N"], F1=zeros,
        F2=np.full_like(ft.times, 2.0 * led.C1 / h ** 2),
        C0=led.C0, C1=led.C1, h=h, T=T, t1=1.0, t2=2.0, t3=3.0))
    assert out["hypothesis_violations"] == flags
    growth = _frequency_trace_checks(
        ref_run, weight_fields(ref_params, ref_run.grid), led)[0]
    assert growth.invariant_id == "frequency_growth"
    assert growth.margin == -len(flags)
    margins = {e["invariant_id"]: e["margin"]
               for e in audit(ref_run, ref_ledger)}
    assert margins["frequency_growth"] == -len(_growth_flags(ft, ref_ledger))


def test_interp_constant_data_margin_zero():
    out = interp_check(_interp_input(lambda t: np.ones_like(t),
                                     lambda t: np.zeros_like(t)))
    assert out["hypothesis_violations"] == []
    assert out["conclusion_margin"] == pytest.approx(0.0, abs=1e-9)
    assert out["pass"]


def test_interp_detects_hypothesis_violation():
    out = interp_check(_interp_input(lambda t: np.exp(10 * t),
                                     lambda t: np.full_like(t, 0.5)))
    assert out["hypothesis_violations"] != []
    assert not out["pass"]


@pytest.mark.parametrize("n", [0, 2])
def test_interp_input_needs_three_samples(n):
    """Fewer than 3 samples, which the second-order one-sided derivative
    ends need, is a ConfigError naming t, not an IndexError."""
    t = np.linspace(0, 1, n)
    with pytest.raises(ConfigError, match="t needs at least 3 samples"):
        InterpInput(times=t, y=np.ones(n), N=np.zeros(n), F1=np.zeros(n),
                    F2=np.zeros(n), C0=0.0, C1=0.0, h=0.1, T=1.0, t1=0.2,
                    t2=0.5, t3=0.8)


def test_interp_input_validation():
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        InterpInput(times=t, y=np.ones(10), N=np.zeros(11),
                    F1=np.zeros(11), F2=np.zeros(11), C0=0.0, C1=0.0,
                    h=0.1, T=1.0, t1=0.2, t2=0.5, t3=0.8)
    with pytest.raises(ValueError):
        InterpInput(times=t, y=np.ones(11), N=np.zeros(11),
                    F1=np.zeros(11), F2=np.zeros(11), C0=0.0, C1=0.0,
                    h=0.1, T=1.0, t1=0.8, t2=0.5, t3=0.2)


# ---------------------------------------------------------------------------
# source/cubic bounds and observation estimate
# ---------------------------------------------------------------------------

def test_source_bound_holds_and_detects(ref_run, ref_ledger):
    assert check_source_bound(ref_run, ref_ledger.K0) >= 0.0
    assert check_source_bound(ref_run, 1e-9) < -1e-12


def test_cubic_bound_holds(ref_run, ref_ledger):
    assert check_cubic_bound(ref_run, ref_ledger.K0) >= 0.0


def test_observation_estimate_reference(ref_run, ref_params, ref_ledger):
    out = observation_estimate_check(ref_run, ref_ledger)
    assert out.invariant_id == "observation_estimate"
    assert out.passed and out.margin > 0


def test_observation_estimate_decayed_convention(grid256, ref_params):
    """A run sitting exactly at equilibrium reports margin 0 by
    convention (the estimate is vacuous when the distance vanishes)."""
    from degenrd.diagnostics import TraceSeries
    from degenrd.solver import RunResult
    cfg = SimConfig(dim=1, resolution=256,
                    catalyst=CatalystSpec(kind="bump", k0=1.0, x0=0.25,
                                          r=0.1),
                    initial=InitialSpec(kind="constant"),
                    t_end=10.0, record_stride=0.05, field_stride=0.25)
    times = np.arange(0.0, 10.0 + 1e-12, 0.25)
    snaps = np.ones((times.size, 2, grid256.ncells))
    trace = TraceSeries(times=times,
                        channels={"u_l3_max": np.zeros_like(times),
                                  "l2_dist": np.zeros_like(times)})
    r = RunResult(config=cfg, grid=grid256, trace=trace,
                  snapshot_times=times, snapshots=snaps, dt=1e-3)
    led_stub = type("L", (), {"K0": 32.0, "M": 1.0, "c": 2.0,
                              "params": ref_params})()
    out = observation_estimate_check(r, led_stub)
    assert out.margin == 0.0 and out.passed


def _pair_norm2(grid, a, b):
    """The per-snapshot recomputation that the trace's `l2_dist` replaced."""
    u1, u2 = a - 1.0, b - 1.0
    return integrate(grid, u1 * u1 + u2 * u2)


def test_trace_l2_dist_equals_snapshot_pair_norm(ref_run):
    """The checks read ||u||^2 from the trace; at every snapshot time it is
    the recomputed norm bit for bit (1-D reference run and a 2-D run)."""
    disk = run(SimConfig(dim=2, resolution=16, t_end=0.5,
                         record_stride=0.05, field_stride=0.1))
    for r in (ref_run, disk):
        tr = r.trace
        assert len(r.snapshots) > 2
        for t, (a, b) in zip(r.snapshot_times, r.snapshots):
            assert tr["l2_dist"][tr.index_at(t)] == _pair_norm2(r.grid, a, b)


def test_observation_estimate_uses_the_weights_ball():
    """With catalyst ball r = 0.025 and weights ball r = 0.1 the estimate's
    ball norm is over the weights' ball, not the trace's `l2_ball`."""
    r = run(SimConfig(dim=1, resolution=256,
                      catalyst=CatalystSpec(kind="bump", k0=1.0, x0=0.25,
                                            r=0.025),
                      t_end=1.0, record_stride=0.05, field_stride=0.25))
    params = WeightParams(x0_abs=0.25, r=0.1, s=0.5, h=0.1, T=1.0, dim=1)
    led = type("L", (), {"K0": 32.0, "M": mp.mpf(2), "c": mp.mpf(1),
                         "params": params})()
    out = observation_estimate_check(r, led)

    _, (aT, bT) = r.snapshot_at(1.0)
    usq = (aT - 1.0) ** 2 + (bT - 1.0) ** 2
    ball = np.abs(r.grid.centers[:, 0] - 0.25) <= 0.1
    y_ball = float(np.dot(r.grid.volumes[ball], usq[ball]))
    tr = r.trace
    y0, yT = tr["l2_dist"][0], tr["l2_dist"][-1]

    def margin(yB):
        with mp.workdps(DPS):
            return float(led.c * 2 + mp.log(yB) + led.M * mp.log(y0)
                         - (1 + led.M) * mp.log(yT))

    assert out.margin == pytest.approx(margin(y_ball), rel=1e-12)
    # the trace's catalyst-ball norm would move the margin far outside that
    assert abs(margin(tr["l2_ball"][-1]) - margin(y_ball)) > 0.1


def test_interpolation_window_check_reference(ref_run, ref_params,
                                              ref_ledger):
    out = interpolation_window_check(
        ref_run, weight_fields(ref_params, ref_run.grid), ref_ledger)
    assert out.invariant_id == "interpolation_window"
    assert out.passed and out.margin > 0


# ---------------------------------------------------------------------------
# tilted norms of the interpolation window against a per-cell mpf reference
# ---------------------------------------------------------------------------

def _logsumexp(values):
    """log of a sum of exponentials for an iterable of mpf logs."""
    vals = [mp.mpf(v) for v in values]
    if not vals:
        return mp.mpf("-inf")
    top = max(vals)
    if not mp.isfinite(top):
        return top
    acc = mp.mpf(0)
    for v in vals:
        d = v - top
        if d > -mp.mpf(10) ** 6:
            acc += mp.e ** d
    return top + mp.log(acc)


def _ln_tilted_norm2_percell(grid, rows_u, rows_phi, coef):
    """Reference: every cell's ln(V*u^2) + coef*phi formed in mpf."""
    terms = []
    for (u, phi) in zip(rows_u, rows_phi):
        for j in range(grid.ncells):
            w = grid.volumes[j] * u[j] * u[j]
            if w > 0:
                terms.append(mp.log(mp.mpf(w)) + coef * mp.mpf(phi[j]))
    return _logsumexp(terms)


def _assert_matches_reference(args):
    """Equal as mpf when the log leaves double range (the float log-sum is
    then below the digits of the shift coef*phi_top), else within 1e-15."""
    got = logconv._ln_tilted_norm2(*args)
    want = _ln_tilted_norm2_percell(*args)
    if math.isinf(float(want)):
        assert got == want
    else:
        assert abs(got - want) <= 1e-15 * abs(want)


def test_window_norms_match_percell_reference(ref_run, ref_params,
                                              ref_ledger, monkeypatch):
    calls = []
    fast = logconv._ln_tilted_norm2

    def record(*args):
        calls.append(args)
        return fast(*args)

    monkeypatch.setattr(logconv, "_ln_tilted_norm2", record)
    interpolation_window_check(
        ref_run, weight_fields(ref_params, ref_run.grid), ref_ledger)
    monkeypatch.undo()
    assert [len(c[1]) for c in calls] == [4, 2] * 3
    huge = [math.isinf(float(c[3])) for c in calls]
    assert any(huge) and not all(huge)      # both coef regimes are exercised
    with mp.workdps(DPS):
        for args in calls:
            _assert_matches_reference(args)


def _edge_case_data(grid256):
    rng = np.random.default_rng(11)
    n = grid256.ncells
    return rng.uniform(0.1, 1.0, n), rng.uniform(-1.0, -0.1, n), \
        np.full(n, -1.0), np.full(n, -2.0)


def _four_rows(u1, u2, phi1, phi3):
    """The (u, phi) row stacks of the four components."""
    return np.array([u1, u2, u1, u2]), np.array([phi1, phi1, phi3, phi3])


def test_tilted_norm_zero_state_is_minus_inf(grid256):
    z = np.zeros(grid256.ncells)
    u, phi = _four_rows(z, z, *_edge_case_data(grid256)[2:])
    for coef in (mp.mpf(3), mp.mpf(10) ** 400):
        assert logconv._ln_tilted_norm2(grid256, u, phi, coef) \
            == mp.mpf("-inf")


def test_tilted_norm_tied_maxima_huge_coef(grid256):
    """Two cells share the top exponent 0; under coef = 1e400 only they
    count, and both do (no inf*0)."""
    u1, u2, phi1, phi3 = _edge_case_data(grid256)
    tied = [10, 200]
    phi1[tied] = 0.0
    u, phi = _four_rows(u1, u2, phi1, phi3)
    coef = mp.mpf(10) ** 400
    V = grid256.volumes
    expect = math.log(sum(V[j] * (u1[j] ** 2 + u2[j] ** 2) for j in tied))
    with mp.workdps(DPS):
        got = logconv._ln_tilted_norm2(grid256, u, phi, coef)
        assert abs(got - expect) <= 1e-15 * abs(expect)
        for rows in (4, 2):
            _assert_matches_reference((grid256, u[:rows], phi[:rows], coef))
        phi[:2, tied] = -0.5                 # shift out of the mpf digits
        _assert_matches_reference((grid256, u, phi, coef))


def test_tilted_norm_skips_zero_cells(grid256):
    """A cell with u1 = u2 = 0 adds nothing, even at the top exponent."""
    u1, u2, phi1, phi3 = _edge_case_data(grid256)
    u1[5] = u2[5] = 0.0
    u, phi = _four_rows(u1, u2, phi1, phi3)
    with mp.workdps(DPS):
        for coef in (mp.mpf(3), mp.mpf(10) ** 400):
            args = (grid256, u, phi, coef)
            base = logconv._ln_tilted_norm2(*args)
            _assert_matches_reference(args)
            phi[:2, 5] = 0.0                 # the zero cell now tops phi1
            assert logconv._ln_tilted_norm2(*args) == base
            _assert_matches_reference(args)
            phi[:2, 5] = -1.0
