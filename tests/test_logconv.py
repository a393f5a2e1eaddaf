"""Tilting, quadratic forms, frequency trace, and the three-time lemma.

Frozen oracle for the sampled interpolation check (hand-derived):
with y(t) = exp(-t), flat frequency 1/2, zero drift constants, horizon 1,
offset 0.1 and times (0.2, 0.5, 0.8):
  * exponent M = 3*ln 2 / ln 1.5 = 5.128533953063608;
  * drift term D = 0;
  * conclusion margin = 0.3*(M - 1) = 1.2385601859190818.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from degenrd import logconv
from degenrd._xmath import DPS, logsumexp
from degenrd.grid import Field, integrate
from degenrd.logconv import (InterpInput, check_cubic_bound,
                             check_source_bound, frequency_trace,
                             interp_check, interpolation_window_check,
                             observation_estimate_check, quadratic_forms,
                             sym_form_direct, tilt)
from degenrd.solver import CatalystSpec, InitialSpec, SimConfig, StatePair, run
from degenrd.weights import WeightParams

M_ORACLE = 5.128533953063608
MARGIN_ORACLE = 1.2385601859190818


def _mid_state(ref_run):
    t, a, b = ref_run.snapshot_at(5.0)
    return StatePair(Field(ref_run.grid, a), Field(ref_run.grid, b), t)


# ---------------------------------------------------------------------------
# tilting
# ---------------------------------------------------------------------------

def test_tilt_equilibrium_is_zero(grid256, ref_params):
    ones = np.ones(grid256.ncells)
    st = StatePair(Field(grid256, ones), Field(grid256, ones), 1.0)
    ts = tilt(st, ref_params, CatalystSpec(kind="bump", k0=1.0))
    assert ts.norm2() == 0.0
    assert np.all(ts.v1 == 0.0)
    Sff, Aff, F2 = quadratic_forms(ts, 1.0, 1.0)
    assert Sff == Aff == F2 == 0.0


def test_tilt_source_antisymmetry(ref_run, ref_params):
    ts = tilt(_mid_state(ref_run), ref_params, ref_run.config.catalyst)
    assert np.array_equal(ts.v(2), -ts.v(1))
    assert np.array_equal(ts.v(3), ts.v(1))
    assert np.array_equal(ts.v(4), -ts.v(1))


def test_tilt_component_reconstruction(ref_run, ref_params):
    """The negative-weight components are the positive ones re-tilted by
    the difference of the exponents (which is -2*s*psi/Gamma)."""
    ts = tilt(_mid_state(ref_run), ref_params, ref_run.config.catalyst)
    expect3 = ts.f[1] * np.exp(0.5 * (ts.Phi(3) - ts.Phi(1)))
    assert np.allclose(ts.f[3], expect3, rtol=1e-12, atol=1e-300)


def test_pair_norm_sandwich(ref_run, ref_params):
    """||(f1,f2)||^2 <= ||f||^2 <= 2*||(f1,f2)||^2 since the second
    exponent never exceeds the first."""
    ts = tilt(_mid_state(ref_run), ref_params, ref_run.config.catalyst)
    n_pair, n_all = ts.norm2_pair(), ts.norm2()
    assert n_pair <= n_all <= 2 * n_pair * (1 + 1e-12)


def test_tilt_rejects_time_outside_window(grid256, ref_params):
    ones = np.ones(grid256.ncells)
    st = StatePair(Field(grid256, ones), Field(grid256, ones), 11.0)
    with pytest.raises(ValueError):
        tilt(st, ref_params, CatalystSpec(kind="bump", k0=1.0))


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------

def test_sym_form_nonnegative_for_small_tilt(ref_run):
    p = WeightParams(x0_abs=0.25, r=0.1, s=1e-4, h=0.1, T=10.0, dim=1)
    ts = tilt(_mid_state(ref_run), p, ref_run.config.catalyst)
    Sff, _, _ = quadratic_forms(ts, 1.0, 1.0)
    assert Sff >= -1e-15


def test_sym_form_two_assemblies_agree(ref_run, ref_params):
    ts = tilt(_mid_state(ref_run), ref_params, ref_run.config.catalyst)
    a = quadratic_forms(ts, 1.0, 1.0)[0]
    b = sym_form_direct(ts, 1.0, 1.0)
    scale = max(abs(a), abs(b), ts.norm2())
    dx = ref_run.grid.spacing
    assert abs(a - b) <= 1e3 * dx ** 2 * scale


# ---------------------------------------------------------------------------
# frequency trace
# ---------------------------------------------------------------------------

def test_frequency_trace_reference_run(ref_run, ref_params, ref_ledger):
    tr = frequency_trace(ref_run, ref_params, ref_ledger)
    assert tr.gaps == [] and tr.flags == []
    assert np.all(np.isfinite(tr.N_values))
    assert np.all(tr.N_values > 0)
    assert np.all(tr.Sff_values >= -1e-12)
    assert np.all(tr.norm2_values > 0)
    # antisymmetric residual vanishes at discretization order
    dx = ref_run.grid.spacing
    assert np.max(np.abs(tr.Aff_values)) \
        <= 1e3 * dx ** 2 * np.max(tr.norm2_values)


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
    assert out["M"] == pytest.approx(M_ORACLE, rel=1e-10)
    assert out["D"] == 0.0
    assert out["hypothesis_violations"] == []
    assert out["conclusion_margin"] == pytest.approx(MARGIN_ORACLE,
                                                     rel=1e-10)
    assert out["pass"]


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
    with pytest.raises(ValueError):
        check_source_bound(ref_run, 1e-9)


def test_cubic_bound_holds(ref_run, ref_ledger):
    assert check_cubic_bound(ref_run, ref_ledger.K0) >= 0.0


def test_observation_estimate_reference(ref_run, ref_params, ref_ledger):
    out = observation_estimate_check(ref_run, ref_params, ref_ledger,
                                     window_pairs=[(1.0, 6.0), (2.0, 9.0)])
    assert out["pass"]
    assert out["margin"] > 0
    assert all(v > 0 for v in out["window_margins"].values())


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
    ones = np.ones(grid256.ncells)
    times = np.arange(0.0, 10.0 + 1e-12, 0.25)
    snaps = [(float(t), ones.copy(), ones.copy()) for t in times]
    trace = TraceSeries(times=times,
                        channels={"u_l3_max": np.zeros_like(times)})
    r = RunResult(config=cfg, grid=grid256, trace=trace,
                  snapshots=snaps, B0=1.0, dt=1e-3)
    led_stub = type("L", (), {"K0": 32.0, "M": 1.0, "c": 2.0})()
    out = observation_estimate_check(r, ref_params, led_stub)
    assert out["margin"] == 0.0 and out["pass"]


def test_interpolation_window_check_reference(ref_run, ref_params,
                                              ref_ledger):
    out = interpolation_window_check(ref_run, ref_params, ref_ledger)
    assert out["pass"]
    assert out["untilting_margin"] > 0


# ---------------------------------------------------------------------------
# tilted norms of the interpolation window against a per-cell mpf reference
# ---------------------------------------------------------------------------

def _ln_tilted_norm2_percell(grid, u1, u2, phi1, phi3, coef,
                             four_components):
    """Reference: every cell's ln(V*u^2) + coef*phi formed in mpf."""
    terms = []
    comps = [(u1, phi1), (u2, phi1)]
    if four_components:
        comps += [(u1, phi3), (u2, phi3)]
    for (u, phi) in comps:
        for j in range(grid.ncells):
            w = grid.volumes[j] * u[j] * u[j]
            if w > 0:
                terms.append(mp.log(mp.mpf(w)) + coef * mp.mpf(phi[j]))
    return logsumexp(terms)


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
    interpolation_window_check(ref_run, ref_params, ref_ledger)
    monkeypatch.undo()
    assert [c[6] for c in calls] == [True, False] * 3
    huge = [math.isinf(float(c[5])) for c in calls]
    assert any(huge) and not all(huge)      # both coef regimes are exercised
    with mp.workdps(DPS):
        for args in calls:
            _assert_matches_reference(args)


def _edge_case_data(grid256):
    rng = np.random.default_rng(11)
    n = grid256.ncells
    return rng.uniform(0.1, 1.0, n), rng.uniform(-1.0, -0.1, n), \
        np.full(n, -1.0), np.full(n, -2.0)


def test_tilted_norm_zero_state_is_minus_inf(grid256):
    z = np.zeros(grid256.ncells)
    _, _, phi1, phi3 = _edge_case_data(grid256)
    for coef in (mp.mpf(3), mp.mpf(10) ** 400):
        assert logconv._ln_tilted_norm2(grid256, z, z, phi1, phi3, coef,
                                        True) == mp.mpf("-inf")


def test_tilted_norm_tied_maxima_huge_coef(grid256):
    """Two cells share the top exponent 0; under coef = 1e400 only they
    count, and both do (no inf*0)."""
    u1, u2, phi1, phi3 = _edge_case_data(grid256)
    tied = [10, 200]
    phi1[tied] = 0.0
    coef = mp.mpf(10) ** 400
    V = grid256.volumes
    expect = math.log(sum(V[j] * (u1[j] ** 2 + u2[j] ** 2) for j in tied))
    with mp.workdps(DPS):
        got = logconv._ln_tilted_norm2(grid256, u1, u2, phi1, phi3, coef,
                                       True)
        assert abs(got - expect) <= 1e-15 * abs(expect)
        for four in (True, False):
            _assert_matches_reference(
                (grid256, u1, u2, phi1, phi3, coef, four))
        phi1[tied] = -0.5                    # shift out of the mpf digits
        _assert_matches_reference((grid256, u1, u2, phi1, phi3, coef, True))


def test_tilted_norm_skips_zero_cells(grid256):
    """A cell with u1 = u2 = 0 adds nothing, even at the top exponent."""
    u1, u2, phi1, phi3 = _edge_case_data(grid256)
    u1[5] = u2[5] = 0.0
    with mp.workdps(DPS):
        for coef in (mp.mpf(3), mp.mpf(10) ** 400):
            args = (grid256, u1, u2, phi1, phi3, coef, True)
            base = logconv._ln_tilted_norm2(*args)
            _assert_matches_reference(args)
            phi1[5] = 0.0                    # the zero cell now tops phi1
            assert logconv._ln_tilted_norm2(*args) == base
            _assert_matches_reference(args)
            phi1[5] = -1.0
