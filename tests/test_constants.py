"""The explicit-constant chain: oracles, invariants, determinism.

Frozen oracles:
  * data bound at the normalized constant state a0 = b0 = 1 with unit
    catalyst ceiling: cubic integral 2, so the two branches are
    12^(2/3) ~ 5.2415 and 32; the bound is 32, and it quadruples when the
    catalyst ceiling doubles;
  * the flat-interval constant Cp on the 1-D unit-measure interval is the
    reciprocal of the grid's first nonzero zero-flux eigenvalue, which
    converges to 1/pi^2 = 0.10132...;
  * every functional constant of the reference configuration satisfies the
    order and positivity relations used downstream.
"""

import math
import re
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from degenrd.constants import DPS
from degenrd.config import ConfigError
from degenrd.constants import (METHODS, build_ledger, compute_K0,
                               compute_sobolev_constant, ln_time_integral)
from degenrd.grid import build_grid, dirichlet_energy, integrate
from degenrd.solver import CatalystSpec
from degenrd.weights import PsiJet


# ---------------------------------------------------------------------------
# data bound K0
# ---------------------------------------------------------------------------

def test_K0_constant_state_oracle(grid256):
    ones = np.ones(grid256.ncells)
    assert compute_K0(grid256, ones, ones, k_sup=1.0) \
        == pytest.approx(32.0, rel=1e-12)
    # with a tiny catalyst the data branch 12^(2/3) wins
    assert compute_K0(grid256, ones, ones, k_sup=0.1) \
        == pytest.approx(12.0 ** (2.0 / 3.0), rel=1e-12)


def test_K0_quadruples_with_doubled_catalyst(grid256):
    ones = np.ones(grid256.ncells)
    assert compute_K0(grid256, ones, ones, 2.0) \
        == pytest.approx(4 * compute_K0(grid256, ones, ones, 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# flat-interval and embedding constants
# ---------------------------------------------------------------------------

def test_Cp_reference_value(ref_ledger):
    assert ref_ledger.Cp == pytest.approx(1.0 / math.pi ** 2, rel=1e-3)


def test_sobolev_constant_lower_bound_and_random_audit(grid256):
    """1.1 on every grid, the constant field's ratio 1 with the 1.1 factor,
    and no random low-mode field of the 1-D grid exceeds it."""
    for dim, n in ((1, 256), (2, 16), (2, 32)):
        assert compute_sobolev_constant(build_grid(dim, n)) == 1.1
    C = compute_sobolev_constant(grid256)
    assert C >= 1.0  # attained by the constant field on unit measure
    rng = np.random.default_rng(101)
    x = grid256.centers[:, 0]
    for _ in range(50):
        coef = rng.standard_normal(5)
        g = coef[0] + sum(c * np.cos((k + 1) * math.pi * (x + 0.5))
                          for k, c in enumerate(coef[1:]))
        lhs = integrate(grid256, g ** 6) ** (1.0 / 3.0)
        rhs = C * (integrate(grid256, g * g) + dirichlet_energy(grid256, g))
        assert lhs <= rhs * (1 + 1e-10)


# ---------------------------------------------------------------------------
# sampled-derivative constants
# ---------------------------------------------------------------------------

def test_C4_dominates_dense_laplacian_scan(ref_ledger, ref_params):
    pts = np.linspace(-0.4999, 0.4999, 50_001).reshape(-1, 1)
    scan = np.max(np.abs(PsiJet(ref_params, pts).lap))
    assert ref_ledger.C4 >= scan  # 1.05 safety absorbs the finer scan


# ---------------------------------------------------------------------------
# the interpolation lemma's weighted time integral
# ---------------------------------------------------------------------------

def _ln_time_integral_oracle(C0, C1, h, lo, hi):
    """log int_lo^hi exp(-C1*tau) (tau+h)^(-1-C0) dtau by mp.quad of the
    integrand divided by its value at lo, where it peaks, with that log
    added back; breakpoints close in on lo by factors of 10."""
    with mp.workdps(60):
        C0, C1, h, lo, hi = (mp.mpf(x) for x in (C0, C1, h, lo, hi))

        def f(tau):
            return mp.e ** (-C1 * (tau - lo)) \
                * ((tau + h) / (lo + h)) ** (-1 - C0)

        pts = [lo] + [lo + (hi - lo) * mp.mpf(10) ** -k
                      for k in range(8, -1, -1)]
        return mp.log(mp.quad(f, pts)) - C1 * lo - (1 + C0) * mp.log(lo + h)


@pytest.mark.parametrize("C0", [0.0, 0.5, 0.99999])
@pytest.mark.parametrize("C1", [1.0, 11348.0])
@pytest.mark.parametrize("h,lo,hi", [(1e-20, 0.25, 0.5), (1e-3, 0.0, 0.3)])
def test_time_integral_matches_rescaled_quadrature(C0, C1, h, lo, hi):
    """The closed form agrees with the rescaled quadrature to 1e-30
    relative, also for the ledger's C1 ~ 11,348, whose unscaled integrand
    (about e^-2837 on [1/4, 1/2]) stops mp.quad's absolute convergence
    test early."""
    with mp.workdps(60):
        got = ln_time_integral(C0, C1, h, lo, hi)
        assert abs(got - _ln_time_integral_oracle(C0, C1, h, lo, hi)) \
            < 1e-30


@pytest.mark.parametrize("C0", [0.0, 0.5, 0.99999, -0.99])
def test_time_integral_without_exponential(C0):
    """C1 = 0: the antiderivative [-(tau+h)^-C0/C0], or ln(tau+h) at
    C0 = 0, between the ends, to 1e-30 relative."""
    h, lo, hi = 0.1, 0.25, 0.5
    with mp.workdps(60):
        a, b = mp.mpf(lo) + mp.mpf(h), mp.mpf(hi) + mp.mpf(h)
        C0m = mp.mpf(C0)
        want = mp.log(b / a) if C0 == 0 else (a ** -C0m - b ** -C0m) / C0m
        got = mp.e ** ln_time_integral(C0, 0.0, h, lo, hi)
        assert abs(got / want - 1) < 1e-30


# ---------------------------------------------------------------------------
# full-chain invariants on the reference ledger
# ---------------------------------------------------------------------------

def test_ledger_order_relations(ref_ledger):
    led = ref_ledger
    assert 0.0 < led.C0 < 1.0
    assert led.C1 >= 1.0
    assert led.s2 <= min(led.s0, led.s1) and led.s2 > 0
    assert led.K0 == pytest.approx(32.0, rel=1e-6)
    assert led.beta1 > 0
    assert led.c > 1 and led.M > 1
    assert led.geometry.mu0 > 0 and led.geometry.mu1 > 0


def test_window_multiplier_admissibility(ref_ledger):
    """The reported multiplier satisfies the selection inequality and the
    exponent M_ell stays under its closed-form bound."""
    led = ref_ledger
    g = led.geometry
    with mp.workdps(60):
        ln_ellp1 = mp.log(led.ell + 1)
        lhs = mp.log(g.mu1) + mp.log(1 + mp.e ** led.ln_M_ell_bound)
        rhs = mp.log(g.mu0 / 2) + ln_ellp1
        assert lhs <= rhs
        assert mp.log(led.M_ell) <= led.ln_M_ell_bound
        assert led.ell > 10 ** 6


def test_chain_keeps_its_bits(ref_ledger):
    """h, M_ell, D_ell and ln K_ell equal, bit for bit, the chain's
    arithmetic written out: J2 in closed form, e^(C1*h) * C1^C0 times the
    difference of the upper incomplete gammas Gamma(-C0, C1*(L+h)) and
    Gamma(-C0, C1*(2L+h)) taken at twice the working precision, the
    dominant-balance J1 (h is far below 1e-8) and the same order of
    operations."""
    led = ref_ledger
    with mp.workdps(60):
        C0, C1, ell = mp.mpf(led.C0), mp.mpf(led.C1), led.ell
        L = min(mp.mpf(1) / 2, mp.mpf(led.T) / 4) / 2
        h = L / ell
        assert h < mp.mpf("1e-8")
        with mp.workprec(2 * mp.mp.prec):
            gam = (mp.gammainc(-C0, C1 * (L + h))
                   - mp.gammainc(-C0, C1 * (2 * L + h)))
        ln_j2 = C1 * h + C0 * mp.log(C1) + mp.log(gam)
        ln_j1 = (-C0 * mp.log(h) - mp.log(C0)
                 + mp.log(1 - (1 + ell) ** -C0))
        M = mp.e ** (mp.log(3) + ln_j1 - ln_j2)
        D = 3 * C1 * (1 + M) * (1 + 2 * ell + 8 * ell ** 2)
        ln_K = D + 3 * C0 * (1 + M) * mp.log(2 * ell + 1)
    assert (led.h_chain, led.M_ell, led.D_ell, led.ln_K_ell) \
        == (h, M, D, ln_K)


def test_decay_certificate_strictness(ref_ledger):
    """theta < 1 and beta > 0 are certified in log form even when the float
    projections round to 1.0 and 0.0."""
    led = ref_ledger
    assert mp.isfinite(led.log_beta) and led.log_beta < 0
    assert led.beta >= 0.0
    assert led.theta <= 1.0
    assert led.gamma >= 1.0
    assert led.theta * led.gamma == pytest.approx(1.0, rel=1e-12)


def test_ledger_serialization_and_determinism(ref_run, ref_params,
                                              ref_ledger):
    import json
    j1 = ref_ledger.as_json()
    json.dumps(j1)
    for name, ent in j1.items():
        assert "provenance" in ent and "value" in ent
    led2 = build_ledger(ref_run.grid, ref_params, ref_run.config,
                        ref_run.snapshots[0])
    assert json.dumps(j1, sort_keys=True) \
        == json.dumps(led2.as_json(), sort_keys=True)


def test_ledger_logs_at_working_precision(ref_ledger):
    """Each printed log of an mpf constant is its log at 60 digits to the
    25 digits printed, not a 15-digit log padded with noise."""
    doc = ref_ledger.as_json()
    with mp.workdps(DPS):
        for name in ("ell", "h_chain", "M_ell", "D_ell", "mu2", "mu3", "c",
                     "M"):
            exact = mp.log(getattr(ref_ledger, name))
            assert abs(mp.mpf(doc[name]["log"]) - exact) \
                <= mp.mpf("1e-24") * abs(exact), name


def test_every_constant_has_provenance(ref_ledger):
    for name, ent in ref_ledger.as_json().items():
        assert ent["provenance"], f"missing provenance for {name}"
        assert ent["method"] in METHODS, name


def test_ledger_methods_and_no_duplicates(ref_ledger):
    """Each entry says how it was produced; the geometry's closed forms
    are not labelled as samples, the sampled entries name the probe
    resolution, and mu0, mu1 and the sample count are not entries of
    their own."""
    doc = ref_ledger.as_json()
    method = {name: ent["method"] for name, ent in doc.items()}
    for name in ("d1", "d2", "k0", "T"):
        assert method[name] == "input", name
    assert method["B0"] == method["Cp"] == "exact"
    assert method["geometry.mu1"] == method["geometry.rho"] == "closed form"
    sampled = {"C_Sob", "C2", "C4", "C6", "s1", "geometry.c01",
               "geometry.c02", "geometry.c1", "geometry.c2", "geometry.c3",
               "geometry.mu0"}
    assert {n for n, m in method.items() if m == "sampled"} == sampled
    probe = str(ref_ledger.geometry.probe_resolution)
    for name in sampled:
        if name.startswith("geometry."):
            assert probe in doc[name]["provenance"], name
    assert not {"mu0", "mu1", "geometry.probe_resolution"} & set(doc)
    assert doc["geometry.mu1"]["value"] == ref_ledger.geometry.mu1


@pytest.mark.parametrize("k_sup,name", [(1e80, "C1"), (1e200, "K0")])
def test_ledger_overflow_names_k_max(ref_run, ref_params, k_sup, name):
    """A catalyst ceiling whose K0 or C1 leaves double range is a config
    error naming catalyst.k_max, not an OverflowError."""
    cfg = replace(ref_run.config,
                  catalyst=replace(ref_run.config.catalyst, k_max=k_sup))
    with pytest.raises(ConfigError, match=rf"catalyst\.k_max.*{name}"):
        build_ledger(ref_run.grid, ref_params, cfg, ref_run.snapshots[0])


@pytest.mark.parametrize("d1,d2,key,name", [
    (1e200, 1.0, "physics.d1", "C3"), (1.0, 2e152, "physics.d2", "C5"),
    (1e150, 1.0, "physics.d1", "C0"), (1e-30, 1.0, "physics.d1", "C0"),
    (1.0, 1e-300, "physics.d2", "C0")])
def test_ledger_overflow_names_the_diffusivity(ref_run, ref_params, d1, d2,
                                               key, name):
    """A diffusivity that drives C3, C5 or C7 out of double range, or
    rounds C0 = 1 - min(d)*s2/(4*c2) to 1, is a config error naming it."""
    cfg = replace(ref_run.config, d1=d1, d2=d2)
    with pytest.raises(ConfigError, match=rf"{re.escape(key)}.*{name}"):
        build_ledger(ref_run.grid, ref_params, cfg, ref_run.snapshots[0])


def test_build_ledger_rejects_zero_catalyst_floor(ref_run, ref_params):
    """build_ledger itself rejects a pure-diffusion catalyst (k0 = 0),
    whose beta1 = max(..., 1/(8*B0*k0)) is undefined, with a config error
    naming catalyst.k0."""
    cfg = replace(ref_run.config,
                  catalyst=CatalystSpec(kind="constant", k0=0.0))
    with pytest.raises(ConfigError, match=r"catalyst\.k0 = 0"):
        build_ledger(ref_run.grid, ref_params, cfg, ref_run.snapshots[0])
