"""Trace containers, decay-rate fitting, and finite-difference helpers.

Frozen oracles:
  * y(t) = c * exp(-2t) fits with rate exactly 2 and r^2 = 1;
  * a constant channel fits with rate 0;
  * the fitted rate is invariant under scaling of the channel.
"""

import numpy as np
import pytest

from degenrd.diagnostics import (CheckResult, TraceSeries, fd_derivative,
                                 fit_decay_rate)


def _series(t, **chs):
    return TraceSeries(times=np.asarray(t, float),
                       channels={k: np.asarray(v, float)
                                 for k, v in chs.items()})


# ---------------------------------------------------------------------------
# TraceSeries
# ---------------------------------------------------------------------------

def test_series_validation():
    with pytest.raises(ValueError):
        _series([0.0, 1.0, 1.0], y=[1, 2, 3])        # non-increasing
    with pytest.raises(ValueError):
        _series([0.0, 1.0], y=[1, 2, 3])             # length mismatch


def test_series_index_at():
    s = _series(np.linspace(0, 1, 11), y=np.zeros(11))
    assert s.index_at(0.5) == 5
    with pytest.raises(KeyError):
        s.index_at(0.55)


# ---------------------------------------------------------------------------
# decay-rate fitting
# ---------------------------------------------------------------------------

def test_fit_exact_exponential_oracle():
    t = np.linspace(0, 5, 101)
    s = _series(t, y=3.7 * np.exp(-2.0 * t))
    fit = fit_decay_rate(s, "y")
    assert fit["rate"] == pytest.approx(2.0, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["intercept"] == pytest.approx(np.log(3.7), abs=1e-12)


def test_fit_constant_channel_rate_zero():
    t = np.linspace(0, 5, 101)
    fit = fit_decay_rate(_series(t, y=np.full(101, 4.2)), "y")
    assert fit["rate"] == pytest.approx(0.0, abs=1e-13)


def test_fit_scale_invariance():
    t = np.linspace(0, 3, 61)
    y = np.exp(-1.3 * t) * (1 + 0.01 * np.sin(20 * t))
    r1 = fit_decay_rate(_series(t, y=y), "y")["rate"]
    r2 = fit_decay_rate(_series(t, y=1e6 * y), "y")["rate"]
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_fit_window_and_positivity_errors():
    t = np.linspace(0, 1, 51)
    short = _series(t[:10], y=np.exp(-t[:10]))
    with pytest.raises(ValueError):
        fit_decay_rate(short, "y")          # 9 samples past the first 10%
    bad = _series(t, y=np.exp(-t) - 0.5)
    with pytest.raises(ValueError):
        fit_decay_rate(bad, "y")


# ---------------------------------------------------------------------------
# finite-difference derivative and its error estimate
# ---------------------------------------------------------------------------

# The two helpers `fd_derivative` replaced, kept verbatim as its bitwise
# reference: it differences in a power-of-two time unit, which changes no
# rounding.

def centered_derivative(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Centered finite-difference derivative, one-sided at the ends."""
    return np.gradient(y, t, edge_order=2)


def fd_error_estimate(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise error estimate for the centered derivative.

    Compares the full-resolution derivative with one computed on the
    twice-coarsened samples (three-point Richardson style); the difference
    bounds the differencing noise, floored at rounding scale.
    """
    d_fine = centered_derivative(t, y)
    if t.size >= 7:
        d_coarse = centered_derivative(t[::2], y[::2])
        est = np.abs(np.interp(t, t[::2], d_coarse) - d_fine)
    else:
        est = np.zeros_like(d_fine)
    scale = np.maximum(np.abs(y), np.max(np.abs(y)) * 1e-6)
    dt = np.min(np.diff(t))
    return est + 1e-12 * scale / dt + 1e-300


def _assert_matches_reference(t, y):
    dy, err = fd_derivative(t, y)
    assert np.array_equal(dy, centered_derivative(t, y))
    assert np.array_equal(err, fd_error_estimate(t, y))


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 41, 201])
@pytest.mark.parametrize("span", [1e-3, 0.37, 1.0, 10.0, 1e3], ids=str)
@pytest.mark.parametrize("uneven", [False, True], ids=["uniform", "uneven"])
def test_fd_derivative_bitwise_equals_the_two_helpers(n, span, uneven):
    rng = np.random.default_rng(n)
    if uneven:
        steps = rng.uniform(0.2, 1.0, n - 1)
        t = 0.3 * span + span * np.concatenate(
            [[0.0], np.cumsum(steps)]) / steps.sum()
    else:
        t = np.linspace(0.0, span, n)
    y = np.exp(-3.0 * t / span) * (1.0 + 0.1 * rng.standard_normal(n))
    _assert_matches_reference(t, y)


def test_fd_derivative_bitwise_on_a_run_trace(ref_run):
    _assert_matches_reference(ref_run.trace.times, ref_run.trace["l2_dist"])


def test_fd_derivative_is_exact_under_power_of_two_time_scaling():
    """Scaling uneven t by 2**-600 scales the derivative by exactly 2**600;
    the spacing products 2**-1200 would underflow inside np.gradient."""
    t = np.linspace(0.0, 1.0, 41) ** 2
    y = np.cos(3.0 * t)
    dy, _ = fd_derivative(t, y)
    dy_small, err_small = fd_derivative(t * 2.0 ** -600, y)
    assert np.array_equal(dy_small, dy * 2.0 ** 600)
    assert np.all(np.isfinite(err_small))


def test_centered_derivative_quadratic_exact():
    t = np.linspace(0, 1, 41)
    y = 3 * t ** 2 + 2 * t + 1
    d, _ = fd_derivative(t, y)
    assert np.max(np.abs(d - (6 * t + 2))) < 1e-10


def test_fd_error_estimate_bounds_true_error():
    t = np.linspace(0, 2, 201)
    y = np.exp(-3 * t)
    d, est = fd_derivative(t, y)
    true_err = np.abs(d - (-3 * y))
    interior = slice(2, -2)
    assert np.all(true_err[interior] <= 2.0 * est[interior] + 1e-12)
    assert np.all(est > 0)


# ---------------------------------------------------------------------------
# CheckResult
# ---------------------------------------------------------------------------

def test_check_result_pass_semantics():
    ok = CheckResult("x", "unit", margin=0.5, tolerance=1e-8)
    borderline = CheckResult("x", "unit", margin=-5e-9, tolerance=1e-8)
    fail = CheckResult("x", "unit", margin=-1.0, tolerance=1e-8)
    assert ok.passed and borderline.passed and not fail.passed
    d = fail.as_dict()
    assert d["pass"] is False and d["invariant_id"] == "x"


def test_check_result_clamps_infinite_margins():
    d = CheckResult("x", "unit", margin=float("inf"),
                    tolerance=1e-8).as_dict()
    assert d["margin"] == 1e300
    import json
    json.dumps(d)
