"""Trace containers, decay-rate fitting, and finite-difference helpers.

Frozen oracles:
  * y(t) = c * exp(-2t) fits with rate exactly 2 and r^2 = 1;
  * a constant channel fits with rate 0;
  * the fitted rate is invariant under scaling of the channel.
"""

import numpy as np
import pytest

from degenrd.diagnostics import (CheckResult, TraceSeries,
                                 centered_derivative, fd_error_estimate,
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
# finite-difference helpers
# ---------------------------------------------------------------------------

def test_centered_derivative_quadratic_exact():
    t = np.linspace(0, 1, 41)
    y = 3 * t ** 2 + 2 * t + 1
    d = centered_derivative(t, y)
    assert np.max(np.abs(d - (6 * t + 2))) < 1e-10


def test_fd_error_estimate_bounds_true_error():
    t = np.linspace(0, 2, 201)
    y = np.exp(-3 * t)
    d = centered_derivative(t, y)
    est = fd_error_estimate(t, y)
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
