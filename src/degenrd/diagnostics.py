"""Scalar time-series containers, decay-rate fitting, and invariant audits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The tolerances of the conservation, monotonicity and minimum-principle
# checks (the decay and contraction checks reuse l2_monotone), and the
# squared-norm floor.  The other checks pass theirs inline: seven pass
# 1e-9, frequency_growth 0.5 (it counts flags), and energy_identity and
# the two tilted-form residual checks 0.0.
TOLERANCES = {
    "mass": 1e-8,              # |total mass - 2|
    "l2_monotone": 1e-8,       # allowed uptick of the squared L2 distance
    "l3_monotone": 1e-6,       # allowed uptick of the cubic-norm sum
    "min_principle": 1e-6,     # allowed dip of min(a,b) below B0
    "mean_zero": 1e-8,         # |integral of (u1+u2)|
    "norm_floor": 1e-30,       # squared-norm floor below which N(t) is a gap
}


@dataclass
class TraceSeries:
    """Named scalar channels sampled on a strictly increasing time grid."""

    times: np.ndarray
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        self.times = np.asarray(self.times, float)
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for name, ch in self.channels.items():
            ch = np.asarray(ch, float)
            if ch.shape != self.times.shape:
                raise ValueError(f"channel {name!r} length mismatch")
            self.channels[name] = ch

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]

    def index_at(self, t: float) -> int:
        i = nearest_index(self.times, t)
        if i is None:
            raise KeyError(f"no sample near t={t}")
        return i


def nearest_index(times: np.ndarray, t: float) -> int | None:
    """Index of the entry of `times` nearest t; None when it is further
    than 1e-9 + 1e-6*max(1, |t|) from t, or `times` is empty."""
    if not times.size:
        return None
    i = int(np.argmin(np.abs(times - t)))
    return i if abs(times[i] - t) <= 1e-9 + 1e-6 * max(1.0, abs(t)) else None


def fit_decay_rate(series: TraceSeries, channel: str) -> dict:
    """Least-squares exponential-decay fit of a positive channel.

    Fits log(channel) = intercept - rate * t on the run with the first 10%
    transient dropped and returns {rate, intercept, r_squared}.
    """
    t = series.times
    y = series[channel]
    mask = t >= t[0] + 0.1 * (t[-1] - t[0]) - 1e-12
    if np.count_nonzero(mask) < 10:
        raise ValueError("fit window must contain at least 10 samples")
    if np.any(y[mask] <= 0):
        raise ValueError("channel must be positive on the fit window")
    tw, lw = t[mask], np.log(y[mask])
    A = np.column_stack([tw, np.ones_like(tw)])
    sol, *_ = np.linalg.lstsq(A, lw, rcond=None)
    slope, intercept = sol
    pred = A @ sol
    ss_res = float(np.sum((lw - pred) ** 2))
    ss_tot = float(np.sum((lw - np.mean(lw)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"rate": float(-slope), "intercept": float(intercept),
            "r_squared": r2}


def fd_derivative(t: np.ndarray, y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Centered finite-difference derivative of y(t), one-sided at the
    ends, and its pointwise error estimate: the difference from the
    derivative on the twice-coarsened samples (three-point Richardson
    style), floored at rounding scale.  Both are formed in a power-of-two
    time unit near the span of t: dividing by it is exact, and a tiny span
    cannot underflow the spacing products inside `np.gradient`."""
    unit = np.ldexp(1.0, np.frexp(t[-1] - t[0])[1])
    u = t / unit
    d_fine = np.gradient(y, u, edge_order=2)
    est = np.zeros_like(d_fine)
    if t.size >= 7:
        d_coarse = np.gradient(y[::2], u[::2], edge_order=2)
        est = np.abs(np.interp(u, u[::2], d_coarse) - d_fine)
    scale = np.maximum(np.abs(y), np.max(np.abs(y)) * 1e-6)
    dt = np.min(np.diff(t))
    return d_fine / unit, est / unit + 1e-12 * scale / dt + 1e-300


@dataclass
class CheckResult:
    """One audited inequality: margin >= -tolerance means pass."""

    invariant_id: str
    reference: str
    margin: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance

    def as_dict(self) -> dict:
        return {
            "invariant_id": self.invariant_id,
            "reference": self.reference,
            "pass": bool(self.passed),
            "margin": _clamp(self.margin),
            "tolerance": self.tolerance,
        }


def _clamp(x: float) -> float:
    if x == float("inf") or x > 1e300:
        return 1e300
    if x == float("-inf") or x < -1e300:
        return -1e300
    return float(x)


def energy_identity_residuals(series: TraceSeries
                              ) -> tuple[np.ndarray, np.ndarray]:
    """|Residual| of the two-species energy balance at interior samples,
    and its differencing allowance.

    Checks d/dt (||u||^2 / 2) + (gradient dissipation) + (reaction
    dissipation) = 0 by differencing the recorded squared distance e; the
    allowance is half the derivative's error estimate plus the error of
    differencing an exponential at the observed rate, rate^3 * e * dt^2/6.
    """
    t, e = series.times, series["l2_dist"]
    diss = (series["dissipation_grad_a"] + series["dissipation_grad_b"]
            + series["dissipation_reaction"])
    dedt, err = fd_derivative(t, e)
    dt = float(np.min(np.diff(t)))
    rate = 2.0 * diss / np.maximum(e, 1e-30)
    allowance = 0.5 * err + (dt * rate) ** 2 / 6.0 * rate * e
    return np.abs(0.5 * dedt + diss)[1:-1], allowance[1:-1]


def solver_checks(run) -> list[CheckResult]:
    """Conservation/monotonicity/minimum-principle audit of one run."""
    tr, tol = run.trace, TOLERANCES
    out = [
        CheckResult("mass_conservation",
                    "total mass of a+b stays at 2",
                    -float(np.max(np.abs(tr["mass"] - 2.0))), tol["mass"]),
        CheckResult("l2_monotone",
                    "squared L2 distance to equilibrium is nonincreasing",
                    -float(np.max(np.diff(tr["l2_dist"]), initial=0.0)),
                    tol["l2_monotone"]),
        CheckResult("l3_monotone",
                    "cubic-norm sum never exceeds its initial value",
                    -float(np.max(tr["l3_sum"] - tr["l3_sum"][0])),
                    tol["l3_monotone"]),
        CheckResult("min_principle",
                    "cellwise min(a,b) stays above the initial floor",
                    float(np.min(tr["min_ab"]) - run.B0),
                    tol["min_principle"]),
        CheckResult("mean_zero_shift",
                    "integral of (u1+u2) stays zero",
                    -float(np.max(np.abs(tr["mass"] - 2.0))),
                    tol["mean_zero"]),
    ]
    res, allowance = energy_identity_residuals(tr)
    # Tolerance: discretization envelope C*(dt^2 + dx^2) plus the
    # differencing allowance; the refinement tests measure the residual
    # order sharply.
    dt = float(np.min(np.diff(tr.times)))
    scale = max(float(np.max(tr["l2_dist"])), 1e-30)
    budget = 50.0 * scale * (dt ** 2 + run.grid.spacing ** 2)
    out.append(CheckResult(
        "energy_identity",
        "time derivative of the squared distance balances dissipation "
        "(up to discretization and differencing noise)",
        float(np.min(budget + allowance - res)) / scale
        if res.size else 0.0,
        0.0))
    return out
