"""Extended-range arithmetic helpers built on mpmath.

The explicit-constant chain multiplies exponentials of sampled bounds; the
intermediate quantities are far outside double range (their logarithms can
exceed double range too).  mpmath floats carry arbitrary-precision integer
exponents, so values like 10**(10**8) are cheap to represent; only their
exponentials must be kept in log form.  Everything here is deterministic.
"""

from __future__ import annotations

import mpmath as mp

DPS = 60


def logaddexp(a, b):
    """log(e^a + e^b) for mpf arguments, safe for huge magnitudes."""
    a, b = mp.mpf(a), mp.mpf(b)
    if a < b:
        a, b = b, a
    d = b - a
    if d < -mp.mpf(10) ** 6:
        return a
    return a + mp.log1p(mp.e ** d)


def logsumexp(values):
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


def log_trapezoid(ts, log_fs):
    """log of the trapezoid quadrature of exp(log_f) on the grid ts."""
    terms = []
    for i in range(len(ts) - 1):
        w = mp.log((mp.mpf(ts[i + 1]) - mp.mpf(ts[i])) / 2)
        terms.append(w + logaddexp(log_fs[i], log_fs[i + 1]))
    return logsumexp(terms)


def to_float(x) -> float:
    """Clamp an mpf to double range (overflow -> +-1.8e308, underflow -> 0)."""
    try:
        f = float(x)
    except (OverflowError, ValueError):
        f = float("inf") if x > 0 else float("-inf")
    if f == float("inf"):
        return 1.7976931348623157e308
    if f == float("-inf"):
        return -1.7976931348623157e308
    return f


def fmt(x) -> str:
    """Deterministic decimal rendering of an mpf."""
    return mp.nstr(mp.mpf(x), 25, strip_zeros=True)
