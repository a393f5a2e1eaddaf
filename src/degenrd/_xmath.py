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
