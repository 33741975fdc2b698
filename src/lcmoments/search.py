"""One-dimensional root bisection and golden-section refinement."""

from __future__ import annotations

import math
from typing import Callable

from .errors import BracketError

# inverse golden ratio, the fraction of the interval kept each step
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# halvings that take any finite bracket (width below 2^1025) to adjacent
# floats, even around a root at zero (spacing 2^-1074)
_MAX_HALVINGS = 2100


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection on a sign-changing bracket; robust over fast.

    Halves the bracket until the midpoint is no longer distinct from an end,
    so the returned midpoint is exact to rounding.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:g}, f(hi)={fhi:g}")
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section minimisation on [lo, hi]; returns (argmin, min value)."""
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)

