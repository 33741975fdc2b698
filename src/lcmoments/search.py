"""One-dimensional root finding by Brent's method.

``bisect_root`` is Brent's method (R. P. Brent, Algorithms for Minimization
without Derivatives, 1973, ch. 4): inverse quadratic and secant steps, with
a bisection step whenever two steps in a row have not halved the bracket.
So every three evaluations at least halve the bracket, and it never takes
much more than three times plain bisection's evaluations (the tests bound
it by three times plus four).  On the package's gaps it takes about 12
evaluations per root.  The loop stops once the bracket's midpoint rounds to
one of its ends, so the contract is bisection's: the result is an exact
zero or one end of a bracket of adjacent floats.  (A bracket across a
binade edge one ulp of its larger end wide holds one float, which only the
midpoint step reaches.)

It is the package's one one-dimensional routine: the scans in ``constants``
read their extrema off a grid and need no minimiser.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import BracketError, DomainError, NumericalError


def _value(f: Callable[[float], float], x: float, known=None) -> float:
    fx = float(f(x) if known is None else known)
    if not math.isfinite(fx):
        raise NumericalError(f"the function is not finite at {x}: {fx}")
    return fx


def bisect_root(f: Callable[[float], float], lo: float, hi: float, *, ends=None) -> float:
    """A root of f on a sign-changing bracket, by Brent's method (module docstring).

    Returns an end where f is exactly zero, or a point where it is, or one
    end of a bracket of adjacent floats across which f changes sign.  The
    ends may come in either order, and ``ends`` may give (f(lo), f(hi)),
    which f is then not asked for.  Raises DomainError for a non-finite end,
    BracketError when f has one sign at both ends and NumericalError when f
    is not finite at a point it is evaluated at, or at a given end.

    Floats are dense next to 0, so a sign of f noisy around a root there can
    lead the steps down to subnormal spacing: 3x with a pseudo-random sign
    within 1e-9 of 0 takes 1047 evaluations on [-1, 1], halving 85.  No
    caller in the package looks for a root at 0.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bracket ends must be finite, got [{lo}, {hi}]")
    flo, fhi = ends or (None, None)
    if hi < lo:
        lo, hi, flo, fhi = hi, lo, fhi, flo
    flo, fhi = _value(f, lo, flo), _value(f, hi, fhi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:g}, f(hi)={fhi:g}")
    # b is the latest point, c the bracket end across the sign change from it,
    # a the point b replaced; b keeps the smaller |f| of the two ends
    a, fa, b, fb, c, fc = lo, flo, hi, fhi, lo, flo
    stale = 0  # steps in a row that have not halved the bracket
    while True:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        x = 0.5 * b + 0.5 * c
        if x == b or x == c:
            return x
        width = abs(c - b)
        ulp = math.ulp(b if abs(b) > abs(c) else c)
        if stale < 2:
            try:
                if fa != fb and fa != fc:
                    # inverse quadratic through a, b and c (fb and fc differ in sign)
                    guess = (
                        a * fb * fc / ((fa - fb) * (fa - fc))
                        + b * fa * fc / ((fb - fa) * (fb - fc))
                        + c * fa * fb / ((fc - fa) * (fc - fb))
                    )
                else:
                    guess = b - fb * (b - c) / (fb - fc)
            except ZeroDivisionError:  # a product of values underflowed
                guess = math.nan
            if abs(guess - b) < ulp:
                # b has converged: one ulp towards c should cross the root
                guess = b + math.copysign(ulp, c - b)
            if (guess - b) * (guess - c) < 0.0:
                x = guess
        fx = _value(f, x)
        if fx == 0.0:
            return x
        a, fa = b, fb
        if (fx < 0.0) != (fb < 0.0):
            c, fc = b, fb
        b, fb = x, fx
        stale = stale + 1 if abs(c - b) > 0.5 * width else 0

