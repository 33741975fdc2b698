"""Special functions of the family moments.

The family moments reduce to the gamma function plus two
exponential-weighted integrals, both evaluated in closed form:

    exp_power_integral(p, c)  = int_0^c x^p e^x dx          (p > -1, c >= 0)
    shifted_exp_moment(p, t)  = E (t*E + 1-t)^p             (E standard exponential)

The first is Kummer's function 1F1 (DLMF 13.2), the second the upper
incomplete gamma function (DLMF 8.2) or, once e^u would overflow, Tricomi's
U (DLMF 13.6).  No route of the package integrates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError

__all__ = [
    "as_order",
    "gamma",
    "exp_power_integral",
    "shifted_exp_moment",
]


# u * U(1, p+2, u) = 1 + p/u + O(u^-2): from here on the correction is below rounding
_HYPERU_CAP = 1e17


def __getattr__(name):
    """``specfun.integrate`` is ``scipy.integrate``, imported on first access
    (PEP 562) rather than with the package, since it takes about half a
    second to load.  The benchmark's tracer replaces this attribute to count
    integrand evaluations."""
    if name == "integrate":
        from scipy import integrate

        globals()["integrate"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def as_order(p) -> float:
    """Validate a moment order p > -1, the range on which E|X|^p is finite
    for log-concave X."""
    value = float(p)
    if not -1.0 < value < math.inf:
        raise DomainError(f"moment order must be finite and exceed -1, got {value}")
    return value


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_seed(seed) -> int:
    """Validate a generator seed: a nonnegative integer, not a bool."""
    if not _is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def gamma(x: float) -> float:
    """The gamma function on the positive half-line.  A non-finite argument
    raises DomainError; past about 171.6 the value exceeds the largest float
    and raises NumericalError."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"gamma requires a finite positive argument, got {x}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise NumericalError(f"gamma({x}) overflows a float") from exc


def exp_power_integral(p, c: float) -> float:
    """int_0^c x^p e^x dx for p > -1, c >= 0.

    Closed form c^(p+1)/(p+1) * 1F1(p+1; p+2; c) (DLMF 13.2); the confluent
    hypergeometric series absorbs the endpoint singularity of x^p for p < 0.
    A non-finite c raises DomainError (scipy's 1F1 does not return at
    infinity), and a value past the largest float raises NumericalError.
    """
    p = as_order(p)
    if not 0.0 <= c < math.inf:
        raise DomainError(f"upper limit must be finite and nonnegative, got {c}")
    if c == 0.0:
        return 0.0
    try:
        value = c ** (p + 1.0) / (p + 1.0) * float(special.hyp1f1(p + 1.0, p + 2.0, c))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericalError(f"int_0^{c} x^{p} e^x dx overflows a float")
    return value


def shifted_exp_moment(p, t: float) -> float:
    """E (t*E + 1-t)^p = int_0^inf (t*x + 1-t)^p e^{-x} dx for t in [0, 1].

    With u = (1-t)/t this is e^u * t^p * Gamma(p+1) * Q(p+1, u) in terms of
    the regularised upper incomplete gamma function, used while e^u stays
    representable.  Beyond u = 200 it is (1-t)^p * u * U(1, p+2, u) with
    Tricomi's U; writing it as t^p u^(p+1) U would overflow for tiny t.
    From u = 1e17 on, u * U(1, p+2, u) equals 1 + p/u to rounding, so U is
    evaluated at that cap (scipy's hyperu returns nan beyond about 1e154).
    A value past the largest float raises NumericalError.
    """
    p = as_order(p)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if t == 0.0:
        return 1.0
    if t == 1.0:
        return gamma(p + 1.0)
    u = (1.0 - t) / t
    if u <= 200.0:
        return math.exp(u) * t**p * gamma(p + 1.0) * float(special.gammaincc(p + 1.0, u))
    u = min(u, _HYPERU_CAP)
    value = (1.0 - t) ** p * u * float(special.hyperu(1.0, p + 2.0, u))
    if not math.isfinite(value):
        raise NumericalError(f"E (t*E + 1-t)^p overflows a float at p={p}, t={t}")
    return value
