"""Special functions and the adaptive quadrature primitive.

The family moments reduce to the gamma function plus two
exponential-weighted integrals, both evaluated in closed form:

    exp_power_integral(p, c)  = int_0^c x^p e^x dx          (p > -1, c >= 0)
    shifted_exp_moment(p, t)  = E (t*E + 1-t)^p             (E standard exponential)

The first is Kummer's function 1F1 (DLMF 13.2), the second the upper
incomplete gamma function (DLMF 8.2) or, once e^u would overflow, Tricomi's
U (DLMF 13.6).  ``integrate_adaptive`` serves only the generic-density
moments and checks in ``expfamily``, and ``QuadratureConfig`` tunes only it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, Sequence

from scipy import integrate, special

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "as_order",
    "integrate_adaptive",
    "gamma",
    "exp_power_integral",
    "shifted_exp_moment",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive integrator."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_refinements: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be strictly positive")
        if self.max_refinements < 1:
            raise DomainError("max_refinements must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()

# u * U(1, p+2, u) = 1 + p/u + O(u^-2): from here on the correction is below rounding
_HYPERU_CAP = 1e17


def as_order(p) -> float:
    """Validate a moment order p > -1, the range on which E|X|^p is finite
    for log-concave X."""
    value = float(p)
    if not value > -1.0:
        raise DomainError(f"moment order must exceed -1, got {value}")
    return value


def _quad(f, lo, hi, cfg: QuadratureConfig, points=None):
    out = integrate.quad(
        f,
        lo,
        hi,
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_refinements,
        points=points,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3:
        # quad appends a message only when its error code is nonzero; accept
        # the result anyway if the error estimate is within a small multiple
        # of the requested tolerance.
        if abserr > 50.0 * max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            raise QuadratureError(f"quadrature on [{lo}, {hi}] did not converge: {out[3]}")
    return value


def integrate_adaptive(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    points: Sequence[float] | None = None,
) -> float:
    """Adaptive quadrature of ``f`` on [lo, hi] with optional interior breakpoints.

    Infinite endpoints are allowed; breakpoints are used to split the range
    so the integrator never straddles a kink or jump of the integrand.
    """
    pts = sorted({float(x) for x in (points or ()) if lo < x < hi and math.isfinite(x)})
    if not pts:
        return _quad(f, lo, hi, cfg)
    if math.isinf(lo) or math.isinf(hi):
        edges = [lo, *pts, hi]
        return sum(_quad(f, a, b, cfg) for a, b in pairwise(edges))
    return _quad(f, lo, hi, cfg, points=pts)


def gamma(x: float) -> float:
    """The gamma function on the positive half-line."""
    if not x > 0.0:
        raise DomainError(f"gamma requires a positive argument, got {x}")
    return math.gamma(x)


def exp_power_integral(p, c: float) -> float:
    """int_0^c x^p e^x dx for p > -1, c >= 0.

    Closed form c^(p+1)/(p+1) * 1F1(p+1; p+2; c) (DLMF 13.2); the confluent
    hypergeometric series absorbs the endpoint singularity of x^p for p < 0.
    """
    p = as_order(p)
    if not c >= 0.0:
        raise DomainError(f"upper limit must be nonnegative, got {c}")
    if c == 0.0:
        return 0.0
    return c ** (p + 1.0) / (p + 1.0) * special.hyp1f1(p + 1.0, p + 2.0, c)


def exp_power_integral_series(p, c: float, tol: float = 1e-16, max_terms: int = 200) -> float:
    """Series form sum_k c^(p+k+1) / (k! (p+k+1)); converges fast for c <= 2.

    Kept as an independent test oracle for the closed form.
    """
    p = as_order(p)
    if not c >= 0.0:
        raise DomainError(f"upper limit must be nonnegative, got {c}")
    if c == 0.0:
        return 0.0
    total = 0.0
    term_base = c ** (p + 1.0)
    fact = 1.0
    for k in range(max_terms):
        term = term_base / (fact * (p + k + 1.0))
        total += term
        if abs(term) <= tol * abs(total):
            return total
        term_base *= c
        fact *= k + 1.0
    raise QuadratureError("series for exp_power_integral did not converge")


def shifted_exp_moment(p, t: float) -> float:
    """E (t*E + 1-t)^p = int_0^inf (t*x + 1-t)^p e^{-x} dx for t in [0, 1].

    With u = (1-t)/t this is e^u * t^p * Gamma(p+1) * Q(p+1, u) in terms of
    the regularised upper incomplete gamma function, used while e^u stays
    representable.  Beyond u = 200 it is (1-t)^p * u * U(1, p+2, u) with
    Tricomi's U; writing it as t^p u^(p+1) U would overflow for tiny t.
    From u = 1e17 on, u * U(1, p+2, u) equals 1 + p/u to rounding, so U is
    evaluated at that cap (scipy's hyperu returns nan beyond about 1e154).
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
        return math.exp(u) * t**p * gamma(p + 1.0) * special.gammaincc(p + 1.0, u)
    u = min(u, _HYPERU_CAP)
    return (1.0 - t) ** p * u * special.hyperu(1.0, p + 2.0, u)
