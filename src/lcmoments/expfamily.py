"""The two-sided exponential family and its normalized one-parameter slice.

With E, E' independent standard exponentials and scales a, b >= 0, the
centred two-sided exponential is

    X(a, b) = a*(E - 1) - b*(E' - 1),

whose density is a two-branch exponential with breakpoint at b - a.  The
one-parameter family E_t = X(1, t), t in [0, 1], interpolates between the
one-sided exponential (t = 0) and the symmetric double exponential (t = 1).
Dividing E_t by its mean absolute value

    scale(t) = E|E_t| = (2/e) * e^t / (1 + t)

fixes the L1 norm to one; every sharp constant in the package is an
extremum of the normalized moments over t.

The module also carries a small catalogue of mean-zero log-concave test
densities together with the matching construction: for any mean-zero
log-concave X there is a unique (a, b) with matching P(X > 0) and E|X|,
and moments of convex powers can only grow when X is swapped for X(a, b).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .search import bisect_root
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    as_order,
    exp_power_integral,
    gamma,
    integrate_adaptive,
    shifted_exp_moment,
)

__all__ = [
    "TwoSidedExpParams",
    "LogConcaveTestDensity",
    "ComparisonCheck",
    "family_scale",
    "density_xab",
    "prob_positive",
    "match_two_sided",
    "moment_et",
    "norm_ebar",
    "density_abs_ebar",
    "abs_moment",
    "lp_norm",
    "reduction_check",
    "fradelizi_check",
    "two_sided_exponential_density",
    "centred_uniform",
    "centred_gaussian",
    "truncated_exponential",
    "catalogue",
]

_INV_E = 1.0 / math.e
_TWO_OVER_E = 2.0 * _INV_E

# relative slack of the comparison checks, for the quadrature error of both sides
COMPARISON_SLACK = 1e-8


@dataclass(frozen=True)
class TwoSidedExpParams:
    """Scales (a, b) of the positive and negative exponential branches."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0.0 or self.b < 0.0:
            raise DomainError(f"branch scales must be nonnegative, got ({self.a}, {self.b})")
        if self.a + self.b <= 0.0:
            raise DomainError("at least one branch scale must be positive")

    @property
    def breakpoint(self) -> float:
        """Abscissa where the density formula switches branch."""
        return self.b - self.a


def family_scale(t: float) -> float:
    """E|E_t| = (2/e) e^t / (1+t); strictly increasing from 2/e to 1 on [0,1]."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"family parameter t must lie in [0, 1], got {t}")
    return 2.0 * math.exp(t - 1.0) / (1.0 + t)


def density_xab(params: TwoSidedExpParams, x):
    """Density of X(a, b); accepts scalars or arrays.

    When a = 0 (or b = 0) the right (or left) branch is identically zero.
    """
    a, b = params.a, params.b
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    out = np.zeros_like(xs)
    m = b - a
    right = xs >= m
    if a > 0.0:
        out[right] = np.exp(-(xs[right] + a - b) / a) / (a + b)
    if b > 0.0:
        left = ~right
        out[left] = np.exp((xs[left] + a - b) / b) / (a + b)
    return float(out[0]) if scalar else out


def prob_positive(params: TwoSidedExpParams) -> float:
    """P(X(a, b) > 0); equals e^(u-1)/(1+u) with u = b/a when a >= b."""
    a, b = params.a, params.b
    if a < b:
        # X(a, b) and -X(b, a) share a distribution; the density is atomless
        return 1.0 - prob_positive(TwoSidedExpParams(b, a))
    u = b / a
    return math.exp(u - 1.0) / (1.0 + u)


def match_two_sided(alpha: float, l1: float) -> TwoSidedExpParams:
    """The unique (a, b), a >= b, with P(X>0) = alpha and E|X| = l1.

    Inverts the strictly increasing map u -> e^(u-1)/(1+u) on [0, 1] by
    bisection; the first moment constraint then fixes a = l1 / (2 alpha).
    """
    if not _INV_E - 1e-12 <= alpha <= 0.5 + 1e-12:
        raise DomainError(f"alpha must lie in [1/e, 1/2], got {alpha}")
    if not l1 > 0.0:
        raise DomainError(f"mean absolute value must be positive, got {l1}")
    alpha = min(max(alpha, _INV_E), 0.5)
    a = l1 / (2.0 * alpha)
    if alpha - _INV_E <= 1e-15:
        # the map is flat to second order at u = 0; the endpoint is exact
        return TwoSidedExpParams(a, 0.0)
    u = bisect_root(lambda v: math.exp(v - 1.0) / (1.0 + v) - alpha, 0.0, 1.0)
    return TwoSidedExpParams(a, u * a)


def moment_et(p, t: float) -> float:
    """E|E_t|^p, assembled from the explicit three-term formula.

    E|E_t|^p = e^(t-1)/(1+t) * (int_0^(1-t) x^p e^x dx + Gamma(p+1))
               + t/(1+t) * E(t*E + 1-t)^p.
    """
    p = as_order(p)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"family parameter t must lie in [0, 1], got {t}")
    head = math.exp(t - 1.0) / (1.0 + t) * (exp_power_integral(p, 1.0 - t) + gamma(p + 1.0))
    return head + t / (1.0 + t) * shifted_exp_moment(p, t)


def norm_ebar(p, t: float) -> float:
    """L_p norm of the normalized family member, (E|E_t|^p)^(1/p) / scale(t)."""
    p = as_order(p)
    if p == 0.0:
        raise DomainError("p = 0 (geometric mean) is not supported")
    return moment_et(p, t) ** (1.0 / p) / family_scale(t)


def abs_ebar_breakpoint(t: float) -> float:
    """Abscissa where the |E_t|/scale(t) density formula changes branch."""
    return (1.0 - t) / family_scale(t)


def _term_rate(sign: float, rho: float) -> float:
    """The rate sign * (2/e) * e^rho of an exponential term; 2/e = scale(0)."""
    return sign * _TWO_OVER_E * math.exp(rho)


def _abs_ebar_terms(t: float):
    """The density of |E_t|/scale(t) as two exponential sums: (kink, head, tail).

    A term (c, sign, rho) is c * exp(_term_rate(sign, rho) * (x - anchor)),
    anchored at 0 on the head [0, kink] and at the kink on the tail.  With
    mu = scale(t) = (2/e) e^rho, rho = t - log1p(t), the head is
    mu^2/2 (e^(mu x) + e^(-mu x)) and the tail mu^2 e^(t-1)/2 e^(-mu (x-kink))
    + mu/(1+t) e^(-(mu/t)(x-kink)), whose second term t = 0 lacks (a jump at
    e/2).  Log-rates give accurate rate differences through expm1, and the
    anchors keep e^(1/t) from forming.
    """
    mu = family_scale(t)
    rho = t - math.log1p(t)
    half = 0.5 * mu * mu
    head = ((half, 1.0, rho), (half, -1.0, rho))
    tail = ((half * math.exp(t - 1.0), -1.0, rho),)
    # for subnormal t the rate mu/t overflows; the term then vanishes at every
    # float past the kink, and the head owns the kink itself
    if t >= sys.float_info.min:
        tail += ((mu / (1.0 + t), -1.0, rho - math.log(t)),)
    return abs_ebar_breakpoint(t), head, tail


def density_abs_ebar(t: float, x):
    """Density of |E_t| / scale(t) on [0, inf); accepts scalars or arrays.

    Sums the terms of ``_abs_ebar_terms``: the head up to and including the
    kink (the left branch owns the breakpoint), the tail beyond it.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"family parameter t must lie in [0, 1], got {t}")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any(xs < 0.0):
        raise DomainError("density of |.| is defined on x >= 0")
    kink, head, tail = _abs_ebar_terms(t)
    out = np.empty_like(xs)
    left = xs <= kink
    for part, terms, anchor in ((left, head, 0.0), (~left, tail, kink)):
        out[part] = sum(c * np.exp(_term_rate(sign, rho) * (xs[part] - anchor)) for c, sign, rho in terms)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# log-concave test densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogConcaveTestDensity:
    """A mean-zero log-concave density with known support and kink locations."""

    name: str
    pdf: Callable
    support: tuple[float, float]
    breakpoints: tuple[float, ...] = ()


def two_sided_exponential_density(a: float, b: float) -> LogConcaveTestDensity:
    params = TwoSidedExpParams(a, b)
    lo = -math.inf if b > 0.0 else params.breakpoint
    hi = math.inf if a > 0.0 else params.breakpoint
    return LogConcaveTestDensity(
        name=f"two-sided-exponential({a:g},{b:g})",
        pdf=lambda x: density_xab(params, x),
        support=(lo, hi),
        breakpoints=(params.breakpoint,),
    )


def centred_uniform(half_width: float) -> LogConcaveTestDensity:
    if not half_width > 0.0:
        raise DomainError("half_width must be positive")
    c = float(half_width)
    height = 1.0 / (2.0 * c)

    def pdf(x):
        xs = np.asarray(x, dtype=float)
        return np.where(np.abs(xs) <= c, height, 0.0)

    return LogConcaveTestDensity(f"centred-uniform({c:g})", pdf, (-c, c))


def centred_gaussian(sigma: float) -> LogConcaveTestDensity:
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")
    s = float(sigma)
    norm = 1.0 / (s * math.sqrt(2.0 * math.pi))

    def pdf(x):
        xs = np.asarray(x, dtype=float)
        return norm * np.exp(-0.5 * (xs / s) ** 2)

    return LogConcaveTestDensity(f"centred-gaussian({s:g})", pdf, (-math.inf, math.inf))


def truncated_exponential(cut: float) -> LogConcaveTestDensity:
    """Standard exponential conditioned on [0, cut], shifted to mean zero.

    Asymmetric, so it exercises the P(X > 0) > 1/2 reflection path.
    """
    if not cut > 0.0:
        raise DomainError("cut must be positive")
    z = 1.0 - math.exp(-cut)
    mean = (1.0 - (1.0 + cut) * math.exp(-cut)) / z

    def pdf(x):
        xs = np.asarray(x, dtype=float)
        inside = (xs >= -mean) & (xs <= cut - mean)
        return np.where(inside, np.exp(-(xs + mean)) / z, 0.0)

    return LogConcaveTestDensity(f"truncated-exponential({cut:g})", pdf, (-mean, cut - mean))


def catalogue() -> list[LogConcaveTestDensity]:
    """The fixed test catalogue the verification suites quantify over."""
    return [
        two_sided_exponential_density(1.0, 1.0),
        two_sided_exponential_density(1.0, 0.5),
        two_sided_exponential_density(1.0, 0.0),
        centred_uniform(1.0),
        centred_gaussian(1.0),
        truncated_exponential(2.0),
    ]


def _one_sided_abs_moment(pdf, upper, p, cfg, breakpoints):
    """int_0^upper x^p pdf(sign*x) dx with the singularity-absorbing substitution."""
    if p < 0.0:
        s = 1.0 / (1.0 + p)
        u_hi = math.inf if math.isinf(upper) else upper ** (1.0 + p)
        pts = [b ** (1.0 + p) for b in breakpoints]
        return s * integrate_adaptive(lambda u: float(pdf(u**s)), 0.0, u_hi, cfg, points=pts)
    return integrate_adaptive(lambda x: x**p * float(pdf(x)), 0.0, upper, cfg, points=breakpoints)


def abs_moment(density: LogConcaveTestDensity, p, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """E|X|^p for a catalogue density, by quadrature split at 0 and all kinks."""
    p = as_order(p)
    lo, hi = density.support
    pos_bps = [b for b in density.breakpoints if b > 0.0]
    neg_bps = [-b for b in density.breakpoints if b < 0.0]
    right = _one_sided_abs_moment(density.pdf, hi, p, cfg, pos_bps)
    left = _one_sided_abs_moment(lambda x: density.pdf(-x), -lo, p, cfg, neg_bps)
    return left + right


def lp_norm(density: LogConcaveTestDensity, p, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """(E|X|^p)^(1/p); p > -1, p != 0."""
    p = as_order(p)
    if p == 0.0:
        raise DomainError("p = 0 (geometric mean) is not supported")
    return abs_moment(density, p, cfg) ** (1.0 / p)


# ---------------------------------------------------------------------------
# comparison checks against the matched two-sided exponential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonCheck:
    lhs: float
    rhs: float
    holds: bool


def _reflected(density: LogConcaveTestDensity) -> LogConcaveTestDensity:
    lo, hi = density.support
    return LogConcaveTestDensity(
        name=density.name + "|reflected",
        pdf=lambda x: density.pdf(-np.asarray(x, dtype=float)),
        support=(-hi, -lo),
        breakpoints=tuple(sorted(-b for b in density.breakpoints)),
    )


def reduction_check(
    density: LogConcaveTestDensity, p, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> ComparisonCheck:
    """Compare E|X/E|X||^p against the matched two-sided exponential.

    Matching fixes P(X > 0) and E|X|.  The power x^p restricted to a
    half-line is convex for p < 0 or p > 1 (the matched family dominates)
    and concave for 0 < p < 1 (the inequality reverses).
    """
    p = as_order(p)
    lo, hi = density.support
    alpha = integrate_adaptive(
        lambda x: float(density.pdf(x)), 0.0, hi, cfg, points=[b for b in density.breakpoints if b > 0]
    )
    if alpha > 0.5 + 1e-13:
        return reduction_check(_reflected(density), p, cfg)

    l1 = abs_moment(density, 1.0, cfg)
    params = match_two_sided(alpha, l1)
    lhs = abs_moment(density, p, cfg) / l1**p
    # E|X(a,b)|^p = a^p E|E_u|^p with u = b/a, and E|X(a,b)| = l1 by matching
    rhs = params.a**p * moment_et(p, params.b / params.a) / l1**p

    slack = COMPARISON_SLACK * max(1.0, abs(lhs), abs(rhs))
    if 0.0 < p < 1.0:
        holds = lhs >= rhs - slack
    elif p == 1.0:
        holds = abs(lhs - rhs) <= slack
    else:
        holds = lhs <= rhs + slack
    return ComparisonCheck(lhs, rhs, holds)


def convex_power(exponent: float) -> Callable:
    """|x|^exponent as a convex test function (exponent >= 1)."""
    if exponent < 1.0:
        raise DomainError("convex powers need exponent >= 1")

    def phi(x):
        return np.abs(np.asarray(x, dtype=float)) ** exponent

    phi.__name__ = f"abs_power_{exponent:g}"
    return phi


def fradelizi_check(
    density: LogConcaveTestDensity, phi: Callable, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> ComparisonCheck:
    """int phi f <= int phi(x) f(0) e^{-2 f(0) |x|} dx for convex phi, mean-zero f."""
    f0 = float(density.pdf(0.0))
    if not f0 > 0.0:
        raise DomainError("comparison density requires f(0) > 0")
    lo, hi = density.support
    lhs = integrate_adaptive(
        lambda x: float(phi(x)) * float(density.pdf(x)),
        lo,
        hi,
        cfg,
        points=[0.0, *density.breakpoints],
    )
    rate = 2.0 * f0
    rhs = integrate_adaptive(
        lambda x: float(phi(x)) * f0 * math.exp(-rate * abs(x)),
        -math.inf,
        math.inf,
        cfg,
        points=[0.0],
    )
    holds = lhs <= rhs + COMPARISON_SLACK * max(1.0, abs(rhs))
    return ComparisonCheck(lhs, rhs, holds)
