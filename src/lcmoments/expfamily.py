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
Fradelizi's comparison bounds them too, by the moments of the Laplace
density f(0) e^{-2 f(0) |x|}, which are closed-form.  Each catalogue
density carries its E|X|^p and P(X > 0) in closed form as well, so no
check in this module integrates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError
from .search import bisect_root
from .specfun import as_order, exp_power_integral, gamma, shifted_exp_moment

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
    "abs_moment",
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

# relative slack of the comparison checks.  Both sides are closed forms, so it
# covers rounding and the matched (a, b): u -> e^(u-1)/(1+u) is flat at u = 0,
# so inverting it near the one-sided end loses up to half the digits of u
COMPARISON_SLACK = 1e-8

# the smallest |p| of a family member's L_p norm, which keeps it within 1e-8 relative
_MIN_ORDER = 1e-6


@dataclass(frozen=True)
class TwoSidedExpParams:
    """Scales (a, b) of the positive and negative exponential branches."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < math.inf and 0.0 <= self.b < math.inf):
            raise DomainError(f"branch scales must be finite and nonnegative, got ({self.a}, {self.b})")
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
    # a subnormal scale overflows the exponent to -inf, whose exp is the right 0
    with np.errstate(over="ignore"):
        if a > 0.0:
            out[right] = np.exp(-(xs[right] + a - b) / a)
        if b > 0.0:
            out[~right] = np.exp((xs[~right] + a - b) / b)
    out /= a + b
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
    Brent's method (``search.bisect_root``, never much more than three times
    plain bisection's evaluations; a median of 8 to 13 us per call against
    14 to 26 us by halving, 2-core Xeon VM); the first moment constraint
    then fixes a = l1 / (2 alpha).
    """
    if not _INV_E - 1e-12 <= alpha <= 0.5 + 1e-12:
        raise DomainError(f"alpha must lie in [1/e, 1/2], got {alpha}")
    if not 0.0 < l1 < math.inf:
        raise DomainError(f"mean absolute value must be finite and positive, got {l1}")
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


def _member_norm(p: float, t: float) -> float:
    """(E|E_t|^p)^(1/p).  The power 1/p lifts the moment's rounding, up to 2e-15
    relative near t = 0.47, by 1/|p|; orders within _MIN_ORDER of 0 raise DomainError."""
    if abs(p) < _MIN_ORDER:
        raise DomainError(f"the L_p norm needs |p| >= {_MIN_ORDER:g} (p = 0 is the geometric mean), got {p!r}")
    return moment_et(p, t) ** (1.0 / p)


def norm_ebar(p, t: float) -> float:
    """L_p norm of the normalized family member, (E|E_t|^p)^(1/p) / scale(t)."""
    return _member_norm(as_order(p), t) / family_scale(t)


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
    return (1.0 - t) / mu, head, tail


def _normal_power(x: float, p: float = 1.0) -> float:
    """x**p for x > 0, if it is a positive normal float.  Past the largest
    float, or rounded to a subnormal or 0, it has lost its digits: NumericalError."""
    try:
        value = x**p
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise NumericalError(f"{x!r}**{p!r} lies outside the positive normal floats")
    return value


# ---------------------------------------------------------------------------
# log-concave test densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogConcaveTestDensity:
    """A mean-zero log-concave density with its absolute moments
    ``moment(p) = E|X|^p`` (p > -1) and P(X > 0), both in closed form."""

    name: str
    pdf: Callable
    moment: Callable[[float], float]
    prob_positive: float


def two_sided_exponential_density(a: float, b: float) -> LogConcaveTestDensity:
    params = TwoSidedExpParams(a, b)
    # |X(a, b)| is distributed as big * |E_u| with u = small / big
    big, small = max(a, b), min(a, b)
    return LogConcaveTestDensity(
        name=f"two-sided-exponential({a:g},{b:g})",
        pdf=lambda x: density_xab(params, x),
        moment=lambda p: _normal_power(big, p) * moment_et(p, small / big),
        prob_positive=prob_positive(params),
    )


def centred_uniform(half_width: float) -> LogConcaveTestDensity:
    if not 0.0 < half_width < math.inf:
        raise DomainError(f"half_width must be finite and positive, got {half_width}")
    c = float(half_width)
    height = 1.0 / (2.0 * c)

    def pdf(x):
        xs = np.asarray(x, dtype=float)
        return np.where(np.abs(xs) <= c, height, 0.0)

    return LogConcaveTestDensity(f"centred-uniform({c:g})", pdf, lambda p: _normal_power(c, p) / (p + 1.0), 0.5)


def centred_gaussian(sigma: float) -> LogConcaveTestDensity:
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    s = float(sigma)
    norm = 1.0 / (s * math.sqrt(2.0 * math.pi))

    def pdf(x):
        xs = np.asarray(x, dtype=float)
        return norm * np.exp(-0.5 * (xs / s) ** 2)

    def moment(p):
        return _normal_power(s, p) * 2.0 ** (p / 2.0) * gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)

    return LogConcaveTestDensity(f"centred-gaussian({s:g})", pdf, moment, 0.5)


def _truncated_exponential_mean(cut: float) -> float:
    """Mean 1 - cut / (e^cut - 1) of the standard exponential conditioned on
    [0, cut].  Below cut = 0.1 the subtraction would cancel, so the mean
    comes from the Bernoulli series cut/2 - cut^2/12 + cut^4/720 - ... of
    the same function; the first omitted term is below 1e-17 of the mean."""
    if cut < 0.1:
        c2 = cut * cut
        return cut * (0.5 - cut * (1.0 / 12.0 - c2 * (1.0 / 720.0 - c2 * (1.0 / 30240.0 - c2 / 1209600.0))))
    c = min(cut, 700.0)  # the mean rounds to 1 from cut = 41.2 on, and e^cut overflows past 709.78
    return 1.0 - c / math.expm1(c)


def truncated_exponential(cut: float) -> LogConcaveTestDensity:
    """Standard exponential conditioned on [0, cut], shifted to mean zero.

    Asymmetric, with P(X > 0) below 1/2 for every cut.
    """
    if not 0.0 < cut < math.inf:
        raise DomainError(f"cut must be finite and positive, got {cut}")
    z = -math.expm1(-cut)
    mean = _truncated_exponential_mean(cut)

    def pdf(x):
        xs = np.asarray(x, dtype=float)
        inside = (xs >= -mean) & (xs <= cut - mean)
        return np.where(inside, np.exp(-(xs + mean)) / z, 0.0)

    def moment(p):
        # X + mean has density e^-y / z on [0, cut]; below the mean this leaves
        # e^-mean int_0^mean x^p e^x dx, above it e^-mean Gamma(p+1) P(p+1, cut-mean)
        lower = gamma(p + 1.0) * float(special.gammainc(p + 1.0, cut - mean))
        return math.exp(-mean) * (exp_power_integral(p, mean) + lower) / z

    # (e^-mean - e^-cut) / z, without the cancellation of the two exponentials
    positive = -math.exp(-mean) * math.expm1(mean - cut) / z
    return LogConcaveTestDensity(f"truncated-exponential({cut:g})", pdf, moment, positive)


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


def abs_moment(density: LogConcaveTestDensity, p) -> float:
    """E|X|^p for a catalogue density, from its closed form (``_normal_power``)."""
    return _normal_power(density.moment(as_order(p)))


# ---------------------------------------------------------------------------
# comparison checks against the matched two-sided exponential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonCheck:
    lhs: float
    rhs: float
    holds: bool


def reduction_check(density: LogConcaveTestDensity, p) -> ComparisonCheck:
    """Compare E|X/E|X||^p against the matched two-sided exponential.

    Matching fixes P(X > 0) and E|X|.  Neither E|X| nor E|X|^p changes under
    X -> -X, so a density with P(X > 0) > 1/2 is matched through its mirror
    image, whose P(X > 0) is 1 - P(X > 0).  The power x^p restricted to a
    half-line is convex for p < 0 or p > 1 (the matched family dominates)
    and concave for 0 < p < 1 (the inequality reverses).  NumericalError
    where a side or scale leaves the positive normal floats.
    """
    p = as_order(p)
    alpha = min(density.prob_positive, 1.0 - density.prob_positive)

    l1 = abs_moment(density, 1.0)
    params = match_two_sided(alpha, l1)
    scale = _normal_power(l1, p)
    lhs = _normal_power(abs_moment(density, p) / scale)
    # E|X(a,b)|^p = a^p E|E_u|^p with u = b/a, and E|X(a,b)| = l1 by matching
    rhs = _normal_power(_normal_power(params.a, p) * moment_et(p, params.b / params.a) / scale)

    slack = COMPARISON_SLACK * max(1.0, abs(lhs), abs(rhs))
    if 0.0 < p < 1.0:
        holds = lhs >= rhs - slack
    elif p == 1.0:
        holds = abs(lhs - rhs) <= slack
    else:
        holds = lhs <= rhs + slack
    return ComparisonCheck(lhs, rhs, holds)


def fradelizi_check(density: LogConcaveTestDensity, exponent: float) -> ComparisonCheck:
    """E|X|^r <= int |x|^r f(0) e^{-2 f(0) |x|} dx for r >= 1 and mean-zero f.

    The left side is ``abs_moment``; the right side is the Laplace integral
    in closed form, Gamma(r + 1) / (2 f(0))^r.  NumericalError where a side
    leaves the positive normal floats.
    """
    exponent = float(exponent)
    if not 1.0 <= exponent < math.inf:
        raise DomainError(f"convex powers need a finite exponent >= 1, got {exponent}")
    f0 = float(density.pdf(0.0))
    if not f0 > 0.0:
        raise DomainError("comparison density requires f(0) > 0")
    lhs = abs_moment(density, exponent)
    rhs = _normal_power(gamma(exponent + 1.0) / _normal_power(2.0 * f0, exponent))
    holds = lhs <= rhs + COMPARISON_SLACK * max(1.0, abs(rhs))
    return ComparisonCheck(lhs, rhs, holds)
