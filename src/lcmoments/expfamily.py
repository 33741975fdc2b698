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
density carries its f(0), E|X|^p and P(X > 0) in closed form as well, so
no check in this module integrates.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError, NumericalError
from .specfun import _finite, _gamma1p, _lower_gamma, _lower_series, _shifted_exp_moment
from .specfun import as_order, exp_power_integral, gamma

_INV_E = 1.0 / math.e

# relative slack of the comparison checks.  Both sides are closed forms, so it
# covers rounding and the matched (a, b): u -> e^(u-1)/(1+u) is flat at u = 0,
# so inverting it near the one-sided end loses up to half the digits of u
COMPARISON_SLACK = 1e-8

# the smallest |p| of a family member's L_p norm, which keeps it within 1e-8 relative
_MIN_ORDER = 1e-6


class TwoSidedExpParams(namedtuple("TwoSidedExpParams", "a b")):
    """Scales (a, b) of the positive and negative exponential branches."""

    __slots__ = ()
    # ``_replace`` builds through ``_make``, which would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, a, b):
        if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
            raise DomainError(f"branch scales must be finite and nonnegative, got ({a}, {b})")
        if a + b <= 0.0:
            raise DomainError("at least one branch scale must be positive")
        return super().__new__(cls, a, b)


def family_scale(t: float) -> float:
    """E|E_t| = (2/e) e^t / (1+t); strictly increasing from 2/e to 1 on [0,1]."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"family parameter t must lie in [0, 1], got {t}")
    return 2.0 * math.exp(t - 1.0) / (1.0 + t)


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
    plain bisection's evaluations); the first moment constraint then fixes
    a = l1 / (2 alpha).
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
    from .search import bisect_root  # here, so that a moment alone does not load the root finder
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
    return _moment_et(p, t, _finite(_gamma1p(p), "gamma({} + 1)", p))


def _moment_et(p: float, t: float, gamma_a: float) -> float:
    """moment_et, unchecked, given gamma_a = Gamma(p+1).  Kummer's transformation gives
    e^-c int_0^c x^p e^x dx = c^(p+1) S(p+1, -c), c = 1-t, a series whose terms fall."""
    c = 1.0 - t
    below = c**p * c * _lower_series(p + 1.0, -c) if c else 0.0
    return (below + math.exp(-c) * gamma_a) / (1.0 + t) + t / (1.0 + t) * _shifted_exp_moment(p, t, gamma_a)


def _member_norms(p):
    """t -> (E|E_t|^p)^(1/p) on [0, 1], with the order checked and Gamma(p+1) formed once.
    The power 1/p lifts the moment's rounding, up to 2e-15 near t = 0.47, by 1/|p|."""
    p = as_order(p)
    if abs(p) < _MIN_ORDER:
        raise DomainError(f"the L_p norm needs |p| >= {_MIN_ORDER:g} (p = 0 is the geometric mean), got {p!r}")
    gamma_a = _finite(_gamma1p(p), "gamma({} + 1)", p)
    return lambda t: _moment_et(p, t, gamma_a) ** (1.0 / p)


def norm_ebar(p, t: float) -> float:
    """L_p norm of the normalized family member, (E|E_t|^p)^(1/p) / scale(t)."""
    scale = family_scale(t)
    return _member_norms(p)(t) / scale


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


class LogConcaveTestDensity(namedtuple("LogConcaveTestDensity", "name f0 moment prob_positive")):
    """A mean-zero log-concave density with its value ``f0`` at zero, its
    absolute moments ``moment(p) = E|X|^p`` (p > -1) and P(X > 0), all in
    closed form."""

    __slots__ = ()


def two_sided_exponential_density(a: float, b: float) -> LogConcaveTestDensity:
    params = TwoSidedExpParams(a, b)
    # |X(a, b)| is distributed as big * |E_u| with u = small / big
    big, small = max(a, b), min(a, b)
    # the density at 0 lies on the branch of the larger scale
    f0 = math.exp(-(a - b) / a) if a >= b else math.exp((a - b) / b)
    return LogConcaveTestDensity(
        name=f"two-sided-exponential({a:g},{b:g})",
        f0=f0 / (a + b),
        moment=lambda p: _normal_power(big, p) * moment_et(p, small / big),
        prob_positive=prob_positive(params),
    )


def centred_uniform(half_width: float) -> LogConcaveTestDensity:
    if not 0.0 < half_width < math.inf:
        raise DomainError(f"half_width must be finite and positive, got {half_width}")
    c = float(half_width)
    return LogConcaveTestDensity(
        f"centred-uniform({c:g})", 1.0 / (2.0 * c), lambda p: _normal_power(c, p) / (p + 1.0), 0.5
    )


def centred_gaussian(sigma: float) -> LogConcaveTestDensity:
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    s = float(sigma)

    def moment(p):
        return _normal_power(s, p) * _normal_power(2.0, p / 2.0) * gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)

    return LogConcaveTestDensity(f"centred-gaussian({s:g})", 1.0 / (s * math.sqrt(2.0 * math.pi)), moment, 0.5)


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

    def moment(p):
        # X + mean has density e^-y / z on [0, cut]; below the mean this leaves
        # e^-mean int_0^mean x^p e^x dx, above it e^-mean gamma(p+1, cut-mean)
        return math.exp(-mean) * (exp_power_integral(p, mean) + _lower_gamma(as_order(p), cut - mean)) / z

    # (e^-mean - e^-cut) / z, without the cancellation of the two exponentials
    positive = -math.exp(-mean) * math.expm1(mean - cut) / z
    return LogConcaveTestDensity(f"truncated-exponential({cut:g})", math.exp(-mean) / z, moment, positive)


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


class ComparisonCheck(namedtuple("ComparisonCheck", "lhs rhs holds")):
    """The two sides of a comparison, and whether it holds within its slack."""

    __slots__ = ()


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
    in closed form, Gamma(r + 1) / (2 f(0))^r.  Both sides scale as c^r
    when X is scaled by c, so the slack is relative.  NumericalError where a
    side leaves the positive normal floats.
    """
    exponent = float(exponent)
    if not 1.0 <= exponent < math.inf:
        raise DomainError(f"convex powers need a finite exponent >= 1, got {exponent}")
    if not density.f0 > 0.0:
        raise DomainError("comparison density requires f(0) > 0")
    lhs = abs_moment(density, exponent)
    rhs = _normal_power(gamma(exponent + 1.0) / _normal_power(2.0 * density.f0, exponent))
    holds = lhs <= rhs * (1.0 + COMPARISON_SLACK)
    return ComparisonCheck(lhs, rhs, holds)
