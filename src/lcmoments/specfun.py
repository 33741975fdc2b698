"""Special functions of the family moments, in Python floats:

    exp_power_integral(p, c)  = int_0^c x^p e^x dx          (p > -1, c >= 0)
    shifted_exp_moment(p, t)  = E (t*E + 1-t)^p             (E standard exponential)

the first a series of positive terms, the second t^p e^u Gamma(p+1, u) with
u = (1-t)/t (DLMF 8.2).  A series or fraction unconverged after _MAX_TERMS
terms raises NumericalError.  No route of the package integrates.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError, NumericalError

_MAX_TERMS = 5000  # the package's arguments need at most about 1000 (c = 712 in the power integral)
_SMALL_ORDER = 0.25  # |x| below which log Gamma(1+x) / x comes from its series


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
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


def _gamma1p(p: float) -> float:
    """Gamma(p+1) at a valid order p, or inf past the largest float; p Gamma(p) from p = 1 on,
    where p + 1 rounds, which would move Gamma psi(p+1) times as much (5e-14 near p = 64)."""
    try:
        return p * math.gamma(p) if p >= 1.0 else math.gamma(p + 1.0)
    except OverflowError:
        return math.inf


def _finite(value: float, what: str, *args) -> float:
    if not math.isfinite(value):  # the message is formatted only here, off the hot path
        raise NumericalError(what.format(*args) + " overflows a float")
    return value


def _zeta(k: int) -> float:
    """zeta(k), correctly rounded for k = 2..32: 31 terms and the Euler-Maclaurin tail (DLMF 2.10.1)."""
    tail = [b * math.prod(range(k, k + 2 * j - 1)) * 32.0 ** (1 - k - 2 * j)  # B_2j / (2j)! = b
            for j, b in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600), start=1)]
    return math.fsum([m**-k for m in range(1, 32)] + [32.0 ** (1 - k) / (k - 1), 0.5 * 32.0**-k] + tail)


# log Gamma(1+x) / x = -euler_gamma + x sum_{k>=2} (-1)^k zeta(k) x^(k-2) / k (DLMF 5.7.3):
# the coefficients from k = 32 down, past which the terms stay below 1e-20 for |x| < _SMALL_ORDER
_LOG_GAMMA_SERIES = [(-1.0) ** k * _zeta(k) / k for k in range(32, 1, -1)]


def _log_gamma1p_over(x: float) -> float:
    """log Gamma(1+x) / x for 0 < |x| < _SMALL_ORDER, where Gamma(1+x) = 1 + O(x) rounds."""
    total = 0.0
    for coefficient in _LOG_GAMMA_SERIES:
        total = total * x + coefficient
    return x * total - 0.5772156649015329  # Euler's gamma


def _lower_series(a: float, x: float) -> float:
    """S(a, x) = sum_k x^k / (a (a+1) ... (a+k)) = gamma(a, x) x^-a e^x (DLMF 8.7.1), summed until a term
    leaves it unchanged; for -1 <= x <= a+1 the terms fall in size from the first (alternating for x < 0)."""
    term = total = 1.0 / a
    for _ in range(_MAX_TERMS):
        a += 1.0
        term *= x / a
        new = total + term
        if new == total:
            return total
        total = new
    raise NumericalError(f"the incomplete gamma series at x={x} did not converge")


def _upper_fraction(a: float, v: float) -> float:
    """D = x^(a-1) / (e^x Gamma(a, x)) for v = 1/x in [0, 1/(a+1)), by modified Lentz: Legendre's
    fraction (DLMF 8.9.2, contracted), its terms divided by x and x^2 so that x = inf gives 1."""
    tol, n, d = 2.0**-52, 0.0, 0.0  # tol: one ulp of 1
    f = c = 1.0 + (1.0 - a) * v
    for _ in range(_MAX_TERMS):
        n += 1.0
        an, bn = n * v * ((a - n) * v), 1.0 + (n + n + 1.0 - a) * v
        d = 1.0 / ((bn + an * d) or 1e-300)  # Lentz's stand-in for a vanishing denominator
        c = (bn + an / c) or 1e-300
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= tol:
            return f
    raise NumericalError(f"the incomplete gamma fraction at a={a}, v={v} did not converge")


def _lower_gamma(p: float, x: float) -> float:
    """gamma(p+1, x) = int_0^x s^p e^-s ds for a valid order p and x > 0; NumericalError
    past p = 170.6, where Gamma(p+1) overflows (so x^p e^-x stays below e^707)."""
    a, gamma_a = p + 1.0, _finite(_gamma1p(p), "gamma({} + 1)", p)
    if x > a + 1.0:
        return gamma_a - math.exp(p * math.log(x) - x) / _upper_fraction(a, 1.0 / x)
    return x ** (0.5 * p) * math.exp(-x) * _lower_series(a, x) * x ** (0.5 * p) * x


def _power_exp_tail(a: float, c: float) -> float:
    """sum_{k>=1} c^k / (k! (a+k)) for a > 0, summed until a term leaves it unchanged."""
    term, total, k = 1.0, 0.0, 0.0
    for _ in range(_MAX_TERMS):
        k += 1.0
        term *= c / k
        new = total + term / (a + k)
        if new == total:
            return total
        total = new
    raise NumericalError(f"the series sum_k c^k / (k! (a+k)) at a={a}, c={c} did not converge")


def exp_power_integral(p, c: float) -> float:
    """int_0^c x^p e^x dx for p > -1, c >= 0, by the series c^(p+1) sum_k c^k / (k! (p+1+k)) of positive terms.
    A non-finite c raises DomainError; a value past the largest float, or c past 712, NumericalError."""
    p = as_order(p)
    if not 0.0 <= c < math.inf:
        raise DomainError(f"upper limit must be finite and nonnegative, got {c}")
    if not c:
        return 0.0
    try:  # c^(p+1) as c^p c, without the rounding of p + 1
        power = c**p * c
    except OverflowError:  # c^p overflows for subnormal c and p near -1, where p + 1 is exact and c^(p+1) < 1
        power = c ** (p + 1.0) if c < 1.0 else math.inf
    return _finite(power * (1.0 / (p + 1.0) + _power_exp_tail(p + 1.0, c)), "int_0^{} x^{} e^x dx", c, p)


def _shifted_exp_moment(p: float, t: float, gamma_a: float) -> float:
    """shifted_exp_moment, unchecked, given gamma_a = Gamma(p+1) or inf where that overflows."""
    a = p + 1.0
    u = (1.0 - t) / t if t else math.inf  # inf also for subnormal t; the fraction takes t/(1-t)
    if t == 1.0:
        return _finite(gamma_a, "gamma({} + 1)", p)
    lead = math.exp(p * math.log1p(-t))  # (1-t)^p = t^p u^p
    if u > a + 1.0:
        value = lead / _upper_fraction(a, t / (1.0 - t))
    elif a < _SMALL_ORDER:
        # Gautschi's form of Gamma(a, u), free of the cancellation of Gamma(a) against u^a / a
        head = math.expm1(a * _log_gamma1p_over(a)) - math.expm1(a * math.log(u))
        value = t**p * math.exp(u) * (head / a - u**a * _power_exp_tail(a, -u))
    elif gamma_a < math.inf:
        # t^p e^u (Gamma(a) - gamma(a, u)); t^p in halves, as it underflows where Gamma(a) e^u overflows
        half = t ** (0.5 * p)
        value = (half * gamma_a) * (half * math.exp(u)) - lead * u * _lower_series(a, u)
    else:
        # past p = 170.6, t^p e^u Gamma(a) Q(a, u) in logs, with 1 - Q = u^a e^-u S(a, u) / Gamma(a)
        try:
            log_gamma_a = math.lgamma(a)
            log_q = math.log(-math.expm1(a * math.log(u) - u + math.log(_lower_series(a, u)) - log_gamma_a))
            value = math.exp(p * math.log(t) + u + log_gamma_a + log_q)
        except OverflowError:
            value = math.inf
    return _finite(value, "E (t*E + 1-t)^p at p={}, t={}", p, t)


def shifted_exp_moment(p, t: float) -> float:
    """E (t*E + 1-t)^p = int_0^inf (t*x + 1-t)^p e^{-x} dx for t in [0, 1].

    This is t^p e^u Gamma(p+1, u), u = (1-t)/t: for u > p+2 (1-t)^p over Legendre's
    fraction, scaled so that e^u never forms; else Gamma(p+1) less the lower series,
    or Gautschi's form for p < -0.75 (ACM TOMS 5, 1979); past p = 170.6, where
    Gamma(p+1) overflows, the latter in logs, whose rounding grows with p (relative
    5e-13 at p = 1000, 1e-11 at p = 1e4).  NumericalError past the largest float.
    """
    p = as_order(p)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return _shifted_exp_moment(p, t, _gamma1p(p))
