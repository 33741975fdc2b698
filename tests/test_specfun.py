import math
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from lcmoments import specfun
from lcmoments.errors import DomainError, NumericalError
from lcmoments.expfamily import abs_moment, moment_et, truncated_exponential
from lcmoments.specfun import (
    _LOG_GAMMA_SERIES,
    _lower_gamma,
    as_order,
    exp_power_integral,
    gamma,
    shifted_exp_moment,
)
from oracles import mp_shifted_exp_moment


def test_gamma_integer_values():
    assert gamma(1.0) == pytest.approx(1.0, abs=0)
    assert gamma(3.0) == pytest.approx(2.0, rel=1e-15)


def test_gamma_against_quadrature_oracle():
    # independent oracle: the defining integral, integrated by scipy directly
    oracle, _ = integrate.quad(
        lambda x: x**2.9414 * math.exp(-x), 0.0, 200.0, epsabs=1e-13, epsrel=1e-12, limit=300
    )
    assert gamma(3.9414) == pytest.approx(oracle, rel=1e-10)


def test_gamma_domain_error():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-1.5)


def test_gamma_recurrence_grid():
    for x in np.arange(0.2, 20.0 + 1e-9, 0.3):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_exp_power_integral_antiderivative_cases():
    assert exp_power_integral(0.0, 2.0) == pytest.approx(math.e**2 - 1.0, rel=1e-12)
    # antiderivative of x e^x is (x-1)e^x, so the integral over [0,1] is 1
    assert exp_power_integral(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def _substitution_oracle(c: float, n: int = 200_001) -> float:
    # brute force: int_0^c x^(-1/2) e^x dx = 2 int_0^sqrt(c) e^(u^2) du, composite Simpson
    us = np.linspace(0.0, math.sqrt(c), n)
    return 2.0 * integrate.simpson(np.exp(us**2), x=us)


def test_exp_power_integral_singular_endpoint():
    oracle = _substitution_oracle(1.0)
    assert exp_power_integral(-0.5, 1.0) == pytest.approx(oracle, abs=1e-8)


def test_exp_power_integral_increasing_in_c():
    values = [exp_power_integral(-0.5, c) for c in np.linspace(0.1, 2.0, 20)]
    assert all(b > a for a, b in zip(values, values[1:]))


def _exp_power_integral_series(p, c):
    """Independent oracle: sum_k c^(p+k+1) / (k! (p+k+1)), fast for c <= 2."""
    total, term_base, fact = 0.0, c ** (p + 1.0), 1.0
    for k in range(200):
        term = term_base / (fact * (p + k + 1.0))
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total
        term_base *= c
        fact *= k + 1.0
    raise AssertionError("series for exp_power_integral did not converge")


@pytest.mark.parametrize("p", [-0.9, -0.5, -0.1, 0.0, 0.7, 1.0, 2.5, 4.0])
@pytest.mark.parametrize("c", [0.25, 1.0, 2.0])
def test_exp_power_integral_matches_series(p, c):
    assert exp_power_integral(p, c) == pytest.approx(
        _exp_power_integral_series(p, c), rel=1e-10
    )


def test_exp_power_integral_small_upper_limit_matches_mpmath():
    # quadrature lost 8.8e-9 (relative) here; the series is exact to rounding
    p, c = 1.47, 1e-3
    with mpmath.workdps(40):
        a, x = mpmath.mpf(p) + 1, mpmath.mpf(c)
        oracle = x**a / a * mpmath.hyp1f1(a, a + 1, x)
    assert exp_power_integral(p, c) == pytest.approx(float(oracle), rel=1e-13, abs=0.0)


def test_exp_power_integral_domain_errors():
    with pytest.raises(DomainError):
        exp_power_integral(-1.0, 1.0)
    with pytest.raises(DomainError):
        exp_power_integral(0.5, -0.1)
    assert exp_power_integral(0.5, 0.0) == 0.0


@pytest.mark.parametrize(
    "call, error",
    [
        # the integral diverges at c = inf
        (lambda: exp_power_integral(2.0, math.inf), DomainError),
        (lambda: exp_power_integral(2.0, math.nan), DomainError),
        # c^(p+1) overflows
        (lambda: exp_power_integral(2.0, 1e308), NumericalError),
        # the series overflows
        (lambda: exp_power_integral(2.0, 800.0), NumericalError),
        (lambda: gamma(math.inf), DomainError),
        (lambda: gamma(math.nan), DomainError),
        (lambda: gamma(172.0), NumericalError),
        # the moment itself, about e^14030, on the series side of u = p+2
        (lambda: shifted_exp_moment(1e4, 1e-3), NumericalError),
    ],
    ids=["epi-inf", "epi-nan", "epi-1e308", "epi-800", "gamma-inf", "gamma-nan", "gamma-172", "sem-1e4"],
)
def test_non_finite_input_or_overflow_fails_loudly(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("p", [-0.5, 0.5, 1.0, 3.0])
def test_shifted_exp_moment_endpoints(p):
    assert shifted_exp_moment(p, 0.0) == 1.0
    assert shifted_exp_moment(p, 1.0) == pytest.approx(gamma(p + 1.0), rel=1e-12)


@pytest.mark.parametrize("t", np.linspace(0.0, 1.0, 11))
def test_shifted_exp_moment_cubic_closed_form(t):
    expected = 2.0 * t**3 + 3.0 * t**2 + 1.0
    assert shifted_exp_moment(3.0, t) == pytest.approx(expected, rel=1e-12)


def test_shifted_exp_moment_against_quadrature_oracle():
    for p, t in [(-0.5, 0.3), (0.5, 0.8), (2.2, 0.99), (4.0, 0.01)]:
        oracle, _ = integrate.quad(
            lambda x: (t * x + 1.0 - t) ** p * math.exp(-x),
            0.0,
            60.0,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=400,
            points=[(1.0 - t) / t] if t > 0.02 else None,
        )
        assert shifted_exp_moment(p, t) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("p", [-0.95, -0.5, 0.5, 2.5, 7.0, 15.0])
@pytest.mark.parametrize("u", [201.0, 1e3, 1e5, 1e9])
def test_shifted_exp_moment_large_u_matches_mpmath(p, u):
    t = 1.0 / (1.0 + u)
    with mpmath.workdps(40):
        oracle = float(mp_shifted_exp_moment(mpmath.mpf(p), mpmath.mpf(t)))
    assert shifted_exp_moment(p, t) == pytest.approx(oracle, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("p", [-0.9, 1.0, 15.0])
@pytest.mark.parametrize("t", [1e-155, 1e-300, 5e-324])
def test_shifted_exp_moment_tiny_t_is_one(p, t):
    # t^p e^u Gamma(p+1, u) would overflow here; u = (1-t)/t is inf at t = 5e-324
    assert shifted_exp_moment(p, t) == pytest.approx(1.0, abs=1e-15)


# t = 0 and 1, the continued fraction at t < 1/(p+3) and the series above it
@pytest.mark.parametrize("t", [0.0, 1e-300, 0.003, 1.0 / 201.0, 0.4, 0.999, 1.0])
@pytest.mark.parametrize("p", [-0.5, 3.0])
def test_moments_are_python_floats_on_every_branch(p, t):
    # the incomplete gamma branch returned numpy.float64
    assert type(shifted_exp_moment(p, t)) is float
    assert type(moment_et(p, t)) is float


def test_shifted_exp_moment_continuity_in_t():
    dt = 1e-4
    ts = np.arange(dt, 1.0, 0.05)
    for p in (-0.5, 2.0):
        for t in ts:
            jump = abs(shifted_exp_moment(p, t + dt) - shifted_exp_moment(p, t))
            assert jump < 50.0 * dt


def test_moment_order_validation():
    assert as_order(0.5) == 0.5
    with pytest.raises(DomainError):
        as_order(-1.0)


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_non_finite_order_rejected(p):
    with pytest.raises(DomainError):
        as_order(p)


_MAX_FLOAT = sys.float_info.max


def _mp_exp_power_integral(p, c):
    with mpmath.workdps(40):
        a, x = mpmath.mpf(p) + 1, mpmath.mpf(c)
        return x**a / a * mpmath.hyp1f1(a, a + 1, x)


def _tolerance(p):
    return 5e-14 if p <= 100.0 else 1e-12


# orders past 110 with t below 1/201, the continued fraction's side of u = p+2
@pytest.mark.parametrize("p, t", [(150.5, 0.0049), (150.5, 0.003), (111.5, 0.0049), (170.5, 0.00387)])
def test_large_order_shifted_moments_match_mpmath(p, t):
    with mpmath.workdps(40):
        oracle = float(mp_shifted_exp_moment(mpmath.mpf(p), mpmath.mpf(t)))
    assert shifted_exp_moment(p, t) == pytest.approx(oracle, rel=1e-12, abs=0.0)


# orders past 170.6, where Gamma(p+1) overflows, on the series side of u = p+2; mpf arguments,
# as t**p of floats underflows to 0.0 in the oracle for the last two
@pytest.mark.parametrize("p, t", [(171.0, 0.5), (200.0, 1.0 / 203.0), (180.0, 0.01), (400.0, 0.9)])
def test_shifted_moments_past_the_gamma_overflow_match_mpmath(p, t):
    with mpmath.workdps(40):
        oracle = mp_shifted_exp_moment(mpmath.mpf(p), mpmath.mpf(t))
    if oracle > _MAX_FLOAT:  # about 3.6e850 at (400, 0.9)
        with pytest.raises(NumericalError):
            shifted_exp_moment(p, t)
    else:
        assert shifted_exp_moment(p, t) == pytest.approx(float(oracle), rel=1e-12, abs=0.0)


_t_values = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0 / 201.0),
    st.floats(0.0, 1e-300),  # subnormal t, where u = (1-t)/t overflows
)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(-1.0, 170.6, exclude_min=True), t=_t_values)
@example(p=-0.9999, t=0.5)
@example(p=99.95437288476207, t=0.009888622855567634)
@example(p=170.6, t=1.0 / 173.6)
@example(p=0.5, t=5e-324)
def test_shifted_exp_moment_matches_mpmath(p, t):
    """Relative 5e-14 up to p = 100 and 1e-12 above, against 40-digit mpmath;
    NumericalError only where the value exceeds the largest float."""
    with mpmath.workdps(40):
        oracle = mp_shifted_exp_moment(mpmath.mpf(p), mpmath.mpf(t)) if t > 0.0 else mpmath.mpf(1)
    try:
        value = shifted_exp_moment(p, t)
    except NumericalError:
        assert oracle > _MAX_FLOAT
        return
    assert value == pytest.approx(float(oracle), rel=_tolerance(p), abs=0.0)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(-1.0, 170.6, exclude_min=True), c=st.floats(0.0, 700.0))
@example(p=-0.9999, c=700.0)
@example(p=170.6, c=1e-3)
@example(p=-0.96875, c=5e-324)  # c^p overflows, c^(p+1) does not
def test_exp_power_integral_matches_mpmath(p, c):
    """Relative 5e-14 up to p = 100 and 1e-12 above, against 40-digit mpmath
    (absolute 1e-300 where the value underflows); NumericalError only past
    the largest float."""
    oracle = _mp_exp_power_integral(p, c)
    try:
        value = exp_power_integral(p, c)
    except NumericalError:
        assert oracle > _MAX_FLOAT
        return
    assert value == pytest.approx(float(oracle), rel=_tolerance(p), abs=1e-300)


def _mp_truncated_exponential_moment(cut, p):
    """E|X|^p of truncated_exponential(cut) at 40 digits: e^-m (int_0^m x^p e^x dx
    + gamma(p+1, cut-m)) / (1 - e^-cut) with m the mean."""
    with mpmath.workdps(40):
        c, a = mpmath.mpf(cut), mpmath.mpf(p) + 1
        m = 1 - c / mpmath.expm1(c)
        below = m**a / a * mpmath.hyp1f1(a, a + 1, m)
        above = mpmath.gammainc(a, 0, c - m, regularized=True) * mpmath.gamma(a)
        return float(mpmath.exp(-m) * (below + above) / -mpmath.expm1(-c))


@settings(max_examples=150, deadline=None)
@given(cut=st.floats(math.log(1e-6), math.log(200.0)).map(math.exp), p=st.floats(-1.0, 20.0, exclude_min=True))
@example(cut=0.0374386888149167, p=19.9)  # gamma(p+1) P(p+1, x) underflowed in P here
def test_truncated_exponential_moments_match_mpmath(cut, p):
    oracle = _mp_truncated_exponential_moment(cut, p)
    assert truncated_exponential(cut).moment(p) == pytest.approx(oracle, rel=5e-14, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(-1.0, exclude_min=True, allow_infinity=False),
    t=st.floats(0.0, 1.0),
    c=st.floats(0.0, allow_infinity=False),
)
@example(p=1e4, t=5e-324, c=1e308)
@example(p=1e4, t=1e-3, c=5.0)
@example(p=1e300, t=1e-310, c=1e308)
@example(p=2.56e305, t=0.5, c=0.0)  # lgamma(p+1) overflows
@example(p=-0.99, t=5e-324, c=5e-324)
def test_every_finite_input_returns_or_raises_a_typed_error(p, t, c):
    """Each special function, the family moment and the truncated exponential's
    moment return a finite float or raise DomainError or NumericalError, within
    a second."""
    calls = [
        lambda: shifted_exp_moment(p, t),
        lambda: exp_power_integral(p, c),
        lambda: moment_et(p, t),
        lambda: abs_moment(truncated_exponential(c), p),
    ]
    for call in calls:
        start = time.perf_counter()
        try:
            value = call()
        except (DomainError, NumericalError):
            pass
        else:
            assert type(value) is float and 0.0 <= value < math.inf
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: exp_power_integral(2.5, 1.0),
        lambda: shifted_exp_moment(2.5, 0.01),  # the continued fraction
        lambda: shifted_exp_moment(2.5, 0.5),  # the lower series
        lambda: shifted_exp_moment(-0.9, 0.5),  # Gautschi's small-order form
        lambda: _lower_gamma(2.5, 10.0),
    ],
    ids=["power-integral", "fraction", "series", "small-order", "lower-gamma"],
)
def test_each_series_and_fraction_stops_at_its_term_cap(monkeypatch, call):
    monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
    with pytest.raises(NumericalError, match="did not converge"):
        call()


def test_legendre_fraction_converges_within_128_steps_just_above_its_switch(monkeypatch):
    # the fraction is slowest just above its switch u = p + 2, most of all near
    # p = -1, where this sweep needs 95 steps; a uniform expansion there would lower the cap
    orders = [-1.0 + 10.0**-k for k in range(12, 0, -1)] + [-0.9 + 0.05 * i for i in range(19)]
    orders += [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 170.0]
    offsets = [10.0 ** (k / 4) for k in range(-56, 5)]  # u - (p + 2), 1e-14 to 10
    points = [(p, 1.0 / (p + 3.0 + offset)) for p in orders for offset in offsets]
    expected = [shifted_exp_moment(p, t) for p, t in points]
    monkeypatch.setattr(specfun, "_MAX_TERMS", 128)
    assert [shifted_exp_moment(p, t) for p, t in points] == expected


@pytest.mark.parametrize("k", range(2, 33))
def test_log_gamma_series_coefficients_match_mpmath_zeta(k):
    """The coefficient (-1)^k zeta(k) / k of log Gamma(1+x) / x, within 2 ulp."""
    with mpmath.workdps(40):
        oracle = float((-1) ** k * mpmath.zeta(k) / k)
    assert abs(_LOG_GAMMA_SERIES[32 - k] - oracle) <= 2 * math.ulp(oracle)
