import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from lcmoments.errors import DomainError
from lcmoments.specfun import (
    QuadratureConfig,
    as_order,
    exp_power_integral,
    gamma,
    integrate_adaptive,
    shifted_exp_moment,
)


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
    # quadrature lost 8.8e-9 (relative) here; the 1F1 form is exact to rounding
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


def _mp_shifted_exp_moment(p: float, t: float) -> float:
    with mpmath.workdps(40):
        p, t = mpmath.mpf(p), mpmath.mpf(t)
        u = (1 - t) / t
        return float(t**p * mpmath.exp(u) * mpmath.gammainc(p + 1, u))


@pytest.mark.parametrize("p", [-0.95, -0.5, 0.5, 2.5, 7.0, 15.0])
@pytest.mark.parametrize("u", [201.0, 1e3, 1e5, 1e9])
def test_shifted_exp_moment_large_u_matches_mpmath(p, u):
    t = 1.0 / (1.0 + u)
    oracle = _mp_shifted_exp_moment(p, t)
    assert shifted_exp_moment(p, t) == pytest.approx(oracle, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("p", [-0.9, 1.0, 15.0])
@pytest.mark.parametrize("t", [1e-155, 1e-300, 5e-324])
def test_shifted_exp_moment_tiny_t_is_one(p, t):
    # t^p u^(p+1) U(1, p+2, u) would overflow here, and hyperu is nan past u ~ 1e154
    assert shifted_exp_moment(p, t) == pytest.approx(1.0, abs=1e-15)


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


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_refinements=0)


def test_integrate_adaptive_breakpoints_and_infinite_range():
    # kinked integrand, split by a breakpoint, against the closed form
    val = integrate_adaptive(lambda x: math.exp(-abs(x - 1.0)), -math.inf, math.inf, points=[1.0])
    assert val == pytest.approx(2.0, rel=1e-10)
