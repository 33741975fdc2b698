import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from lcmoments.errors import DomainError, NumericalError
from lcmoments.expfamily import (
    TwoSidedExpParams,
    abs_moment,
    catalogue,
    centred_gaussian,
    centred_uniform,
    convex_power,
    density_abs_ebar,
    density_xab,
    family_scale,
    fradelizi_check,
    match_two_sided,
    moment_et,
    norm_ebar,
    prob_positive,
    reduction_check,
    truncated_exponential,
    two_sided_exponential_density,
)
from lcmoments.specfun import gamma


def _quad_density(params, lo=-80.0, hi=80.0, weight=None):
    f = (lambda x: density_xab(params, x)) if weight is None else (
        lambda x: weight(x) * density_xab(params, x)
    )
    val, _ = integrate.quad(
        f, lo, hi, points=[params.breakpoint, 0.0], limit=400, epsabs=1e-13, epsrel=1e-12
    )
    return val


class TestDensityXab:
    def test_one_sided_at_zero(self):
        assert density_xab(TwoSidedExpParams(1.0, 0.0), 0.0) == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_symmetric_laplace_at_zero(self):
        assert density_xab(TwoSidedExpParams(1.0, 1.0), 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_integrates_to_one(self):
        assert _quad_density(TwoSidedExpParams(1.0, 0.5)) == pytest.approx(1.0, abs=1e-10)

    def test_random_parameters_normalised_and_centred(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            a, b = rng.uniform(0.05, 3.0, size=2)
            params = TwoSidedExpParams(a, b)
            assert _quad_density(params) == pytest.approx(1.0, abs=1e-8)
            assert _quad_density(params, weight=lambda x: x) == pytest.approx(0.0, abs=1e-8)

    def test_zero_branch_convention(self):
        one_sided = TwoSidedExpParams(1.0, 0.0)
        assert density_xab(one_sided, -1.5) == 0.0
        flipped = TwoSidedExpParams(0.0, 1.0)
        assert density_xab(flipped, 1.5) == 0.0

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            TwoSidedExpParams(0.0, 0.0)
        with pytest.raises(DomainError):
            TwoSidedExpParams(-1.0, 1.0)


class TestProbPositive:
    def test_symmetric(self):
        assert prob_positive(TwoSidedExpParams(1.0, 1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_one_sided(self):
        assert prob_positive(TwoSidedExpParams(1.0, 0.0)) == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_against_quadrature(self):
        params = TwoSidedExpParams(1.0, 0.3)
        oracle, _ = integrate.quad(
            lambda x: density_xab(params, x), 0.0, 80.0, epsabs=1e-13, epsrel=1e-12, limit=300
        )
        assert prob_positive(params) == pytest.approx(oracle, abs=1e-10)

    def test_range_when_a_dominates(self):
        for b in np.linspace(0.0, 1.0, 21):
            val = prob_positive(TwoSidedExpParams(1.0, b))
            assert 1.0 / math.e - 1e-14 <= val <= 0.5 + 1e-14

    def test_swap_branch(self):
        assert prob_positive(TwoSidedExpParams(0.3, 1.0)) == pytest.approx(
            1.0 - prob_positive(TwoSidedExpParams(1.0, 0.3)), rel=1e-14
        )


class TestMatchTwoSided:
    def test_symmetric_case(self):
        params = match_two_sided(0.5, 1.0)
        assert params.a == pytest.approx(1.0, rel=1e-12)
        assert params.b == pytest.approx(1.0, rel=1e-12)

    def test_one_sided_case(self):
        params = match_two_sided(1.0 / math.e, 2.0 / math.e)
        assert params.a == pytest.approx(1.0, rel=1e-12)
        assert params.b == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        params = match_two_sided(0.45, 1.0)
        assert prob_positive(params) == pytest.approx(0.45, abs=1e-10)
        # E|X| = 2 a P(X > 0) for the matched two-sided exponential
        l1, _ = integrate.quad(
            lambda x: abs(x) * density_xab(params, x), -60.0, 60.0,
            points=[params.breakpoint, 0.0], limit=300, epsabs=1e-13, epsrel=1e-12,
        )
        assert l1 == pytest.approx(1.0, abs=1e-10)

    def test_round_trip_grid(self):
        for alpha in np.linspace(1.0 / math.e, 0.5, 9):
            for l1 in (0.25, 1.0, 3.0):
                params = match_two_sided(alpha, l1)
                assert prob_positive(params) == pytest.approx(alpha, abs=1e-10)
                assert 2.0 * params.a * prob_positive(params) == pytest.approx(l1, rel=1e-10)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            match_two_sided(0.2, 1.0)


class TestMomentEt:
    @pytest.mark.parametrize("p", [-0.5, 0.5, 2.0, 3.7])
    def test_symmetric_endpoint_is_gamma(self, p):
        assert moment_et(p, 1.0) == pytest.approx(gamma(p + 1.0), rel=1e-12)

    @pytest.mark.parametrize("t", np.linspace(0.0, 1.0, 9))
    def test_low_moment_polynomials(self, t):
        assert moment_et(2.0, t) == pytest.approx(1.0 + t * t, rel=1e-10)
        assert moment_et(4.0, t) == pytest.approx(9.0 * t**4 + 6.0 * t**2 + 9.0, rel=1e-10)
        cubic = 2.0 * (6.0 * math.exp(t - 1.0) / (1.0 + t) + t**3 - 1.0)
        assert moment_et(3.0, t) == pytest.approx(cubic, rel=1e-10)

    def test_first_moment_is_the_scale(self):
        for t in np.linspace(0.0, 1.0, 1000):
            assert moment_et(1.0, t) == pytest.approx(family_scale(t), abs=1e-10)


class TestNormEbar:
    def test_symmetric_endpoint(self):
        for p in (-0.5, 0.5, 2.0, 3.0):
            assert norm_ebar(p, 1.0) == pytest.approx(gamma(p + 1.0) ** (1.0 / p), rel=1e-12)

    def test_recorded_third_moment_two_decimals(self):
        assert abs(norm_ebar(3.0, 0.2) ** 3 - 5.97) < 0.01

    def test_one_sided_second_moment(self):
        assert norm_ebar(2.0, 0.0) ** 2 == pytest.approx(math.e**2 / 4.0, rel=1e-12)

    def test_p_zero_rejected(self):
        with pytest.raises(DomainError):
            norm_ebar(0.0, 0.5)

    def test_second_norm_strictly_increasing(self):
        ts = np.linspace(0.0, 1.0, 200)
        vals = [norm_ebar(2.0, t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_fourth_norm_strictly_decreasing(self):
        ts = np.linspace(0.0, 1.0, 200)
        vals = [norm_ebar(4.0, t) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_third_norm_unimodal(self):
        ts = np.linspace(0.0, 1.0, 200)
        vals = np.array([norm_ebar(3.0, t) for t in ts])
        diffs = np.diff(vals)
        # strictly decreasing then strictly increasing: exactly one sign flip
        flips = np.sum((diffs[:-1] < 0) & (diffs[1:] > 0))
        assert flips == 1
        assert np.all(diffs[diffs != 0][:1] < 0) and vals[-1] > vals.min()


class TestDensityAbsEbar:
    def test_symmetric_member_is_exponential(self):
        xs = np.linspace(0.0, 10.0, 50)
        assert density_abs_ebar(1.0, xs) == pytest.approx(np.exp(-xs), rel=1e-13)

    def test_one_sided_value_at_zero(self):
        mu0 = family_scale(0.0)
        assert density_abs_ebar(0.0, 0.0) == pytest.approx(2.0 * mu0 / math.e, rel=1e-13)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
    def test_integrates_to_one(self, t):
        breaks = [(1.0 - t) / family_scale(t)]
        if t == 0.0:
            breaks.append(1.0 / family_scale(0.0))
        val, _ = integrate.quad(
            lambda x: density_abs_ebar(t, x), 0.0, 70.0,
            points=breaks, limit=400, epsabs=1e-13, epsrel=1e-12,
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_matches_folded_two_sided_density(self):
        t = 0.4
        mu = family_scale(t)
        params = TwoSidedExpParams(1.0, t)
        for x in (0.0, 0.2, 0.7, 1.3, 4.0):
            folded = mu * (density_xab(params, mu * x) + density_xab(params, -mu * x))
            assert density_abs_ebar(t, x) == pytest.approx(folded, rel=1e-12)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            density_abs_ebar(0.5, -0.1)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_limit_identity_towards_density_at_zero(t):
    # (1+p)/2 * E|Ebar_t|^p converges to the Ebar_t density at 0, which is
    # half the |Ebar_t| density there; extrapolate linearly in (1+p)
    target = density_abs_ebar(t, 0.0) / 2.0
    mu = family_scale(t)
    v1 = (1.0 - 0.999) / 2.0 * moment_et(-0.999, t) / mu**-0.999
    v2 = (1.0 - 0.9999) / 2.0 * moment_et(-0.9999, t) / mu**-0.9999
    extrapolated = (10.0 * v2 - v1) / 9.0
    assert abs(extrapolated - target) < 1e-3


def test_moment_et_overflow_is_a_numerical_error():
    with pytest.raises(NumericalError):
        moment_et(200.0, 0.5)


def _mp_moment_et(p: float, t: float) -> float:
    """E|E_t|^p at 40 digits from the three-term formula, each term by mpmath."""
    with mpmath.workdps(40):
        p, t = mpmath.mpf(p), mpmath.mpf(t)
        c = 1 - t
        head = c ** (p + 1) / (p + 1) * mpmath.hyp1f1(p + 1, p + 2, c) + mpmath.gamma(p + 1)
        total = mpmath.exp(t - 1) / (1 + t) * head
        if t > 0:
            u = (1 - t) / t
            total += t / (1 + t) * t**p * mpmath.exp(u) * mpmath.gammainc(p + 1, u)
        return float(total)


# t = 0 and t = 1, the whole interval, the range t < 1/201 where the shifted
# moment leaves the incomplete-gamma branch, and tiny t down to 1e-300
_family_t = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0 / 201.0),
    st.floats(-300.0, -2.31).map(lambda e: 10.0**e),
)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(-1.0, 15.0, exclude_min=True), t=_family_t)
def test_moment_et_matches_mpmath(p, t):
    assert moment_et(p, t) == pytest.approx(_mp_moment_et(p, t), rel=1e-13, abs=0.0)


class TestFamilyPoint:
    """A point t of the family and its L1 scale."""

    def test_scale_endpoints(self):
        assert family_scale(0.0) == pytest.approx(2.0 / math.e, rel=1e-15)
        assert family_scale(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_scale_strictly_increasing(self):
        ts = np.linspace(0.0, 1.0, 500)
        vals = [family_scale(t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            family_scale(1.5)


class TestCatalogue:
    @pytest.mark.parametrize("density", catalogue(), ids=lambda d: d.name)
    def test_normalised_centred_logconcave(self, density):
        lo, hi = density.support
        lo_c, hi_c = max(lo, -80.0), min(hi, 80.0)
        pts = [b for b in (*density.breakpoints, 0.0) if lo_c < b < hi_c]
        mass, _ = integrate.quad(
            lambda x: float(density.pdf(x)), lo_c, hi_c, points=pts, limit=400,
            epsabs=1e-13, epsrel=1e-12,
        )
        mean, _ = integrate.quad(
            lambda x: x * float(density.pdf(x)), lo_c, hi_c, points=pts, limit=400,
            epsabs=1e-13, epsrel=1e-12,
        )
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(0.0, abs=1e-8)
        # discrete log-concavity on the interior of the support
        xs = np.linspace(lo_c + 1e-6, hi_c - 1e-6, 201)
        vals = np.asarray(density.pdf(xs), dtype=float)
        inside = vals > 0.0
        logs = np.log(vals[inside])
        second = logs[:-2] - 2.0 * logs[1:-1] + logs[2:]
        assert np.all(second <= 1e-8)


class TestReductionCheck:
    def test_family_member_is_tight(self):
        density = two_sided_exponential_density(1.0, 0.5)
        for p in (-0.5, 3.0):
            check = reduction_check(density, p)
            assert check.holds
            assert check.lhs == pytest.approx(check.rhs, abs=1e-10)

    def test_uniform_negative_order(self):
        assert reduction_check(centred_uniform(1.0), -0.5).holds

    def test_gaussian_cubic(self):
        assert reduction_check(centred_gaussian(1.0), 3.0).holds

    def test_concave_range_direction(self):
        check = reduction_check(centred_uniform(1.0), 0.5)
        assert check.holds
        assert check.lhs >= check.rhs - 1e-10

    def test_asymmetric_density_reflection_path(self):
        assert reduction_check(truncated_exponential(2.0), 2.0).holds


class TestFradeliziCheck:
    def test_double_exponential_is_tight(self):
        density = two_sided_exponential_density(1.0, 1.0)
        for phi in (convex_power(2.0), convex_power(3.0)):
            check = fradelizi_check(density, phi)
            assert check.holds
            assert check.lhs == pytest.approx(check.rhs, abs=1e-10)

    def test_uniform_square_closed_form(self):
        c = 1.0
        check = fradelizi_check(centred_uniform(c), convex_power(2.0))
        assert check.holds
        assert check.lhs == pytest.approx(c**2 / 3.0, rel=1e-10)
        assert check.rhs == pytest.approx(2.0 * c**2, rel=1e-8)

    def test_two_sided_cubic(self):
        assert fradelizi_check(two_sided_exponential_density(1.0, 0.5), convex_power(3.0)).holds


def test_abs_moment_matches_family_closed_form():
    density = two_sided_exponential_density(1.0, 0.5)
    for p in (-0.5, 0.5, 2.0):
        assert abs_moment(density, p) == pytest.approx(moment_et(p, 0.5), rel=1e-9)
