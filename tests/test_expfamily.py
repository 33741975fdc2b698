import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from lcmoments.crossings import _abs_ebar_terms, _term_rate
from lcmoments.errors import DomainError, NumericalError
from lcmoments.expfamily import (
    TwoSidedExpParams,
    _truncated_exponential_mean,
    abs_moment,
    catalogue,
    centred_gaussian,
    centred_uniform,
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
from oracles import CATALOGUE_ORACLES, case, density_xab, folded_density, half_moments, mp_moment_et, two_sided_oracle


class TestDensityXab:
    def test_one_sided_at_zero(self):
        assert density_xab(TwoSidedExpParams(1.0, 0.0), 0.0) == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_symmetric_laplace_at_zero(self):
        assert density_xab(TwoSidedExpParams(1.0, 1.0), 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_integrates_to_one(self):
        assert sum(half_moments(two_sided_oracle(1.0, 0.5), 0.0)) == pytest.approx(1.0, abs=1e-10)

    def test_random_parameters_normalised_and_centred(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            oracle = two_sided_oracle(*rng.uniform(0.05, 3.0, size=2))
            assert sum(half_moments(oracle, 0.0)) == pytest.approx(1.0, abs=1e-8)
            left, right = half_moments(oracle, 1.0)
            assert right - left == pytest.approx(0.0, abs=1e-8)

    def test_zero_branch_convention(self):
        one_sided = TwoSidedExpParams(1.0, 0.0)
        assert density_xab(one_sided, -1.5) == 0.0
        flipped = TwoSidedExpParams(0.0, 1.0)
        assert density_xab(flipped, 1.5) == 0.0

    @pytest.mark.parametrize("a, b, x", [(1.0, 5e-324, -1.5), (5e-324, 1.0, 1.5), (1.0, 1e-320, -1.5)])
    def test_subnormal_branch_scale_is_zero_without_a_warning(self, a, b, x):
        # (x + a - b) / b overflows to -inf there; exp of it is the right 0
        params = TwoSidedExpParams(a, b)
        with warnings.catch_warnings(), np.errstate(over="warn"):
            warnings.simplefilter("error")
            assert density_xab(params, x) == 0.0
            # half a unit into the other branch, the density is unchanged
            inner = b - a + (0.5 if a > b else -0.5)
            assert density_xab(params, [x, inner]) == pytest.approx([0.0, math.exp(-0.5) / (a + b)], rel=1e-15)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            TwoSidedExpParams(0.0, 0.0)
        with pytest.raises(DomainError):
            TwoSidedExpParams(-1.0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TwoSidedExpParams(math.nan, 1.0),
        lambda: TwoSidedExpParams(1.0, math.nan),
        lambda: TwoSidedExpParams(math.inf, 1.0),
        lambda: TwoSidedExpParams(1.0, math.inf),
        lambda: two_sided_exponential_density(math.inf, 0.5),
        lambda: match_two_sided(0.45, math.inf),
        lambda: match_two_sided(0.45, math.nan),
        lambda: centred_uniform(math.inf),
        lambda: centred_gaussian(math.inf),
        lambda: truncated_exponential(math.inf),
        lambda: truncated_exponential(math.nan),
    ],
    ids=[
        "params-nan-a",
        "params-nan-b",
        "params-inf-a",
        "params-inf-b",
        "two-sided-density-inf",
        "match-inf-l1",
        "match-nan-l1",
        "uniform-inf",
        "gaussian-inf",
        "truncated-inf",
        "truncated-nan",
    ],
)
def test_non_finite_parameters_rejected(call):
    with pytest.raises(DomainError):
        call()


class TestProbPositive:
    def test_symmetric(self):
        assert prob_positive(TwoSidedExpParams(1.0, 1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_one_sided(self):
        assert prob_positive(TwoSidedExpParams(1.0, 0.0)) == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_against_quadrature(self):
        oracle = half_moments(two_sided_oracle(1.0, 0.3), 0.0)[1]
        assert prob_positive(TwoSidedExpParams(1.0, 0.3)) == pytest.approx(oracle, abs=1e-10)

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
        assert sum(half_moments(two_sided_oracle(params.a, params.b), 1.0)) == pytest.approx(1.0, abs=1e-10)

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

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_non_finite_order_rejected(self, p):
        with pytest.raises(DomainError):
            norm_ebar(p, 0.3)

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


def _abs_ebar_density(t: float, x: float) -> float:
    """The density of |E_t| / scale(t) at x >= 0, summed from the terms of
    ``_abs_ebar_terms``: the head up to and including the kink, the tail beyond."""
    kink, head, tail = _abs_ebar_terms(t)
    terms, anchor = (head, 0.0) if x <= kink else (tail, kink)
    return sum(c * math.exp(_term_rate(sign, rho) * (x - anchor)) for c, sign, rho in terms)


class TestDensityAbsEbar:
    """The certificates' exponential terms of the |E_t| / scale(t) density."""

    def test_symmetric_member_is_exponential(self):
        xs = np.linspace(0.0, 10.0, 50)
        assert [_abs_ebar_density(1.0, x) for x in xs] == pytest.approx(np.exp(-xs), rel=1e-13)

    def test_one_sided_value_at_zero(self):
        mu0 = family_scale(0.0)
        assert _abs_ebar_density(0.0, 0.0) == pytest.approx(2.0 * mu0 / math.e, rel=1e-13)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
    def test_integrates_to_one(self, t):
        breaks = [(1.0 - t) / family_scale(t)]
        if t == 0.0:
            breaks.append(1.0 / family_scale(0.0))
        val, _ = integrate.quad(
            lambda x: _abs_ebar_density(t, x), 0.0, 70.0,
            points=breaks, limit=400, epsabs=1e-13, epsrel=1e-12,
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.one_of(
            st.sampled_from([0.0, 0.4, 1.0]), st.floats(1e-300, 1.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e)
        ),
        x=st.floats(0.0, 40.0),
    )
    def test_matches_folded_two_sided_density(self, t, x):
        """The terms, summed piece by piece, against mu (f(mu x) + f(-mu x)) with
        f the density of E_t = X(1, t) and mu = scale(t)."""
        mu = family_scale(t)
        kink = (1.0 - t) / mu
        # at t = 0 the density jumps at the kink, which each route rounds its own way
        assume(t > 0.0 or abs(x - kink) > 1e-12)
        # past the kink the log-density falls at rate mu/t, which turns the rounding
        # of x and of the kink into up to about 2e-16 x/t of the value in either route
        rel = max(1e-12, 5e-16 * x / t) if t > 0.0 else 1e-12
        assert _abs_ebar_density(t, x) == pytest.approx(folded_density(t, x), rel=rel)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_limit_identity_towards_density_at_zero(t):
    # (1+p)/2 * E|Ebar_t|^p converges to the Ebar_t density at 0, which is
    # half the |Ebar_t| density there; extrapolate linearly in (1+p)
    target = _abs_ebar_density(t, 0.0) / 2.0
    mu = family_scale(t)
    v1 = (1.0 - 0.999) / 2.0 * moment_et(-0.999, t) / mu**-0.999
    v2 = (1.0 - 0.9999) / 2.0 * moment_et(-0.9999, t) / mu**-0.9999
    extrapolated = (10.0 * v2 - v1) / 9.0
    assert abs(extrapolated - target) < 1e-3


def test_moment_et_overflow_is_a_numerical_error():
    with pytest.raises(NumericalError):
        moment_et(200.0, 0.5)


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
    with mpmath.workdps(40):
        expected = float(mp_moment_et(p, t))
    assert moment_et(p, t) == pytest.approx(expected, rel=1e-13, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(magnitude=st.floats(-6.0, -2.0), negative=st.booleans(), t=st.floats(0.0, 1.0))
def test_norm_ebar_near_order_zero_matches_mpmath(magnitude, negative, t):
    """1e-8 relative down to |p| = 1e-6, below which norm_ebar raises: the
    power 1/p lifts the moment's rounding, up to 2e-15, by 1/|p|."""
    p = -(10.0**magnitude) if negative else 10.0**magnitude
    with mpmath.workdps(40):
        expected = float(mp_moment_et(p, t) ** (1 / mpmath.mpf(p))) / family_scale(t)
    assert norm_ebar(p, t) == pytest.approx(expected, rel=1e-8, abs=0.0)


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
        oracle = CATALOGUE_ORACLES[density.name]
        left, right = half_moments(oracle, 1.0)
        assert sum(half_moments(oracle, 0.0)) == pytest.approx(1.0, abs=1e-8)
        assert right - left == pytest.approx(0.0, abs=1e-8)
        # discrete log-concavity on the interior of the support
        xs = np.linspace(max(oracle.support[0], -80.0) + 1e-6, min(oracle.support[1], 80.0) - 1e-6, 201)
        vals = np.asarray(oracle.pdf(xs), dtype=float)
        inside = vals > 0.0
        logs = np.log(vals[inside])
        second = logs[:-2] - 2.0 * logs[1:-1] + logs[2:]
        assert np.all(second <= 1e-8)


# scales across the normal floats; branch scales (a, b) in either order, one
# of them possibly 0 or subnormal
_scale = st.floats(1e-300, 1e300)
_branch_scales = st.tuples(_scale, st.one_of(st.just(0.0), st.floats(0.0, 2.2e-308), _scale)).flatmap(st.permutations)


@settings(max_examples=300, deadline=None)
@given(
    pair=st.one_of(
        _branch_scales.map(lambda ab: case(two_sided_exponential_density, *ab)),
        _scale.map(lambda c: case(centred_uniform, c)),
        _scale.map(lambda s: case(centred_gaussian, s)),
        _scale.map(lambda cut: case(truncated_exponential, cut)),
    )
)
def test_f0_is_the_oracle_density_at_zero(pair):
    density, oracle = pair
    assert density.f0 == pytest.approx(float(oracle.pdf(0.0)), rel=1e-15, abs=0.0)


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
        # P(X > 0) is about 0.596 for X(0.5, 1), so it is matched through its
        # mirror X(1, 0.5), which shares E|X|^p and E|X|
        density = two_sided_exponential_density(0.5, 1.0)
        mirror = two_sided_exponential_density(1.0, 0.5)
        for p in (-0.5, 0.5, 1.5, 3.0):
            check, reflected = reduction_check(density, p), reduction_check(mirror, p)
            assert check.holds
            assert check.lhs == pytest.approx(check.rhs, abs=1e-10)
            assert check.lhs == pytest.approx(reflected.lhs, rel=1e-12)
            assert check.rhs == pytest.approx(reflected.rhs, rel=1e-12)


class TestFradeliziCheck:
    def test_double_exponential_is_tight(self):
        density = two_sided_exponential_density(1.0, 1.0)
        for exponent in (2.0, 3.0):
            check = fradelizi_check(density, exponent)
            assert check.holds
            assert check.lhs == pytest.approx(check.rhs, abs=1e-10)

    def test_uniform_square_closed_form(self):
        c = 1.0
        check = fradelizi_check(centred_uniform(c), 2.0)
        assert check.holds
        assert check.lhs == pytest.approx(c**2 / 3.0, rel=1e-10)
        assert check.rhs == pytest.approx(2.0 * c**2, rel=1e-8)

    def test_two_sided_cubic(self):
        assert fradelizi_check(two_sided_exponential_density(1.0, 0.5), 3.0).holds

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 2.5, 3.0])
    def test_comparison_side_matches_laplace_quadrature(self, exponent):
        # the closed form against the Laplace integral by 40-digit quadrature
        for density in catalogue():
            rate = 2.0 * density.f0
            with mpmath.workdps(40):
                laplace = mpmath.quad(lambda x: x**exponent * rate * mpmath.exp(-rate * x), [0, mpmath.inf])
            assert fradelizi_check(density, exponent).rhs == pytest.approx(float(laplace), rel=1e-14)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, 0.5, -1.0])
    def test_exponent_must_be_finite_and_at_least_one(self, exponent):
        with pytest.raises(DomainError):
            fradelizi_check(centred_uniform(1.0), exponent)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_twice_the_laplace_side_fails_at_every_scale(self, scale):
        """Both sides scale as c^3, so the slack must too: the Laplace density
        stays tight, and a moment twice the Laplace side fails at every scale."""
        assert fradelizi_check(two_sided_exponential_density(scale, scale), 3.0).holds
        uniform = centred_uniform(scale)
        doubled = uniform._replace(moment=lambda p: 2.0 * gamma(p + 1.0) / (2.0 * uniform.f0) ** p)
        check = fradelizi_check(doubled, 3.0)
        assert check.lhs == pytest.approx(2.0 * check.rhs, rel=1e-12)
        assert not check.holds


def test_abs_moment_matches_family_closed_form():
    density, oracle = case(two_sided_exponential_density, 1.0, 0.5)
    for p in (-0.5, 0.5, 2.0):
        assert abs_moment(density, p) == pytest.approx(sum(half_moments(oracle, p)), rel=1e-9)


@pytest.mark.parametrize("p", [-0.999, -0.9999])
def test_abs_moment_near_minus_one_matches_closed_forms(p):
    cases = [case(two_sided_exponential_density, 1.0, b) for b in (1.0, 0.5, 0.0)]
    cases += [case(centred_uniform, 1.0), case(centred_gaussian, 1.0)]
    for density, oracle in cases:
        assert abs_moment(density, p) == pytest.approx(sum(half_moments(oracle, p)), rel=1e-8), density.name
    for density in catalogue():
        assert reduction_check(density, p).holds, density.name


@pytest.mark.parametrize("density", catalogue(), ids=lambda d: d.name)
@pytest.mark.parametrize("p", [-0.999, -0.9, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0])
def test_catalogue_closed_forms_match_quadrature(density, p):
    oracle = CATALOGUE_ORACLES[density.name]
    left, right = half_moments(oracle, p)
    assert abs_moment(density, p) == pytest.approx(left + right, rel=1e-12, abs=0.0)
    assert density.prob_positive == pytest.approx(half_moments(oracle, 0.0)[1], rel=0.0, abs=1e-15)


_constructor_scale = st.floats(0.1, 20.0)
_test_cases = st.one_of(
    _constructor_scale.map(lambda a: case(two_sided_exponential_density, a, 0.0)),
    st.tuples(_constructor_scale, _constructor_scale).map(sorted).map(
        lambda ab: case(two_sided_exponential_density, *ab)
    ),
    _constructor_scale.map(lambda c: case(centred_uniform, c)),
    _constructor_scale.map(lambda s: case(centred_gaussian, s)),
    _constructor_scale.map(lambda cut: case(truncated_exponential, cut)),
)


@settings(max_examples=200, deadline=None)
@given(pair=_test_cases, p=st.floats(-0.95, 6.0, exclude_min=True))
def test_closed_forms_match_quadrature_over_parameters(pair, p):
    """The closed forms against the quadrature oracle, at the tolerances the
    oracle requests (relative 1e-10, absolute 1e-12), and f(0) against the
    closed-form moment through 2 f(0) = lim_{p -> -1} (p + 1) E|X|^p."""
    density, oracle = pair
    assert abs_moment(density, p) == pytest.approx(sum(half_moments(oracle, p)), rel=1e-10, abs=1e-12)
    assert density.prob_positive == pytest.approx(half_moments(oracle, 0.0)[1], rel=1e-10, abs=1e-12)
    near = -1.0 + 1e-9
    assert 2.0 * density.f0 == pytest.approx((near + 1.0) * density.moment(near), rel=1e-7)


def _mp_truncated_exponential(cut):
    """Mean, P(X > 0) and E|X| of truncated_exponential(cut) at 40 digits."""
    with mpmath.workdps(40):
        c = mpmath.mpf(cut)
        z = -mpmath.expm1(-c)
        m = 1 - c / mpmath.expm1(c)
        positive = (mpmath.exp(-m) - mpmath.exp(-c)) / z
        # int_0^m (m - y) e^-y dy + int_m^c (y - m) e^-y dy
        first = (m - 1 + 2 * mpmath.exp(-m) - mpmath.exp(-c) * (c - m + 1)) / z
        return float(m), float(positive), float(first)


@settings(max_examples=300, deadline=None)
@given(cut=st.floats(math.log(1e-12), math.log(50.0)).map(math.exp))
def test_truncated_exponential_against_mpmath(cut):
    """Relative 1e-13 over log-uniform cuts: the mean's series below 0.1 and
    expm1 keep the centring and P(X > 0) free of cancellation."""
    density = truncated_exponential(cut)
    mean, positive, first = _mp_truncated_exponential(cut)
    assert _truncated_exponential_mean(cut) == pytest.approx(mean, rel=1e-13, abs=0.0)
    assert density.prob_positive == pytest.approx(positive, rel=1e-13, abs=0.0)
    assert density.moment(1.0) == pytest.approx(first, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("cut", [709.8, 800.0, 1e10, 1e300])
def test_truncated_exponential_past_the_overflow_of_e_cut(cut):
    """Past cut = 709.78 e^cut overflows a float; the density is then the
    exponential shifted by its mean 1, up to a tail below e^-cut."""
    density = truncated_exponential(cut)
    mean, positive, first = _mp_truncated_exponential(cut)
    assert _truncated_exponential_mean(cut) == mean == 1.0
    assert density.prob_positive == pytest.approx(positive, rel=1e-15, abs=0.0)
    assert abs_moment(density, 1.0) == pytest.approx(first, rel=1e-13, abs=0.0)
    with mpmath.workdps(40):
        c, m = mpmath.mpf(cut), mpmath.mpf(1) - mpmath.mpf(cut) / mpmath.expm1(cut)
        for p in (-0.5, 0.5, 3.0):
            f = lambda y: abs(y - m) ** p * mpmath.exp(-y)  # noqa: B023
            moment = (mpmath.quad(f, [0, m, mpmath.inf]) - mpmath.quad(f, [c, mpmath.inf])) / -mpmath.expm1(-c)
            assert abs_moment(density, p) == pytest.approx(float(moment), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: abs_moment(centred_uniform(1e10), 50),
        lambda: abs_moment(centred_gaussian(1e10), 50),
        lambda: abs_moment(two_sided_exponential_density(1e-200, 0.5e-200), 3),
        lambda: reduction_check(two_sided_exponential_density(1e300, 1e300), 3),
        lambda: reduction_check(centred_uniform(1e-10), 50),
        lambda: fradelizi_check(centred_uniform(1e-10), 50),
        lambda: fradelizi_check(centred_gaussian(1e3), 160),
    ],
    ids=[
        "uniform-moment-overflows",
        "gaussian-moment-overflows",
        "family-moment-underflows",
        "reduction-scale-overflows",
        "reduction-scale-underflows",
        "fradelizi-moment-underflows",
        "fradelizi-moment-overflows",
    ],
)
def test_out_of_range_scales_raise_numerical_error(call):
    with pytest.raises(NumericalError):
        call()


@pytest.mark.parametrize("check", [abs_moment, reduction_check, fradelizi_check])
@pytest.mark.parametrize("p", [2049.0, 3000.0, 1e300])
def test_gaussian_orders_past_2048_raise_numerical_error(check, p):
    # 2^(p/2) passes the largest float before Gamma((p+1)/2) is formed
    with pytest.raises(NumericalError):
        check(centred_gaussian(1.0), p)
