import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from lcmoments.constants import find_p0
from lcmoments.crossings import (
    SignChangeReport,
    _decomposition_regime,
    _exp_sum_zeros,
    _gap_crossings,
    _gap_pieces,
    matching_order,
    nonneg_decomposition_check,
    vandermonde_coeffs,
    verify_3crossings,
)
from lcmoments.errors import BracketError, CrossingPatternError, DomainError, NumericalError
from lcmoments.expfamily import _term_rate, abs_ebar_breakpoint, density_abs_ebar, family_scale, moment_et


def _term(c, rate):
    """A (c, sign, rho) term of c * exp(rate * (x - lo))."""
    return (c, math.copysign(1.0, rate), math.log(abs(rate) / _term_rate(1.0, 0.0)))


def _laguerre_bound(terms):
    """Sign changes of the coefficients ordered by rate, equal rates merged."""
    merged = {}
    for c, sign, rho in terms:
        rate = _term_rate(sign, rho)
        merged[rate] = merged.get(rate, 0.0) + c
    signs = [c > 0.0 for _, c in sorted(merged.items()) if c != 0.0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class TestExpSumZeros:
    @settings(max_examples=100, deadline=None)
    @given(
        roots=st.lists(st.floats(0.05, 8.0), min_size=1, max_size=3).filter(
            lambda r: np.all(np.diff(sorted(r)) > 1e-3)
        ),
        lead=st.floats(0.2, 3.0),
    )
    def test_roots_of_a_product(self, roots, lead):
        # with y = e^(lead x), y^-(m+1) * prod_j (y - e^(lead r_j)) has rates
        # -lead, ..., -(m+1) lead and vanishes exactly at the r_j
        coeffs = np.poly(np.exp(lead * np.array(roots)))  # highest power of y first
        m = len(roots)
        terms = [_term(c, -lead * (m + 1 - k)) for k, c in zip(range(m, -1, -1), coeffs)]
        zeros, first, certified = _exp_sum_zeros(terms, 0.0, math.inf)
        assert certified
        assert zeros == pytest.approx(sorted(roots), rel=1e-9)
        assert first == ("+" if m % 2 == 0 else "-")

    def test_single_term_never_vanishes(self):
        assert _exp_sum_zeros([_term(-2.0, 0.5)], 0.0, math.inf) == ((), "-", True)

    def test_cancelling_terms_are_not_certified(self):
        terms = [_term(1.0, -1.0), _term(-1.0, -1.0)]
        assert not _exp_sum_zeros(terms, 0.0, 1.0)[2]


class TestGapPieces:
    @pytest.mark.parametrize("s, t", [(1.0, 0.5), (0.5, 0.0), (0.9, 0.2)])
    def test_pieces_are_the_density_gap(self, s, t):
        for lo, hi, terms in _gap_pieces(s, t):
            top = min(hi, lo + 10.0)
            for x in np.linspace(lo, top, 7)[1:-1]:
                value = sum(c * math.exp(_term_rate(sign, rho) * (x - lo)) for c, sign, rho in terms)
                assert value == pytest.approx(density_abs_ebar(s, x) - density_abs_ebar(t, x), abs=1e-14)

    def test_family_density_gap(self):
        crossings, pattern, certified = _gap_crossings(1.0, 0.5)
        assert certified
        assert len(crossings) == 3
        assert pattern == "+-+-"


class TestSignChangeReport:
    def test_pattern_must_alternate(self):
        with pytest.raises(DomainError):
            SignChangeReport((1.0, 2.0), "++-", True)

    def test_lengths_must_match(self):
        with pytest.raises(DomainError):
            SignChangeReport((1.0,), "+-+", True)

    def test_crossings_must_increase_strictly(self):
        with pytest.raises(DomainError):
            SignChangeReport((1.0, 1.0), "+-+", True)


class TestVandermondeCoeffs:
    def test_interpolation_residuals(self):
        alpha, beta, gamma_q = vandermonde_coeffs(-0.5, 3.0, 1.0, 2.0, 3.0)
        for x in (1.0, 2.0, 3.0):
            interp = alpha + beta * x + gamma_q * x**3.0
            assert interp == pytest.approx(x**-0.5, abs=1e-10)

    @staticmethod
    def _pattern(p, q, nodes):
        alpha, beta, gamma_q = vandermonde_coeffs(p, q, *nodes)
        xs = np.linspace(1e-4, nodes[-1] * 3.0, 1000)
        keep = np.all(np.abs(xs[:, None] - np.asarray(nodes)[None, :]) > 1e-3, axis=1)
        xs = xs[keep]
        g = xs**p - (alpha + beta * xs + gamma_q * xs**q)
        segments = [
            xs < nodes[0],
            (xs > nodes[0]) & (xs < nodes[1]),
            (xs > nodes[1]) & (xs < nodes[2]),
            xs > nodes[2],
        ]
        out = ""
        for seg in segments:
            vals = g[seg]
            assert np.all(vals > 0.0) or np.all(vals < 0.0)
            out += "+" if vals[0] > 0.0 else "-"
        return out

    def test_low_order_pattern(self):
        assert self._pattern(-0.5, 3.0, (1.0, 2.0, 3.0)) == "+-+-"

    def test_fractional_order_pattern(self):
        assert self._pattern(0.5, 3.0, (1.0, 2.0, 3.0)) == "-+-+"

    def test_pattern_sign_matches_exponent_product(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            q = rng.uniform(2.1, 6.0)
            p = rng.choice(
                [rng.uniform(-0.9, -0.1), rng.uniform(0.1, 0.9), rng.uniform(1.1, q - 0.1), q + rng.uniform(0.2, 3.0)]
            )
            if min(abs(p), abs(p - 1.0), abs(p - q)) < 1e-2:
                continue
            nodes = np.sort(rng.uniform(0.2, 5.0, size=3))
            if np.min(np.diff(nodes)) < 0.05:
                continue
            pattern = self._pattern(p, q, tuple(nodes))
            expected_first = "+" if (0.0 - p) * (1.0 - p) * (q - p) > 0 else "-"
            assert pattern[0] == expected_first
            assert pattern in ("+-+-", "-+-+")

    def test_degenerate_exponents_rejected(self):
        with pytest.raises(DomainError):
            vandermonde_coeffs(1.0, 3.0, 1.0, 2.0, 3.0)
        with pytest.raises(DomainError):
            vandermonde_coeffs(0.5, 2.0, 1.0, 2.0, 3.0)
        with pytest.raises(DomainError):
            vandermonde_coeffs(0.5, 3.0, 2.0, 1.0, 3.0)

    @pytest.mark.parametrize("p, q", [(math.inf, 3.0), (math.nan, 3.0), (0.5, math.inf), (-math.inf, 3.0)])
    def test_non_finite_exponents_rejected(self, p, q):
        with pytest.raises(DomainError, match="finite"):
            vandermonde_coeffs(p, q, 1.0, 2.0, 3.0)

    @pytest.mark.parametrize("p, q", [(1000.0, 3.0), (0.5, 1000.0)])
    def test_overflow_at_the_nodes(self, p, q):
        with pytest.raises(NumericalError, match="overflow"):
            vandermonde_coeffs(p, q, 1.0, 2.0, 3.0)


class TestVerify3Crossings:
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_certified_patterns(self, t):
        result = verify_3crossings(t)
        for report in (result.report_upper, result.report_lower):
            assert len(report.crossings) == 3
            assert report.pattern == "+-+-"

    def test_lower_report_locates_jump(self):
        # the t = 0 density jumps at e/2; the third-vs-one-sided comparison
        # must place its middle crossing exactly there
        result = verify_3crossings(0.5)
        jump = 1.0 / family_scale(0.0)
        assert min(abs(c - jump) for c in result.report_lower.crossings) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_3crossings(0.0)
        with pytest.raises(DomainError):
            verify_3crossings(1.0)


def _mp_density(t, x):
    """The |Ebar_t| density at 40 digits, from the two-branch formula."""
    t, x = mpmath.mpf(t), mpmath.mpf(x)
    mu = 2 * mpmath.exp(t - 1) / (1 + t)
    y = mu * x
    if y <= 1 - t:
        return mu * mu * mpmath.cosh(y)
    tail = mpmath.exp(-y) + (mpmath.exp((1 - y) / t - t) if t > 0 else 0)
    return mu * mu / 2 * tail


def _mp_sign(s, t, x):
    with mpmath.workdps(40):
        gap = _mp_density(s, x) - _mp_density(t, x)
    assert gap != 0
    return "+" if gap > 0 else "-"


# the certified band, its ends, and t within 1e-5 of each end
_band_t = st.one_of(
    st.sampled_from([1e-6, 1.0 - 1e-6]),
    st.floats(1e-6, 1.0 - 1e-6),
    st.floats(-6.0, -0.3).map(lambda e: 10.0**e),
    st.floats(-6.0, -0.3).map(lambda e: 1.0 - 10.0**e),
    st.floats(1e-6, 1.1e-5),
    st.floats(1.0 - 1.1e-5, 1.0 - 1e-6),
).filter(lambda t: 1e-6 <= t <= 1.0 - 1e-6)


@settings(max_examples=150, deadline=None)
@given(t=_band_t)
def test_certificates_match_mpmath_and_laguerre(t):
    result = verify_3crossings(t)
    rel = max(1e-10, 1e-14 / min(t, 1.0 - t) ** 2)
    for (s, u), report in (((1.0, t), result.report_upper), ((t, 0.0), result.report_lower)):
        assert report.certified
        assert len(report.crossings) == 3
        assert report.pattern == "+-+-"
        # each crossing sits within rel of a sign change of the 40-digit gap;
        # the bracket stops halfway to the neighbouring crossings
        xs = report.crossings
        for i, x in enumerate(xs):
            r = min(rel * x, *(0.5 * abs(y - x) for j, y in enumerate(xs) if j != i))
            assert _mp_sign(s, u, x - r) == report.pattern[i]
            assert _mp_sign(s, u, x + r) == report.pattern[i + 1]
        for lo, hi, terms in _gap_pieces(s, u):
            assert len(_exp_sum_zeros(terms, lo, hi)[0]) <= _laguerre_bound(terms)


_outside_t = st.one_of(
    st.floats(0.0, 1e-6, exclude_min=True, exclude_max=True),
    st.floats(-323.0, -6.0).map(lambda e: 10.0**e),
    st.floats(1.0 - 1e-6, 1.0, exclude_min=True, exclude_max=True),
).filter(lambda t: 0.0 < t < 1.0 and not 1e-6 <= t <= 1.0 - 1e-6)


@settings(max_examples=150, deadline=None)
@given(t=_outside_t)
def test_outside_the_band_certified_or_numerical_error(t):
    try:
        result = verify_3crossings(t)
    except NumericalError:
        return
    for report in (result.report_upper, result.report_lower):
        assert report.certified
        assert len(report.crossings) == 3
        assert report.pattern == "+-+-"


class TestMatchingOrder:
    def test_default_bracket(self):
        q = matching_order(0.5)
        assert 2.0 < q < 4.0
        gap = moment_et(q, 1.0) - moment_et(q, 0.5) / family_scale(0.5) ** q
        assert abs(gap) < 1e-10

    @pytest.mark.parametrize("t", np.linspace(0.05, 0.95, 10))
    def test_gap_signs_at_bracket_ends(self, t):
        def gap(q):
            return moment_et(q, 1.0) - moment_et(q, t) / family_scale(t) ** q

        assert gap(2.0) > 0.0
        assert gap(4.0) < 0.0

    def test_against_dense_grid_locator(self):
        t = 0.3

        def gap(q):
            return moment_et(q, 1.0) - moment_et(q, t) / family_scale(t) ** q

        qs = np.linspace(2.0, 4.0, 20001)
        vals = np.array([gap(q) for q in qs])
        flip = np.nonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0][0]
        assert matching_order(t) == pytest.approx(qs[flip], abs=2e-4)

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            matching_order(0.5, bracket=(2.0, 2.1))

    def test_root_on_the_trivial_bracket_end_is_a_numerical_error(self):
        # the gap rounds to exactly 0.0 at q = 2, which bisection returned
        with pytest.raises(NumericalError, match="bracket end"):
            matching_order(1.0313897683787221e-06, (2.0, _P0), baseline_t=0.0)


class TestSingleCrossingFirstMoment:
    def test_scaled_exponential_differences(self):
        # h = lam e^{-lam x} - nu e^{-nu x} with lam < nu integrates to zero,
        # starts nonpositive and ends nonnegative (one weak sign change), so
        # its first moment must be strictly positive
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = rng.uniform(0.2, 2.0)
            nu = lam + rng.uniform(0.1, 2.0)

            def h(x):
                return lam * math.exp(-lam * x) - nu * math.exp(-nu * x)

            mass, _ = integrate.quad(h, 0.0, 200.0, limit=300, epsabs=1e-13)
            first, _ = integrate.quad(lambda x: x * h(x), 0.0, 200.0, limit=300, epsabs=1e-13)
            assert abs(mass) < 1e-9
            assert first > 1e-6
            zeros, first, certified = _exp_sum_zeros([_term(lam, -lam), _term(-nu, -nu)], 0.0, math.inf)
            assert certified
            assert len(zeros) == 1
            assert first == "-"


class TestNonnegDecomposition:
    @pytest.mark.parametrize("p", [-0.5, 2.0, 3.5])
    def test_reference_regimes(self, p):
        assert nonneg_decomposition_check(0.5, p)

    @pytest.mark.parametrize("t", [0.25, 0.75])
    @pytest.mark.parametrize("p", [-0.5, 2.0, 3.5])
    def test_other_parameters(self, t, p):
        assert nonneg_decomposition_check(t, p)

    def test_fractional_order_flipped_pattern(self):
        assert nonneg_decomposition_check(0.5, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            nonneg_decomposition_check(0.0, 2.0)

    @pytest.mark.parametrize("t, p", [(0.5, 20.0), (0.2, 20.0), (0.8, 30.0), (0.5, 60.0)])
    def test_large_orders(self, t, p):
        # the interpolation coefficients grow like x^p, so rounding at the
        # nodes exceeded any absolute slack a sampled product could carry
        assert nonneg_decomposition_check(t, p) is True

    def test_l1_normalisation_rejected_up_front(self):
        with pytest.raises(DomainError, match="p = 1 is the L1 normalisation"):
            nonneg_decomposition_check(0.5, 1.0)

    def test_infinite_order_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            nonneg_decomposition_check(0.5, math.inf)

    def test_overflowing_order_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="overflow"):
            nonneg_decomposition_check(0.5, 1000.0)

    def test_small_t_never_a_domain_error(self):
        # the matching order used to come back as the bracket end q = 2, and
        # the interpolation then rejected it as out of its domain
        for t in np.geomspace(1e-8, 1e-5, 150):
            try:
                result = nonneg_decomposition_check(float(t), 5.0)
            except (NumericalError, BracketError):
                continue
            assert isinstance(result, bool)

    @pytest.mark.parametrize("p", [1e-11, -1e-11, 1.0 - 1e-11, 1.0 + 1e-11])
    def test_coalescing_exponents_fail_loudly(self, p):
        # x^p nearly coincides with x^0 or x^1, so a solved coefficient lies
        # within rounding of zero and its sign is not trusted
        with pytest.raises(NumericalError):
            nonneg_decomposition_check(0.5, p)


_P0 = find_p0()

# every regime, kept 1e-6 away from p = 0 and p = 1, where two exponents of
# the power gap coalesce (test_coalescing_exponents_fail_loudly)
_regime_p = st.one_of(
    st.floats(-1.0, -1e-6, exclude_min=True),
    st.floats(1e-6, 1.0 - 1e-6),
    st.floats(1.0 + 1e-6, _P0),
    st.floats(_P0, 12.0),
)

# the check's typed failures outside the t range it resolves
_TYPED_ERRORS = (BracketError, CrossingPatternError, DomainError, NumericalError)


@settings(max_examples=120, deadline=None)
@given(t=st.floats(1e-4, 1.0 - 1e-4), p=_regime_p)
def test_decomposition_certified_in_every_regime(t, p):
    assert nonneg_decomposition_check(t, p) is True


@settings(max_examples=60, deadline=None)
@given(
    t=st.one_of(
        st.floats(0.0, 1e-5, exclude_min=True, exclude_max=True),
        st.floats(1.0 - 1e-5, 1.0, exclude_min=True, exclude_max=True),
    ),
    p=_regime_p,
)
def test_decomposition_near_the_ends_true_or_typed_error(t, p):
    try:
        result = nonneg_decomposition_check(t, p)
    except _TYPED_ERRORS:
        return
    assert result is True


def _interpolation(t, p):
    """The regime's baseline, matching order and crossing nodes, as the check picks them."""
    baseline, bracket, flip = _decomposition_regime(p, _P0)
    q = matching_order(t, bracket, baseline_t=baseline)
    certificates = verify_3crossings(t)
    report = certificates.report_upper if baseline == 1.0 else certificates.report_lower
    return baseline, flip, q, report.crossings


@settings(max_examples=40, deadline=None)
@given(t=st.floats(1e-4, 1.0 - 1e-4), p=_regime_p)
def test_coefficient_signs_match_mpmath(t, p):
    _, _, q, nodes = _interpolation(t, p)
    coeffs = vandermonde_coeffs(p, q, *nodes)
    with mpmath.workdps(40):
        xs = [mpmath.mpf(x) for x in nodes]
        exact = mpmath.lu_solve(
            mpmath.matrix([[1, x, x ** mpmath.mpf(q)] for x in xs]),
            mpmath.matrix([x ** mpmath.mpf(p) for x in xs]),
        )
        assert [c > 0.0 for c in coeffs] == [exact[i] > 0 for i in range(3)]


def _sampled_product(t, p):
    """(density gap) * (power gap), negated for p in (0, 1), on 10 000 points
    of (0, 48) plus the breakpoints and nodes: the check's former route."""
    baseline, flip, q, nodes = _interpolation(t, p)
    alpha, beta, gamma_q = vandermonde_coeffs(p, q, *nodes)
    extra = [abs_ebar_breakpoint(t), abs_ebar_breakpoint(baseline), *nodes]
    xs = np.unique(np.concatenate([np.linspace(0.0, 48.0, 10_002)[1:-1], [x for x in extra if 0.0 < x < 48.0]]))
    density_gap = density_abs_ebar(baseline, xs) - density_abs_ebar(t, xs)
    product = density_gap * (xs**p - (alpha + beta * xs + gamma_q * xs**q))
    return -product if flip else product


@pytest.mark.parametrize("t", [0.05, 0.3, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("p", [-0.9, -0.3, 0.2, 0.8, 1.2, 2.0, 2.8, 3.0, 4.5, 6.0])
def test_decomposition_agrees_with_the_sampled_product(t, p):
    # the slack absorbs rounding at the nodes, where the product vanishes;
    # rounding outgrows it at large p, where the coefficients grow like x^p
    product = _sampled_product(t, p)
    assert nonneg_decomposition_check(t, p) is bool(product.min() >= -1e-9)
    # the opposite sign would fail the oracle
    assert product.max() > 1e-6
