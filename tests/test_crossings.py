import math
from itertools import accumulate, pairwise

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from lcmoments import constants, crossings
from lcmoments.constants import _member_gap, _tie, find_p0
from lcmoments.crossings import (
    SignChangeReport,
    _decomposition_regime,
    _term_rate,
    _exp_sum_bounded,
    _exp_sum_value,
    _exp_sum_zeros,
    _gap_crossings,
    _gap_pieces,
    nonneg_decomposition_check,
    verify_3crossings,
)
from lcmoments.errors import BracketError, CrossingPatternError, DomainError, NumericalError
from lcmoments.expfamily import family_scale, moment_et
from lcmoments.search import bisect_root
from oracles import folded_density, mp_folded_density, mp_interpolant, mp_moment_et, power_gap_ends_positive


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


def _mp_exp_sum(terms, lo, x):
    """The sum of c * exp(rate * (x - lo)) over (c, sign, rho) terms, at the working precision."""
    return mpmath.fsum(c * mpmath.exp(sign * 2 / mpmath.e * mpmath.exp(rho) * (x - lo)) for c, sign, rho in terms)


def _mp_bisection(terms, lo, hi):
    """A zero of the 40-digit sum on [lo, hi], bisected to 1e-48 of the bracket."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        negative = _mp_exp_sum(terms, lo, a) < 0
        for _ in range(160):
            m = (a + b) / 2
            a, b = (m, b) if (_mp_exp_sum(terms, lo, m) < 0) == negative else (a, m)
        return a


def _mp_power_gap_ends_positive(p, q, nodes):
    """Whether x^p - alpha - beta*x - gamma*x^q, pinned at the nodes by the
    40-digit interpolant, has a positive coefficient at its largest exponent;
    the coefficients must alternate in sign by exponent, as Descartes' rule
    says of a gap with three zeros."""
    alpha, beta, gamma_q = mp_interpolant(p, q, nodes)
    signs = [mpmath.sign(c) for _, c in sorted([(p, 1), (0.0, -alpha), (1.0, -beta), (q, -gamma_q)])]
    assert all(a * b == -1 for a, b in pairwise(signs)), signs
    return signs[-1] > 0


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
        zeros, first = _exp_sum_zeros(terms, 0.0, math.inf)
        assert zeros == pytest.approx(sorted(roots), rel=1e-9)
        assert first == ("+" if m % 2 == 0 else "-")

    def test_single_term_never_vanishes(self):
        assert _exp_sum_zeros([_term(-2.0, 0.5)], 0.0, math.inf) == ((), "-")

    def test_cancelling_terms_are_not_certified(self):
        terms = [_term(1.0, -1.0), _term(-1.0, -1.0)]
        with pytest.raises(NumericalError, match="vanishes identically"):
            _exp_sum_zeros(terms, 0.0, 1.0)

    def test_untrusted_sign_names_the_gap_and_the_point(self):
        # at t = 1e-8 the lower gap lies within rounding of zero at x = 0
        with pytest.raises(NumericalError, match=r"density gap E_1e-08 against E_0\.0: the sign at x=0\.0 "):
            _gap_crossings(1e-8, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-20.0, 20.0)), min_size=1, max_size=4),
        lo=st.floats(-5.0, 5.0),
        offset=st.floats(0.0, 30.0),
    )
    def test_value_is_the_bounded_value_bit_for_bit(self, pairs, lo, offset):
        # bisection reads the value alone; the certificate reads the bounded one
        x = lo + offset
        value, bound = _exp_sum_bounded(pairs, lo, x)
        assert _exp_sum_value(pairs, lo, x).hex() == value.hex()
        assert bound >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(coef=st.lists(st.floats(-10.0, 10.0).filter(bool), min_size=1, max_size=4), rates=st.data())
    def test_value_at_the_run_start_is_the_coefficients(self, coef, rates):
        # at lo every exponent is zero, so the certificate reads the sign there off the coefficients
        pairs = [(c, rates.draw(st.floats(-20.0, 20.0))) for c in coef]
        value, bound = _exp_sum_bounded(pairs, 1.5, 1.5)
        assert value.hex() == math.fsum(coef).hex()
        assert bound.hex() == (crossings._SIGN_MARGIN * sum(map(abs, coef))).hex()

    @pytest.mark.parametrize("k, certified", [(127, False), (128, True)])
    def test_sign_at_the_run_start_against_its_bound(self, k, certified):
        # (1 - k u) e^-x - e^-2x at x = 0 is -k u against the bound 64 u (2 - k u), u = 2^-52
        terms = [_term(1.0 - k * 2.0**-52, -1.0), _term(-1.0, -2.0)]
        if certified:
            assert len(_exp_sum_zeros(terms, 0.0, math.inf)[0]) == 1
        else:
            with pytest.raises(NumericalError, match=r"the sign at x=0\.0 "):
                _exp_sum_zeros(terms, 0.0, math.inf)

    @settings(max_examples=300, deadline=None)
    @given(
        signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
        rho=st.floats(-3.0, 3.0),
        apart=st.floats(0.0, 4.0),
        sign=st.sampled_from([1.0, -1.0]),
        power=st.integers(-20, 20),
        ratio=st.floats(1e-12, 1.0, exclude_max=True),
        lo=st.floats(0.0, 10.0),
        past=st.floats(0.0, 1.0),
    )
    def test_two_term_zero_matches_mpmath(self, signs, rho, apart, sign, power, ratio, lo, past):
        # 2^power * (e^(r0 (x - lo)) - ratio * e^(r1 (x - lo))), r0 < r1, vanishes once past lo;
        # the recursion's base case solves it in closed form, within 8 ulps of the 40-digit zero
        keys = sorted({(signs[0], rho), (signs[1], rho + apart)}, key=lambda k: (k[0], k[0] * k[1]))
        assume(len(keys) == 2)
        (s0, r0), (s1, r1) = keys
        with mpmath.workdps(40):
            e0, e1 = mpmath.exp(r0), mpmath.exp(r1)
            # rate difference r0 - r1, through expm1 where the signs agree
            d = s0 * e0 - s1 * e1 if s0 != s1 else -s0 * e0 * mpmath.expm1(mpmath.mpf(r1) - r0)
            root = lo + mpmath.log(ratio) / (2 / mpmath.e * d)
            hi = float(root + (root - lo) * past) + 1.0
        assume(math.isfinite(hi))
        terms = [(math.ldexp(sign, power), s0, r0), (-math.ldexp(sign, power) * ratio, s1, r1)]
        try:
            zeros, first = _exp_sum_zeros(terms, lo, hi)
        except NumericalError:
            assume(False)  # the sign at lo or hi lies within rounding
        assert len(zeros) == 1
        assert lo < zeros[0] < hi
        assert abs(zeros[0] - root) <= 8 * math.ulp(zeros[0])
        assert first == ("+" if sign > 0.0 else "-")

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(-3.0, 1.0),
        steps=st.lists(st.floats(0.25, 2.0), min_size=2, max_size=3),
        sizes=st.lists(st.tuples(st.floats(1.0, 2.0), st.integers(-3, 3)), min_size=4, max_size=4),
        split=st.integers(1, 3),
        sign=st.sampled_from([1.0, -1.0]),
        lo=st.floats(1.0, 5.0),
        width=st.floats(0.1, 12.0),
    )
    def test_one_sign_change_is_settled_by_the_end_signs(self, start, steps, sizes, split, sign, lo, width):
        # three or four terms whose coefficients, by rate, change sign at most
        # once have at most one zero (Descartes' rule): one exactly when the
        # signs at lo and hi differ, within 8 ulps of the 40-digit zero (a
        # zero of at least 1: close to 0 an ulp is finer than the sum's
        # rounding over its slope, which bounds any root finder, and with
        # lo = 0 the zero of 7.5 e^x - 2 e^2x - 5 e^3x, near 0.04, is 8.6 ulps off)
        rates = list(accumulate(steps, initial=start))
        assume(min(map(abs, rates)) > 1e-3)
        coef = [(sign if i < split else -sign) * math.ldexp(m, e) for i, (m, e) in enumerate(sizes[: len(rates)])]
        terms = [_term(c, rate) for c, rate in zip(coef, rates)]
        assert _laguerre_bound(terms) <= 1
        hi = lo + width
        try:
            zeros, first = _exp_sum_zeros(terms, lo, hi)
        except NumericalError:
            assume(False)  # the sign at lo or hi lies within rounding
        with mpmath.workdps(40):
            ends = [_mp_exp_sum(terms, lo, mpmath.mpf(x)) for x in (lo, hi)]
        assert first == ("+" if ends[0] > 0 else "-")
        assert len(zeros) == ((ends[0] < 0) != (ends[1] < 0))
        for x in zeros:
            assert lo < x < hi
            assert abs(x - _mp_bisection(terms, lo, hi)) <= 8 * math.ulp(x)

    def test_root_finder_never_sees_two_terms(self, monkeypatch):
        # a two-term sum changes sign at most once, so Descartes' base case
        # settles it, and its zero is a logarithm
        sizes = []

        def counted(f, lo, hi, **kwargs):
            sizes.append(len(f.args[0]))
            return bisect_root(f, lo, hi, **kwargs)

        monkeypatch.setattr(crossings, "bisect_root", counted)
        for t in np.linspace(0.01, 0.99, 25):
            verify_3crossings(float(t))
            for p in (-0.5, 0.5, 2.0, 3.5):
                nonneg_decomposition_check(float(t), p)
        assert sizes and min(sizes) >= 3


class TestGapPieces:
    @pytest.mark.parametrize("s, t", [(1.0, 0.5), (0.5, 0.0), (0.9, 0.2)])
    def test_pieces_are_the_density_gap(self, s, t):
        for lo, hi, terms in _gap_pieces(s, t):
            top = min(hi, lo + 10.0)
            for x in np.linspace(lo, top, 7)[1:-1]:
                value = sum(c * math.exp(_term_rate(sign, rho) * (x - lo)) for c, sign, rho in terms)
                assert value == pytest.approx(folded_density(s, x) - folded_density(t, x), abs=1e-14)

    def test_family_density_gap(self):
        crossings, pattern = _gap_crossings(1.0, 0.5)
        assert len(crossings) == 3
        assert pattern == "+-+-"


class TestSignChangeReport:
    def test_pattern_must_alternate(self):
        with pytest.raises(DomainError):
            SignChangeReport((1.0, 2.0), "++-")

    def test_lengths_must_match(self):
        with pytest.raises(DomainError):
            SignChangeReport((1.0,), "+-+")

    def test_crossings_must_increase_strictly(self):
        with pytest.raises(DomainError):
            SignChangeReport((1.0, 1.0), "+-+")


class TestVandermondeCoeffs:
    def test_interpolation_residuals(self):
        alpha, beta, gamma_q = map(float, mp_interpolant(-0.5, 3.0, (1.0, 2.0, 3.0)))
        for x in (1.0, 2.0, 3.0):
            interp = alpha + beta * x + gamma_q * x**3.0
            assert interp == pytest.approx(x**-0.5, abs=1e-14)

    @staticmethod
    def _pattern(p, q, nodes):
        alpha, beta, gamma_q = map(float, mp_interpolant(p, q, nodes))
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

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(-0.99, 40.0),
        q=st.floats(2.01, 10.0),
        nodes=st.lists(st.floats(0.01, 30.0), min_size=3, max_size=3, unique=True).map(sorted),
    )
    def test_coefficients_alternate_from_the_rank_of_p(self, p, q, nodes):
        # the theorem the decomposition verdict rests on: pinned at three
        # positive nodes, the power gap's coefficients alternate in sign by
        # exponent, so the rank of p alone gives its sign past the last node
        assume(min(abs(p), abs(p - 1.0), abs(p - q)) > 1e-3)
        assume(min(b / a for a, b in pairwise(nodes)) > 1.001)
        assert _mp_power_gap_ends_positive(p, q, nodes) == power_gap_ends_positive(p, q)


class TestVerify3Crossings:
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_certified_patterns(self, t):
        result = verify_3crossings(t)
        for report in (result.report_upper, result.report_lower):
            assert len(report.crossings) == 3
            assert report.pattern == "+-+-"

    def test_evaluations_per_certificate(self, monkeypatch):
        # a count, not a time, so it cannot flake: with two-term zeros in
        # closed form and Brent's method on the rest, a certificate takes about
        # 53 evaluations of the exponential sums; halving down to adjacent
        # floats took 357 and Brent's method on every run 66
        calls = []

        def counted(pairs, lo, x):
            calls.append(x)
            return _exp_sum_value(pairs, lo, x)

        monkeypatch.setattr(crossings, "_exp_sum_value", counted)
        ts = np.linspace(0.01, 0.99, 99)
        for t in ts:
            verify_3crossings(float(t))
        assert len(calls) / len(ts) <= 58

    def test_frames_and_sign_reads_per_certificate(self, monkeypatch):
        # Descartes' rule settles the pieces whose coefficients change sign
        # once (+--, ++--, ++-) by their end signs and stops the other two one
        # derivative down: 7 frames and about 8.4 bounded reads per
        # certificate, where recursing to two terms took 17 and 13.5
        calls = {"_normalized": 0, "_exp_sum_bounded": 0}

        def counted(name):
            f = getattr(crossings, name)

            def wrapper(*args):
                calls[name] += 1
                return f(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(crossings, name, counted(name))
        ts = np.linspace(0.01, 0.99, 99)
        for t in ts:
            verify_3crossings(float(t))
        assert calls["_normalized"] / len(ts) <= 7
        assert calls["_exp_sum_bounded"] / len(ts) <= 9

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_no_run_end_is_summed_twice(self, monkeypatch, t):
        # the root finder is handed the values the sign checks read at the run ends
        ends, summed = set(), []

        def bounded(pairs, lo, x):
            ends.add((tuple(pairs), lo, x))
            return _exp_sum_bounded(pairs, lo, x)

        def value(pairs, lo, x):
            summed.append((tuple(pairs), lo, x))
            return _exp_sum_value(pairs, lo, x)

        monkeypatch.setattr(crossings, "_exp_sum_bounded", bounded)
        monkeypatch.setattr(crossings, "_exp_sum_value", value)
        verify_3crossings(t)
        assert summed and ends.isdisjoint(summed)

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


def _mp_sign(s, t, x):
    with mpmath.workdps(40):
        gap = mp_folded_density(s, x) - mp_folded_density(t, x)
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


def test_crossings_match_40_digit_roots():
    # every crossing at 99 values of t within 5e-12 relative of the 40-digit
    # gap's root next to it; the t = 0 density's jump is a crossing at its kink
    jump = 1.0 / family_scale(0.0)
    with mpmath.workdps(40):
        for t in map(float, np.linspace(0.01, 0.99, 99)):
            result = verify_3crossings(t)
            for (s, u), report in (((1.0, t), result.report_upper), ((t, 0.0), result.report_lower)):
                for x in report.crossings:
                    if x == jump and u == 0.0:
                        root = mpmath.e / 2
                    else:
                        gap = lambda y: mp_folded_density(s, y) - mp_folded_density(u, y)  # noqa: E731
                        root = mpmath.findroot(gap, (x, x * (1.0 + 1e-10)))
                    assert abs(x - root) <= 5e-12 * root, (t, s, u, x)


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
        assert len(report.crossings) == 3
        assert report.pattern == "+-+-"


def _mp_normalized_moment(q, u):
    """E|E_u|^q / scale(u)^q at mpmath's precision."""
    return mp_moment_et(q, u) / (2 * mpmath.exp(u - 1) / (1 + u)) ** q


def _mp_matching_order(q, t, baseline, bracket):
    """The 40-digit tie of the baseline and t, started from q, checked inside the bracket."""
    with mpmath.workdps(40):
        b, u = mpmath.mpf(baseline), mpmath.mpf(t)
        root = mpmath.findroot(lambda x: _mp_normalized_moment(x, b) - _mp_normalized_moment(x, u), mpmath.mpf(q))
    assert bracket[0] < root < bracket[1]
    return float(root)


class TestMatchingOrder:
    """The matching order from the tie routine at the decomposition regimes'
    brackets, as the tests' oracles read it; the package solves for no q."""

    def test_default_bracket(self):
        q = _tie(1.0, 0.5, 2.0, 4.0, family_scale)
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
        assert _tie(1.0, t, 2.0, 4.0, family_scale) == pytest.approx(qs[flip], abs=2e-4)

    # the decomposition regimes: symmetric baseline on [2, 4] and [p0, 4],
    # one-sided baseline on [2, p0]
    @pytest.mark.parametrize(
        "baseline, bracket",
        [(1.0, (2.0, 4.0)), (1.0, (find_p0(), 4.0)), (0.0, (2.0, find_p0()))],
        ids=["symmetric-2-4", "symmetric-p0-4", "one-sided-2-p0"],
    )
    @pytest.mark.parametrize("t", np.linspace(0.05, 0.95, 10))
    def test_matches_mpmath_root(self, t, baseline, bracket):
        q = _tie(baseline, t, *bracket, family_scale)
        assert q == pytest.approx(_mp_matching_order(q, t, baseline, bracket), rel=1e-12, abs=0.0)

    # near its baseline t's member nearly coincides with it, and the root
    # is resolved less finely (the docstring's accuracy statement)
    @pytest.mark.parametrize(
        "baseline, bracket",
        [(1.0, (2.0, 4.0)), (1.0, (find_p0(), 4.0)), (0.0, (2.0, find_p0()))],
        ids=["symmetric-2-4", "symmetric-p0-4", "one-sided-2-p0"],
    )
    @pytest.mark.parametrize("t", [1e-3, 0.01, 0.99, 0.999])
    def test_matches_mpmath_root_near_the_baseline(self, t, baseline, bracket):
        q = _tie(baseline, t, *bracket, family_scale)
        rel = max(1e-12, 1e-14 / (t - baseline) ** 2)
        assert q == pytest.approx(_mp_matching_order(q, t, baseline, bracket), rel=rel, abs=0.0)

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            _tie(1.0, 0.5, 2.0, 2.1, family_scale)

    def test_root_on_the_trivial_bracket_end_is_a_numerical_error(self):
        # the gap rounds to exactly 0.0 at q = 2, which bisection returned
        with pytest.raises(NumericalError, match="bracket end"):
            _tie(0.0, 1.0313897683787221e-06, 2.0, _P0, family_scale)


def _mp_order_slopes(baseline):
    """(q - q*) / |t - baseline| at 50 digits for |t - baseline| = 1e-3 .. 1e-6, q the
    tie of the baseline with t started near its limit q*: 2 at baseline 0, 4 at 1."""
    end, guess = (2, 2.2) if baseline == 0 else (4, -1.78)
    slopes = []
    with mpmath.workdps(50):
        b = mpmath.mpf(baseline)
        for d in (mpmath.mpf(10) ** -e for e in range(3, 7)):
            t = d if baseline == 0 else 1 - d
            root = mpmath.findroot(lambda x: _mp_normalized_moment(x, b) - _mp_normalized_moment(x, t), end + guess * d)
            slopes.append((root - end) / d)
    return slopes


class TestMatchingOrderLimits:
    """The limits and slopes at which the matching order nears 2 (baseline 0)
    and 4 (baseline 1), from 50-digit roots: what a matching order free of the
    member gap's cancellation must reach near the ends of t."""

    def test_slope_at_the_one_sided_end(self):
        # The log of the normalized moment ratio is (2/3) t^3 + O(t^4) at q = 2,
        # and its q-derivative there is (1 + E log|X| - E X^2 log|X|) t^2 + O(t^3)
        # with X = E - 1, so (q - 2) / t tends to -2 / (3 (1 + both means)).
        with mpmath.workdps(50):
            means = [
                mpmath.quad(lambda x: g(x) * mpmath.exp(-x), [0, 1, mpmath.inf])
                for g in (lambda x: mpmath.log(abs(x - 1)), lambda x: -((x - 1) ** 2) * mpmath.log(abs(x - 1)))
            ]
            limit = -2 / (3 * (1 + sum(means)))
        assert float(means[0]) == pytest.approx(float(-mpmath.ei(1) / mpmath.e), rel=1e-15)
        assert float(limit) == pytest.approx(2.2014906616, abs=1e-10)
        self._assert_tenfold_per_decade(_mp_order_slopes(0), limit)

    def test_slope_at_the_symmetric_end(self):
        # t = 1 is a stationary point of the normalized moments: (4 - q) / (1 - t) -> 16/9
        self._assert_tenfold_per_decade([-s for s in _mp_order_slopes(1)], mpmath.mpf(16) / 9)

    @staticmethod
    def _assert_tenfold_per_decade(slopes, limit):
        distances = [limit - s for s in slopes]
        assert all(d > 0 for d in distances)  # approached from below
        assert 1e-7 < distances[-1] < 1e-5
        for wide, narrow in pairwise(distances):
            assert 9.5 < wide / narrow < 10.5


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
            zeros, first = _exp_sum_zeros([_term(lam, -lam), _term(-nu, -nu)], 0.0, math.inf)
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

    def test_overflowing_order_is_certified(self):
        # x^p overflows a float at the nodes, where the rank rule reads no power
        assert nonneg_decomposition_check(0.5, 1000.0) is True
        _, _, q, nodes, _ = _interpolation(0.5, 1000.0)
        assert _mp_power_gap_ends_positive(1000.0, q, nodes) == power_gap_ends_positive(1000.0, q)

    def test_small_t_never_a_domain_error(self):
        # the matching order used to come back as the bracket end q = 2, and
        # the interpolation then rejected it as out of its domain
        for t in np.geomspace(1e-8, 1e-5, 150):
            try:
                result = nonneg_decomposition_check(float(t), 5.0)
            except (NumericalError, BracketError):
                continue
            assert isinstance(result, bool)

    @pytest.mark.parametrize("t", [1e-7, 4.4e-7])
    def test_a_matching_order_at_p_is_certified(self, t):
        # at p = p0 and t near 0 the matching order lies within 1e-12 above p;
        # the check reads only the bracket (p0, 4), which puts q above p, and
        # the 40-digit root lies there
        p = find_p0()
        assert nonneg_decomposition_check(t, p) is True
        baseline, bracket, _ = _decomposition_regime(p, _P0)
        assert bracket == (p, 4.0)
        q = _mp_matching_order(_tie(baseline, t, *bracket, family_scale), t, baseline, bracket)
        assert p < q < 4.0

    @pytest.mark.parametrize("p", [1e-11, -1e-11, 1.0 - 1e-11, 1.0 + 1e-11])
    def test_coalescing_exponents_are_certified(self, p):
        # x^p nearly coincides with x^0 or x^1, so a float solve puts a
        # coefficient within rounding of zero; the rank rule reads none, and
        # the 40-digit interpolant's signs agree with it
        assert nonneg_decomposition_check(0.5, p) is True
        _, _, q, nodes, _ = _interpolation(0.5, p)
        assert _mp_power_gap_ends_positive(p, q, nodes) == power_gap_ends_positive(p, q)


_P0 = find_p0()

# every regime, kept 1e-6 away from p = 0 and p = 1, where two exponents of
# the power gap coalesce (test_coalescing_exponents_are_certified)
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


# 30 log-spaced distances from an end of t, where the member gap at a bracket
# end cancels toward rounding: O(t) at baseline 0, O((1-t)^2) at baseline 1
_NEAR_END = np.geomspace(1e-5, 1e-2, 30)


@pytest.mark.parametrize(
    "baseline, bracket",
    [(1.0, (2.0, 4.0)), (1.0, (_P0, 4.0)), (0.0, (2.0, _P0))],
    ids=["symmetric-2-4", "symmetric-p0-4", "one-sided-2-p0"],
)
@pytest.mark.parametrize("end", [0, 1], ids=["lower-bracket-end", "upper-bracket-end"])
@pytest.mark.parametrize("near_one", [False, True], ids=["t-near-0", "t-near-1"])
def test_bracket_end_signs_match_40_digits(baseline, bracket, end, near_one):
    # the check reads these signs with no rounding margin; on [1e-5, 1 - 1e-5]
    # they agree with the 40-digit gap, and wrong nonzero signs first appear
    # about 5e-6 from an end
    q = bracket[end]
    ts = [1.0 - float(d) if near_one else float(d) for d in _NEAR_END]
    with mpmath.workdps(40):
        for t in ts:
            exact = _mp_normalized_moment(q, baseline) - _mp_normalized_moment(q, t)
            assert np.sign(_member_gap(q, baseline, t, family_scale)) == mpmath.sign(exact), t


def test_the_matching_order_is_no_public_name():
    # the package solves for no q outside p0 and the 1.68 transition
    import lcmoments

    for module in (lcmoments, crossings):
        with pytest.raises(AttributeError, match="matching_order"):
            module.matching_order
    assert "matching_order" not in lcmoments._LAZY["crossings"]


def _interpolation(t, p):
    """The regime's baseline, whether the product's sign flips (p in (0, 1)),
    the matching order and crossing nodes, and whether density(baseline) -
    density(t) ends positive: selected and re-oriented from both
    ``verify_3crossings`` reports, the check's former route."""
    baseline, bracket, _ = _decomposition_regime(p, _P0)
    flip = 0.0 < p < 1.0
    q = _tie(baseline, t, *bracket, family_scale)
    certificates = verify_3crossings(t)
    # the gap is density(baseline) - density(t): report_upper's orientation,
    # report_lower's negated
    report = certificates.report_upper if baseline == 1.0 else certificates.report_lower
    ends_positive = (report.pattern[-1] == "+") == (baseline == 1.0)
    return baseline, flip, q, report.crossings, ends_positive


@settings(max_examples=40, deadline=None)
@given(t=st.floats(1e-4, 1.0 - 1e-4), p=_regime_p)
def test_coefficient_signs_match_mpmath(t, p):
    # the check's rank rule against the 40-digit interpolant at its own nodes
    _, _, q, nodes, _ = _interpolation(t, p)
    assert _mp_power_gap_ends_positive(p, q, nodes) == power_gap_ends_positive(p, q)


def _sampled_product(t, p):
    """(density gap) * (power gap), negated for p in (0, 1), on 10 000 points
    of (0, 48) plus the breakpoints and nodes: the check's former route."""
    baseline, flip, q, nodes, _ = _interpolation(t, p)
    alpha, beta, gamma_q = map(float, mp_interpolant(p, q, nodes))
    extra = [(1.0 - t) / family_scale(t), (1.0 - baseline) / family_scale(baseline), *nodes]
    xs = np.unique(np.concatenate([np.linspace(0.0, 48.0, 10_002)[1:-1], [x for x in extra if 0.0 < x < 48.0]]))
    density_gap = folded_density(baseline, xs) - folded_density(t, xs)
    product = density_gap * (xs**p - (alpha + beta * xs + gamma_q * xs**q))
    return -product if flip else product


_GRID_T = [0.05, 0.3, 0.5, 0.7, 0.95]
_GRID_P = [-0.9, -0.3, 0.2, 0.8, 1.2, 2.0, 2.8, 3.0, 4.5, 6.0]


@pytest.mark.parametrize("t", _GRID_T)
@pytest.mark.parametrize("p", _GRID_P)
def test_decomposition_agrees_with_the_sampled_product(t, p):
    # the slack absorbs rounding at the nodes, where the product vanishes;
    # rounding outgrows it at large p, where the coefficients grow like x^p
    product = _sampled_product(t, p)
    assert nonneg_decomposition_check(t, p) is bool(product.min() >= -1e-9)
    # the opposite sign would fail the oracle
    assert product.max() > 1e-6


@pytest.mark.parametrize("t", _GRID_T)
@pytest.mark.parametrize("p", _GRID_P)
def test_decomposition_agrees_with_the_two_report_selection(t, p):
    # the check certifies only the gap it reads; the verdict and the nodes
    # match those read from both reports of verify_3crossings
    baseline, flip, q, nodes, ends_positive = _interpolation(t, p)
    assert _gap_crossings(baseline, t)[0] == nodes
    ends_up = _mp_power_gap_ends_positive(p, q, nodes)
    assert nonneg_decomposition_check(t, p) is ((ends_positive == ends_up) != flip)


@settings(max_examples=150, deadline=None)
@given(t=_band_t)
def test_one_sided_gap_is_the_negated_lower_gap(t):
    # density(0) - density(t) is verify_3crossings' lower gap negated term by
    # term, so its crossings agree to the bit and its signs are opposite
    crossings_a, pattern_a = _gap_crossings(0.0, t)
    crossings_b, pattern_b = _gap_crossings(t, 0.0)
    assert [x.hex() for x in crossings_a] == [x.hex() for x in crossings_b]
    assert pattern_a == pattern_b.translate(str.maketrans("+-", "-+"))


@pytest.mark.parametrize("p", [-0.5, 2.0, 3.5])
def test_decomposition_certifies_one_gap(monkeypatch, p):
    # one density gap, and the member gap at the two bracket ends; no root
    calls, member_gaps = [], []

    def counted(s, t):
        calls.append((s, t))
        return _gap_crossings(s, t)

    def counted_member_gap(q, *args):
        member_gaps.append(q)
        return _member_gap(q, *args)

    def no_root(*args, **kwargs):
        raise AssertionError("the check solved for the matching order")

    monkeypatch.setattr(crossings, "_gap_crossings", counted)
    monkeypatch.setattr(crossings, "_member_gap", counted_member_gap)
    monkeypatch.setattr(crossings, "verify_3crossings", None)
    monkeypatch.setattr(constants, "_tie", no_root)
    assert nonneg_decomposition_check(0.5, p) is True
    baseline, bracket, _ = _decomposition_regime(p, _P0)
    assert calls == [(baseline, 0.5)]
    assert member_gaps == list(bracket)


def _former_verdict(t, p):
    """The check's former route: the matching order, the rank rule at it, the
    flip for p in (0, 1), then the one density gap's crossings."""
    baseline, bracket, _ = _decomposition_regime(p, _P0)
    q = _tie(baseline, t, *bracket, family_scale)
    nodes, pattern = _gap_crossings(baseline, t)
    if len(nodes) != 3:
        raise CrossingPatternError(f"{len(nodes)} crossings ({pattern}), not 3")
    return ((pattern[-1] == "+") == power_gap_ends_positive(p, q)) != (0.0 < p < 1.0)


@settings(max_examples=150, deadline=None)
@given(
    t=st.one_of(
        st.floats(1e-4, 1.0 - 1e-4),
        st.floats(-7.0, -4.0).map(lambda e: 10.0**e),
        st.floats(-7.0, -4.0).map(lambda e: 1.0 - 10.0**e),
    ),
    p=_regime_p,
)
def test_decomposition_matches_the_route_through_the_matching_order(t, p):
    # the bracket ends' signs stand in for the root: where the former route
    # returns, the verdicts agree, and where it raises, the check raises the
    # same type
    try:
        expected = _former_verdict(t, p)
    except (BracketError, CrossingPatternError, NumericalError) as exc:
        with pytest.raises(type(exc)):
            nonneg_decomposition_check(t, p)
    else:
        assert nonneg_decomposition_check(t, p) is expected


@settings(max_examples=200, deadline=None)
@given(p=_regime_p, data=st.data())
def test_the_bracket_fixes_the_last_sign(p, data):
    # the fact that makes the root unnecessary: every q inside a regime's
    # bracket gives the rank rule, with the (0, 1) flip, the same last sign
    _, (lo, hi), last_sign = _decomposition_regime(p, _P0)
    q = data.draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
    ends_positive = power_gap_ends_positive(p, q) != (0.0 < p < 1.0)
    assert ("+" if ends_positive else "-") == last_sign
