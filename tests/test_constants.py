import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lcmoments.constants import (
    branch_gap,
    find_l2_transition,
    find_p0,
    lp_lq_ratio,
    scan_family_extrema,
    scan_l2_ratio,
    sharp_constant,
    small_t_bound_coefficient,
)
from lcmoments import constants
from lcmoments.constants import _MAX_GRID, _grid_extremum, _member_gap, _tie
from lcmoments.errors import DomainError
from lcmoments.expfamily import _member_norms, abs_moment, catalogue, family_scale, fradelizi_check, norm_ebar
from lcmoments.expfamily import two_sided_exponential_density
from lcmoments.specfun import gamma
import enclosures
from oracles import mp_moment_et


def test_p0_matches_mpmath_root():
    with mpmath.workdps(40):
        root = mpmath.findroot(
            lambda p: mpmath.gamma(p + 1) - (mpmath.e / 2) ** p * mp_moment_et(p, 0), 2.94
        )
    assert abs(find_p0() - float(root)) <= 1e-14


def test_l2_transition_matches_mpmath_root():
    with mpmath.workdps(40):
        root = mpmath.findroot(
            lambda p: mpmath.gamma(p + 1) ** (1 / p) / mpmath.sqrt(2) - mp_moment_et(p, 0) ** (1 / p),
            1.68,
        )
    assert abs(find_l2_transition() - float(root)) <= 1e-14


# 50-digit interval enclosures prove each gap's sign 1e-14 to either side of
# the computed root, so the exact root lies within 1e-14 of it
def test_p0_enclosed_within_1e_14():
    p0 = find_p0()
    assert enclosures.branch_gap(p0 - 1e-14).a > 0 > enclosures.branch_gap(p0 + 1e-14).b


def test_l2_transition_enclosed_within_1e_14():
    p = find_l2_transition()
    assert enclosures.l2_gap(p - 1e-14).b < 0 < enclosures.l2_gap(p + 1e-14).a


def _relative_distance(value, interval):
    """The distance from a float to an interval, relative to the float."""
    outside = max(interval.a - value, value - interval.b, 0)
    return float(outside) / abs(value)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 2.94, 2.95, 3.0, 4.0, 6.0, 8.0, 20.0])
def test_sharp_constant_within_its_enclosure(p):
    assert _relative_distance(sharp_constant(p), enclosures.sharp_constant(p)) <= 1e-15


# the orders straddle the series switch at |p| = 0.25 in lp_lq_ratio
@pytest.mark.parametrize("q", [1.0, 2.0, 2.9])
@pytest.mark.parametrize("p", [-0.9, -0.5, -1e-3, 1e-3, 0.1, 0.24, 0.26, 0.5, 1.0])
def test_lp_lq_ratio_within_its_enclosure(p, q):
    assert _relative_distance(lp_lq_ratio(p, q), enclosures.lp_lq_ratio(p, q)) <= 1e-15


class TestSharpConstant:
    def test_order_two_is_sqrt2(self):
        assert sharp_constant(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_branches_tie_at_crossover(self):
        p0 = find_p0()
        symmetric = gamma(p0 + 1.0) ** (1.0 / p0)
        one_sided = sharp_constant(p0)
        assert symmetric == pytest.approx(one_sided, abs=1e-8)

    def test_order_four_one_sided_branch(self):
        assert sharp_constant(4.0) == pytest.approx(0.5 * math.e * 9.0**0.25, rel=1e-10)
        assert sharp_constant(4.0) == pytest.approx(2.3540, abs=2e-4)

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            sharp_constant(0.5)


class TestBranchGap:
    def test_zero_at_one(self):
        assert abs(branch_gap(1.0)) < 1e-12

    def test_bracketing_signs(self):
        assert branch_gap(2.9414) > 1e-5
        assert branch_gap(2.9415) < -1e-5

    def test_unique_sign_change_on_bracket(self):
        ps = np.linspace(2.0, 4.0, 1000)
        signs = np.sign([branch_gap(p) for p in ps])
        assert np.sum(signs[1:] != signs[:-1]) == 1

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_order_rejected(self, p):
        with pytest.raises(DomainError):
            branch_gap(p)


class TestFindP0:
    def test_bracketed_value(self):
        p0 = find_p0()
        assert 2.9414 < p0 < 2.9415

    def test_root_residual(self):
        assert abs(branch_gap(find_p0())) < 1e-12

    def test_constant_continuous_at_crossover(self):
        p0 = find_p0()
        assert abs(sharp_constant(p0 - 1e-6) - sharp_constant(p0 + 1e-6)) < 1e-4


@pytest.mark.parametrize(
    "tie",
    [find_p0.__wrapped__, find_l2_transition, lambda: _tie(1.0, 0.5, 2.0, 4.0, family_scale)],
    ids=["p0", "l2-transition", "matching-order"],
)
def test_gap_evaluations_per_tie(tie, monkeypatch):
    # a count, not a time: Brent's method takes 12 to 14, halving to adjacent floats took 50 to 54
    calls = []

    def counted(*args):
        calls.append(args)
        return _member_gap(*args)

    monkeypatch.setattr(constants, "_member_gap", counted)
    tie()
    assert 0 < len(calls) <= 20


class TestClosedFormConstants:
    # the lower L_p-L_1 and L_p-L_2 constants are lp_lq_ratio at q = 1 and q = 2

    def test_lp_l2_lower_at_one(self):
        assert lp_lq_ratio(1.0, 2.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)

    def test_lp_lq_ratio(self):
        for p, q in [(-0.5, 1.3), (0.5, 2.5), (1.0, 2.9)]:
            with mpmath.workdps(40):
                expected = mpmath.gamma(p + 1) ** (1 / mpmath.mpf(p)) / mpmath.gamma(q + 1) ** (1 / mpmath.mpf(q))
            assert lp_lq_ratio(p, q) == pytest.approx(float(expected), rel=1e-14)

    def test_lp_l1_lower_negative_order(self):
        assert lp_lq_ratio(-0.5, 1.0) == pytest.approx(gamma(0.5) ** (-2.0), rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(magnitude=st.floats(-17.0, 0.0), negative=st.booleans(), q=st.floats(1.0, 2.94))
    @example(magnitude=-17.0, negative=False, q=1.0)  # e^(-euler_gamma), not 1.0
    @example(magnitude=-14.0, negative=True, q=2.0)
    @example(magnitude=-8.0, negative=False, q=2.0)
    @example(magnitude=math.log10(1.04e-3), negative=False, q=1.0)  # where Gamma(1+p)^(1/p) is 2e-13 off
    @example(magnitude=-2.0, negative=True, q=1.0)
    @example(magnitude=math.log10(0.2), negative=True, q=1.0)
    @example(magnitude=math.log10(0.2499), negative=True, q=1.07)
    @example(magnitude=math.log10(0.2501), negative=True, q=1.07)
    def test_lp_lq_ratio_against_mpmath_at_any_order(self, magnitude, negative, q):
        """1.2e-15 relative where the series for log Gamma(1+p)/p takes over, |p|
        below 0.25: the series holds about 2e-16, Gamma(1+q)^(1/q) up to 7.4e-16
        (100,000 random q) and the division half an ulp.  Above, Gamma(1+p)^(1/p)
        lifts the rounding of Gamma(1+p) by 1/|p| and that of 1/p by
        |log Gamma(1+p) / p|, which grows as p -> -1."""
        p = -(10.0**magnitude) if negative else 10.0**magnitude
        assume(p > -1.0)
        with mpmath.workdps(40):
            mp, mq = mpmath.mpf(p), mpmath.mpf(q)
            expected = mpmath.exp(mpmath.loggamma(1 + mp) / mp - mpmath.loggamma(1 + mq) / mq)
        rel = 1.2e-15 if abs(p) < 0.25 else 2e-15 + 1e-15 * (1.0 + abs(math.lgamma(1.0 + p))) / abs(p)
        assert lp_lq_ratio(p, q) == pytest.approx(float(expected), rel=rel, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lp_lq_ratio(1.5, 1.0)
        with pytest.raises(DomainError):
            lp_lq_ratio(0.0, 2.0)
        with pytest.raises(DomainError):
            lp_lq_ratio(0.5, 3.5)


# the lower bound's end p -> -1, where (1+p)/2 E|X|^p tends to f(0)
_NEAR_MINUS_ONE = -1.0 + 1e-7
_WEBB_ORDERS = (1.0, 1.5, 2.0, 2.5, find_p0())


def _lower_bound_sides(density, q):
    """lp_lq_ratio(p, q) ||X||_q and ||X||_p at p = -1 + 1e-7."""
    p = _NEAR_MINUS_ONE
    return lp_lq_ratio(p, q) * abs_moment(density, q) ** (1.0 / q), abs_moment(density, p) ** (1.0 / p)


class TestLowerBoundNearMinusOne:
    """As p -> -1, ||X||_p >= lp_lq_ratio(p, q) ||X||_q becomes Fradelizi's
    f(0) ||X||_q <= Gamma(q+1)^(1/q) / 2, which at q = 2 on a section, where
    ||X||_2 = 1, is Webb's ceiling f(0) <= 2^(-1/2): one inequality."""

    @pytest.mark.parametrize("q", _WEBB_ORDERS)
    @pytest.mark.parametrize("density", catalogue(), ids=lambda d: d.name)
    def test_the_bound_tends_to_fradelizi(self, density, q):
        lower, norm_p = _lower_bound_sides(density, q)
        # the symmetric exponential attains the bound, up to rounding
        assert lower <= norm_p * (1.0 + 1e-14)
        fradelizi = density.f0 * abs_moment(density, q) ** (1.0 / q) / (gamma(q + 1.0) ** (1.0 / q) / 2.0)
        assert lower / norm_p == pytest.approx(fradelizi, abs=1e-6)
        assert fradelizi_check(density, q).holds

    @pytest.mark.parametrize("q", _WEBB_ORDERS)
    def test_equality_at_the_symmetric_exponential(self, q):
        lower, norm_p = _lower_bound_sides(two_sided_exponential_density(1.0, 1.0), q)
        assert lower / norm_p == pytest.approx(1.0, abs=1e-6)

    def test_at_order_two_the_bound_is_webbs_ceiling(self):
        assert gamma(3.0) ** 0.5 / 2.0 == pytest.approx(2.0**-0.5, rel=1e-15)

    def test_one_sided_member_ties_at_p0_and_one(self):
        # p0 is the order where E_0's normalized L_q norm ties with E_1's, as at q = 1
        one_sided = two_sided_exponential_density(1.0, 0.0)
        ratios = [lower / norm_p for lower, norm_p in (_lower_bound_sides(one_sided, q) for q in (find_p0(), 1.0))]
        assert ratios[0] == pytest.approx(ratios[1], rel=0.0, abs=1e-12)


class TestScanFamilyExtrema:
    @pytest.mark.parametrize("p", [-0.9, -0.5, 0.5, 1.0])
    def test_minimum_at_symmetric_member(self, p):
        result = scan_family_extrema(p, grid_size=400)
        assert result.argopt_t == 1.0
        assert result.opt_value == pytest.approx(gamma(p + 1.0) ** (1.0 / p), abs=1e-8)

    def test_half_order_value_is_pi_over_four_squared_gamma(self):
        result = scan_family_extrema(0.5, grid_size=400)
        assert result.opt_value == pytest.approx(math.pi / 4.0, rel=1e-10)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_maximum_at_symmetric_member(self, p):
        result = scan_family_extrema(p, grid_size=400)
        assert result.argopt_t == 1.0
        assert result.opt_value == pytest.approx(sharp_constant(p), abs=1e-8)

    @pytest.mark.parametrize("p", [3.5, 4.0, 6.0])
    def test_maximum_at_one_sided_member(self, p):
        result = scan_family_extrema(p, grid_size=400)
        assert result.argopt_t == 0.0
        assert result.opt_value == pytest.approx(sharp_constant(p), abs=1e-8)

    def test_profile_shape(self):
        result = scan_family_extrema(2.0, grid_size=150)
        ts, values = result.profile
        assert len(result.profile) == 2 and len(ts) == len(values) == 150
        assert ts[0] == 0.0 and ts[-1] == 1.0

    @pytest.mark.parametrize("grid_size", [100, 101, 150, 257, 1000, 2999, 10**5])
    def test_grid_is_numpy_linspace_bit_for_bit(self, grid_size):
        ts, _ = _grid_extremum(lambda t: 0.0, grid_size, False, ()).profile
        assert np.array(ts).tobytes() == np.linspace(0.0, 1.0, grid_size).tobytes()

    @pytest.mark.parametrize(
        "objective, maximize, expected",
        [
            (lambda x: -((x - 0.3) ** 2), True, None),  # an interior optimum: no candidate snaps
            (lambda x: x, True, -1),  # the grid's last end snaps
            (lambda x: x, False, 0),  # the grid's first end snaps
            (lambda x: abs(x - 0.5), False, 50),  # the candidate inside the grid snaps
        ],
        ids=["interior", "last-end", "first-end", "inside"],
    )
    def test_snap_candidates_on_the_grid_take_its_values(self, objective, maximize, expected):
        calls = []
        scan = _grid_extremum(lambda x: calls.append(x) or objective(x), 100, maximize, (0, -1, 50))
        # a candidate is a grid index, read off the grid's values with no evaluation of its own
        xs, values = scan.profile
        assert calls == list(xs)
        if expected is not None:
            assert (scan.argopt_t, scan.opt_value) == (xs[expected], values[expected])

    @pytest.mark.parametrize("grid_size", [100, 400, 1000])
    @pytest.mark.parametrize(
        "snap",
        [(-1, 0), (0, 50, -1), (50, 0, 70, -1)],
        ids=["ends", "one-inside", "two-inside"],
    )
    def test_one_evaluation_per_grid_point(self, grid_size, snap):
        calls = []
        # an interior maximum, so that every candidate is tried
        scan = _grid_extremum(lambda x: calls.append(x) or -((x - 0.3) ** 2), grid_size, True, snap)
        assert len(calls) == grid_size
        ts, values = scan.profile
        assert scan.argopt_t == ts[values.index(max(values))] and scan.opt_value == max(values)

    def test_small_grid_rejected(self):
        with pytest.raises(DomainError):
            scan_family_extrema(2.0, grid_size=50)

    @pytest.mark.parametrize("grid_size", [10**20, _MAX_GRID + 1, 1000.0, 1000.5])
    def test_oversized_or_non_integer_grid_rejected_before_building(self, grid_size):
        def no_evaluation(x):
            raise AssertionError("the objective was evaluated")

        with pytest.raises(DomainError):
            _grid_extremum(no_evaluation, grid_size, True, (-1, 0))
        with pytest.raises(DomainError):
            scan_family_extrema(2.0, grid_size=grid_size)
        with pytest.raises(DomainError):
            scan_l2_ratio(3.0, grid_size=grid_size)


def test_large_t_bound_for_low_orders():
    ts = np.linspace(0.2, 1.0, 81)
    for p in (1.0, 2.0, 3.0):
        cap = norm_ebar(p, 1.0)
        for t in ts:
            assert norm_ebar(p, t) <= cap + 1e-10


def test_small_t_bound_at_crossover():
    p0 = find_p0()
    cap = gamma(p0 + 1.0) ** (1.0 / p0)
    for t in np.linspace(0.0, 0.2, 41):
        assert norm_ebar(p0, t) <= cap + 1e-10


def test_small_t_slope_coefficient():
    assert abs(small_t_bound_coefficient() - 4.39) < 0.01


def _s_grid_l2_scan(p, grid_size):
    """(argopt, opt) of the L_p/L_2 scan on a grid over all of s in [0, 1]: each
    s < 1/2 and its mirror 1 - s evaluate the same branch ratio
    u = min(s, 1-s)/max(s, 1-s).  s = 0 or else s = 1/2, on the grid or not,
    is reported where its ratio lies within 1e-8 of the grid's optimum."""

    def ratio(s):
        u = min(s, 1.0 - s) / max(s, 1.0 - s)
        return _member_norms(p)(u) / math.sqrt(1.0 + u * u)

    scan = _grid_extremum(ratio, grid_size, p > 2.0, ())
    sign = 1.0 if p > 2.0 else -1.0
    for s in (0.0, 0.5):
        if sign * (scan.opt_value - ratio(s)) <= 1e-8:
            return s, ratio(s)
    return scan.argopt_t, scan.opt_value


class TestScanL2Ratio:
    def test_below_transition_symmetric(self):
        result = scan_l2_ratio(1.5, grid_size=200)
        assert result.argopt_t == 0.5

    def test_above_two_one_sided(self):
        result = scan_l2_ratio(3.0, grid_size=200)
        assert result.argopt_t in (0.0, 1.0)

    def test_between_transition_and_two_one_sided(self):
        result = scan_l2_ratio(1.9, grid_size=200)
        assert result.argopt_t in (0.0, 1.0)

    def test_two_rejected(self):
        with pytest.raises(DomainError):
            scan_l2_ratio(2.0)
        with pytest.raises(DomainError):
            scan_l2_ratio(0.8)

    @pytest.mark.parametrize("p", [0.0, 1e-17, -1e-17, 1e-8, 9.9e-7, -9.9e-7])
    def test_orders_within_a_millionth_of_zero_rejected(self, p):
        # the power 1/p would lift the moment's rounding past 1e-8 relative
        for call in (lambda: norm_ebar(p, 0.3), lambda: scan_family_extrema(p, 100)):
            with pytest.raises(DomainError, match="geometric mean"):
                call()

    def test_profile_covers_the_half_range_of_s(self):
        result = scan_l2_ratio(3.0, grid_size=150)
        ss, values = result.profile
        assert len(result.profile) == 2 and len(ss) == len(values) == 150
        u = np.linspace(0.0, 1.0, 150)
        assert np.array(ss).tobytes() == (u / (1.0 + u)).tobytes()
        assert ss[0] == 0.0 and ss[-1] == 0.5

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(1.0, 6.0, exclude_min=True), grid_size=st.integers(100, 400))
    @example(p=1.5, grid_size=1000)
    @example(p=6.0, grid_size=400)
    def test_matches_the_s_grid_scan(self, p, grid_size):
        # away from p = 2, where the ratio is one, and from the transition,
        # where the endpoints tie: elsewhere both scans snap to the same member
        assume(abs(p - 2.0) > 0.01 and abs(p - find_l2_transition()) > 0.01)
        result = scan_l2_ratio(p, grid_size)
        assert (result.argopt_t, result.opt_value) == _s_grid_l2_scan(p, grid_size)


def _assert_reports_an_end(result):
    """argopt_t is an end of the profile, and opt_value the profile's value there, bit for bit."""
    ts, values = result.profile
    assert result.argopt_t in (ts[0], ts[-1])
    assert result.opt_value == values[ts.index(result.argopt_t)]


@settings(max_examples=40, deadline=None)
@given(p=st.floats(-0.9, 8.0), grid_size=st.integers(100, 1000))
@example(p=find_p0(), grid_size=1000)
@example(p=1.0, grid_size=100)
def test_family_scan_reports_an_end(p, grid_size):
    assume(abs(p) >= 1e-6)
    _assert_reports_an_end(scan_family_extrema(p, grid_size))


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.0, 6.0, exclude_min=True), grid_size=st.integers(100, 1000))
@example(p=find_l2_transition(), grid_size=1000)
@example(p=2.0 + 1e-9, grid_size=137)
def test_l2_scan_reports_an_end(p, grid_size):
    assume(p != 2.0)
    result = scan_l2_ratio(p, grid_size)
    assert result.argopt_t in (0.0, 0.5)
    _assert_reports_an_end(result)


def test_l2_transition_near_published_estimate():
    assert abs(find_l2_transition() - 1.68) <= 0.02
