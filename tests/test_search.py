import itertools
import math
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcmoments.errors import BracketError, DomainError, NumericalError
from lcmoments.search import bisect_root

_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def plain_bisect(f, lo, hi):
    """Plain bisection to adjacent floats, the oracle of ``bisect_root``.

    Returns (root, evaluations of f); the bracket must change sign.
    """
    flo, fhi = f(lo), f(hi)
    evals = 2
    if flo == 0.0:
        return lo, evals
    if fhi == 0.0:
        return hi, evals
    assert (flo < 0.0) != (fhi < 0.0)
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            return mid, evals
        fm = f(mid)
        evals += 1
        if fm == 0.0:
            return mid, evals
        if (fm < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid


def _line(r, slope):
    return lambda x: slope * (x - r)


def _cubic(r, slope):
    # a triple root: interpolation alone converges to it only linearly
    return lambda x: slope * (x - r) ** 3


def _step(r, slope):
    return lambda x: -slope if x < r else slope


def _noisy(r, slope):
    """A line whose sign is pseudo-random, but fixed per float, within 1e-12 of r relative.

    The band stays clear of zero, where floats are dense enough that any
    bracket around a sign change there takes a thousand halvings to close.
    """
    band = 1e-12 * abs(r)

    def f(x):
        if abs(x - r) > band:
            return slope * (x - r)
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return band if (bits * 0x9E3779B97F4A7C15 >> 29) & 1 else -band

    return f


_kinds = st.sampled_from([_line, _cubic, _step, _noisy])


def _sign_changes_next_to(f, x, lo, hi):
    """Whether f is zero at x or changes sign between x and an adjacent float in [lo, hi]."""
    fx = f(x)
    if fx == 0.0:
        return True
    neighbours = [y for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)) if lo <= y <= hi]
    return any((f(y) < 0.0) != (fx < 0.0) for y in neighbours)


@settings(max_examples=400, deadline=None)
@given(_kinds, _finite, st.floats(1e-3, 1e3), st.floats(1e-6, 1e3), st.floats(1e-6, 1e3), st.booleans())
def test_bisect_root_stops_at_adjacent_floats_within_three_bisections(kind, r, slope, below, above, flip):
    lo, hi = r - below, r + above
    assume(lo < r < hi)
    g = kind(r, slope)
    f = (lambda x: -g(x)) if flip else g
    calls = []
    root = bisect_root(lambda x: calls.append(x) or f(x), lo, hi)
    assert lo <= root <= hi
    assert _sign_changes_next_to(f, root, lo, hi)
    # halving stops early where one of its midpoints is an exact zero, as 0.0
    # is on a bracket like [-1.5, 0.5]; the bound is on halving all the way
    # to adjacent floats, so the oracle counts with the zeros given a sign
    oracle, bisections = plain_bisect(lambda x: f(x) or 1.0, lo, hi)
    assert len(calls) <= 3 * bisections + 4
    if kind is _step:
        # one sign change, between the same two adjacent floats
        assert root == oracle


def _floats_in(lo, hi):
    """Every float in [lo, hi], in ascending order."""
    xs = [lo]
    while xs[-1] < hi:
        xs.append(math.nextafter(xs[-1], math.inf))
    return xs


@pytest.mark.parametrize(
    "lo, hi",
    [
        # one ulp of 2 wide, and one float, 2 - 2^-52, inside: the interpolation
        # step cannot land there, only the midpoint can
        (2.0 - 2.0**-51, 2.0),
        (-2.0, -2.0 + 2.0**-51),
        (2.0 - 6 * 2.0**-52, 2.0 + 3 * 2.0**-51),
        (1.0 - 5 * 2.0**-53, 1.0 + 2 * 2.0**-52),
        (2.0**-1022 - 3 * 2.0**-1074, 2.0**-1022 + 3 * 2.0**-1074),
    ],
)
def test_bisect_root_on_brackets_across_a_binade_edge(lo, hi):
    """Every sign change between adjacent floats of a bracket that spans a
    binade edge, as a step, and a line through every float inside."""
    for r in _floats_in(lo, hi)[1:]:
        for kind, flip in itertools.product((_step, _line), (False, True)):
            if kind is _line and r == hi:
                continue
            g = kind(r, 1.0)
            f = (lambda x: -g(x)) if flip else g
            calls = []
            root = bisect_root(lambda x: calls.append(x) or f(x), lo, hi)
            assert lo <= root <= hi
            assert _sign_changes_next_to(f, root, lo, hi)
            oracle, bisections = plain_bisect(lambda x: f(x) or 1.0, lo, hi)
            assert len(calls) <= 3 * bisections + 4
            if kind is _step:
                assert root == oracle


@settings(max_examples=100, deadline=None)
@given(_kinds, _finite, st.floats(1e-6, 1e3), st.floats(1e-6, 1e3))
def test_bisect_root_takes_the_bracket_in_either_order(kind, r, below, above):
    lo, hi = r - below, r + above
    assume(lo < r < hi)
    f = kind(r, 1.0)
    assert bisect_root(f, hi, lo) == bisect_root(f, lo, hi)


@pytest.mark.parametrize("r", [0.3, 0.7, 0.123456])
def test_bisect_root_where_the_interpolation_products_underflow(r):
    # values near 1e-200 square to zero in the inverse quadratic's denominators
    def f(x):
        return 1e-200 * (x - r) * (1.0 + (x - r) ** 2)

    assert bisect_root(f, 0.0, 1.0) == plain_bisect(f, 0.0, 1.0)[0]


@settings(max_examples=100, deadline=None)
@given(_kinds, _finite, st.floats(1e-6, 1e3), st.floats(1e-6, 1e3), st.booleans())
def test_bisect_root_given_its_end_values_asks_f_for_neither_end(kind, r, below, above, flip):
    lo, hi = r - below, r + above
    assume(lo < r < hi)
    f = kind(r, 1.0)
    if flip:
        lo, hi = hi, lo
    calls = []
    root = bisect_root(lambda x: calls.append(x) or f(x), lo, hi, ends=(f(lo), f(hi)))
    assert root == bisect_root(f, lo, hi)
    assert lo not in calls and hi not in calls


def test_bisect_root_given_end_values_of_one_sign_or_not_finite():
    with pytest.raises(BracketError):
        bisect_root(lambda x: x - 0.5, 0.0, 1.0, ends=(1.0, 2.0))
    with pytest.raises(NumericalError):
        bisect_root(lambda x: x - 0.5, 0.0, 1.0, ends=(-0.5, math.inf))


def test_bisect_root_rejects_a_function_that_is_not_finite():
    with pytest.raises(NumericalError):
        bisect_root(lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
def test_bisect_root_rejects_a_bracket_end_that_is_not_finite(lo, hi):
    with pytest.raises(DomainError):
        bisect_root(lambda x: x - 0.5, lo, hi)


def test_bisect_root_on_a_bracket_near_the_largest_float():
    # the sum of the ends overflows there
    root = bisect_root(lambda x: x - 1.5e308, 1e308, 1.7e308)
    assert abs(root - 1.5e308) <= math.ulp(1.5e308)


@settings(max_examples=200, deadline=None)
@given(_finite, st.floats(1e-6, 1e3), st.floats(1e-6, 1e3))
def test_bisect_root_of_a_line_to_one_ulp(r, below, above):
    lo, hi = r - below, r + above
    assume(lo < r < hi)
    root = bisect_root(lambda x: x - r, lo, hi)
    assert abs(root - r) <= math.ulp(r)


@settings(max_examples=100, deadline=None)
@given(_finite, st.floats(1e-6, 1e3))
def test_bisect_root_returns_an_end_where_f_is_zero(r, width):
    assert bisect_root(lambda x: x - r, r, r + width) == r
    assert bisect_root(lambda x: x - r, r - width, r) == r


@settings(max_examples=100, deadline=None)
@given(_finite, st.floats(1e-6, 1e3), st.floats(1e-6, 1e3))
def test_bisect_root_needs_a_sign_change(r, gap, width):
    lo = r + gap
    with pytest.raises(BracketError):
        bisect_root(lambda x: x - r, lo, lo + width)
    with pytest.raises(BracketError):
        bisect_root(lambda x: (x - r) ** 2 + 1.0, r - width, r + width)
