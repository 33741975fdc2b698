import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcmoments.errors import BracketError
from lcmoments.search import bisect_root, golden_section_min

_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


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


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(0.1, 10.0), st.floats(-5.0, 5.0), st.floats(0.1, 5.0))
def test_golden_section_min_finds_the_parabola_vertex(vertex, curvature, offset, half_width):
    lo, hi = vertex - half_width, vertex + half_width
    x, value = golden_section_min(lambda t: curvature * (t - vertex) ** 2 + offset, lo, hi)
    assert abs(x - vertex) <= 1e-7
    assert value == pytest.approx(offset, abs=1e-12)
