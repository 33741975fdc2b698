"""Interval enclosures of the gaps whose zeros are p0 and the 1.68 transition,
and of the sharp constants.

Each gap is evaluated in ``mpmath.iv`` interval arithmetic at 50 digits, so a
returned interval contains the exact value; an interval that excludes 0
proves the gap's sign.  The one-sided moment has a series with an enclosed
tail:

    E|E-1|^p = e^-1 (int_0^1 u^p e^u du + Gamma(p+1)),
    int_0^1 u^p e^u du = sum_k 1 / (k! (p+k+1)),

where E is a standard exponential.  The terms past k = 59 sum to at least 0
and at most e / (60! (p+61)), since sum_{j>=0} 60! / (60+j)! <= e.
"""

import math

from mpmath.ctx_iv import MPIntervalContext

# a context of its own, so that its precision leaves mpmath.iv's alone
iv = MPIntervalContext()
iv.dps = 50

_TERMS = 60


def _one_sided_moment(p):
    """An enclosure of E|E-1|^p for an interval or exact order p > -1."""
    series = sum(1 / (iv.mpf(math.factorial(k)) * (p + k + 1)) for k in range(_TERMS))
    tail = iv.mpf([0, 1]) * iv.e / (iv.mpf(math.factorial(_TERMS)) * (p + _TERMS + 1))
    return iv.exp(-1) * (series + tail + iv.gamma(p + 1))


def branch_gap(p: float):
    """An enclosure of Gamma(p+1) - (e/2)^p E|E-1|^p, the L_1 branch gap."""
    x = iv.mpf(p)
    return iv.gamma(x + 1) - iv.exp(x * (1 - iv.log(2))) * _one_sided_moment(x)


def l2_gap(p: float):
    """An enclosure of Gamma(p+1) 2^(-p/2) - E|E-1|^p, the L_2 ratio gap."""
    x = iv.mpf(p)
    return iv.gamma(x + 1) * iv.exp(-x / 2 * iv.log(2)) - _one_sided_moment(x)


def _norm(moment, p):
    """An enclosure of moment^(1/p), the L_p norm of a p-th moment's enclosure."""
    return iv.exp(iv.log(moment) / p)


def sharp_constant(p: float):
    """An enclosure of max(Gamma(p+1)^(1/p), (e/2) ||E-1||_p), the sharp L_p-L_1
    constant for p >= 1."""
    x = iv.mpf(p)
    symmetric = _norm(iv.gamma(x + 1), x)
    one_sided = iv.e / 2 * _norm(_one_sided_moment(x), x)
    # the maximum of two intervals, end by end
    return iv.mpf([max(symmetric.a, one_sided.a), max(symmetric.b, one_sided.b)])


def lp_lq_ratio(p: float, q: float):
    """An enclosure of Gamma(p+1)^(1/p) / Gamma(q+1)^(1/q), the sharp lower
    L_p-L_q constant."""
    x, y = iv.mpf(p), iv.mpf(q)
    return _norm(iv.gamma(x + 1), x) / _norm(iv.gamma(y + 1), y)
