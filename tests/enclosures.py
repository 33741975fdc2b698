"""Interval enclosures of the gaps whose zeros are p0 and the 1.68 transition.

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
