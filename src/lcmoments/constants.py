"""Sharp moment-comparison constants and the extremiser scans.

For p >= 1 the sharp L_p-L_1 constant is the larger of two candidate
branches, Gamma(p+1)^(1/p) from the symmetric double exponential E_1 and
(e/2)*||E-1||_p from the one-sided exponential E_0.  The branches cross
exactly once, at p0 = 2.9414..; the L_p/L_2 extremiser switches between
the same two members near 1.68.

Every order at which two family members compare equally comes from one
tie routine, ``_tie``: Brent's method (``search.bisect_root``) on
``_member_gap``, the signed gap between the p-th moments of E_s and E_t,
each divided by the p-th power of a norm of the member (``family_scale``
for L_1, ``_L2_NORM`` for L_2).  Its two callers, ``find_p0`` and
``find_l2_transition``, locate p0 and the 1.68 transition in 12 to 14 gap
evaluations each, never much more than three times plain bisection's count.

The scans, ``scan_family_extrema`` and ``scan_l2_ratio``, sample their
objective on a uniform grid and report the grid's first extremum, or an end
whose value lies within 1e-8 of it: they check that no interior member
beats the family's two ends.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, partial

from .errors import BracketError, DomainError, NumericalError
from .expfamily import _member_norms, family_scale, moment_et, norm_ebar
from .search import bisect_root
from .specfun import _SMALL_ORDER, _is_integer, _log_gamma1p_over, as_order, gamma

# scans snap to an endpoint when its value is this close to the grid optimum
_ENDPOINT_SNAP = 1e-8

# the largest grid a scan accepts: ten million objective evaluations take over a minute
_MAX_GRID = 10**7

# ||E_u||_2 = hypot(1, u), the L_2 norm of the family member E_u = (E - 1) - u(E' - 1)
_L2_NORM = partial(math.hypot, 1.0)


def _member_gap(p: float, s: float, t: float, norm) -> float:
    """E|E_s|^p / norm(s)^p - E|E_t|^p / norm(t)^p."""
    return moment_et(p, s) / norm(s) ** p - moment_et(p, t) / norm(t) ** p


def _tie(s: float, t: float, lo: float, hi: float, norm) -> float:
    """The order in (lo, hi) where ``_member_gap`` of E_s and E_t vanishes:
    p0 for ``find_p0`` and the 1.68 transition for ``find_l2_transition``.

    Raises NumericalError when the root falls on a bracket end, and
    BracketError when the bracket holds no sign change or the root's
    residual exceeds 1e-10 of the moments' size.
    """
    root = bisect_root(lambda p: _member_gap(p, s, t, norm), lo, hi)
    if root in (lo, hi):
        # the gap rounds to zero at the bracket end, so the root is not told apart from it
        raise NumericalError(f"tie of E_{s} and E_{t} lies within rounding of the bracket end {root}")
    moments = (moment_et(root, s) / norm(s) ** root, moment_et(root, t) / norm(t) ** root)
    residual = moments[0] - moments[1]
    if abs(residual) > 1e-10 * max(map(abs, moments)):
        raise BracketError(f"tie of E_{s} and E_{t}: relative residual too large: {residual:g}")
    return root


def sharp_constant(p) -> float:
    """The sharp L_p-L_1 comparison constant for p >= 1: the larger of the
    normalized L_p norms of E_1 and E_0, Gamma(p+1)^(1/p) and (e/2) ||E-1||_p.
    """
    p = as_order(p)
    if p < 1.0:
        raise DomainError(f"the upper constant is defined for p >= 1, got {p}")
    return max(norm_ebar(p, 1.0), norm_ebar(p, 0.0))


def branch_gap(p) -> float:
    """Signed gap Gamma(p+1) - (e/2)^p E|E-1|^p between the branch p-th powers.

    Positive below the crossover order, negative above; zero at p = 1 and at
    the crossover.
    """
    p = as_order(p)
    if p < 1.0:
        raise DomainError(f"branch gap is defined for p >= 1, got {p}")
    return _member_gap(p, 1.0, 0.0, family_scale)


@cache
def find_p0() -> float:
    """The unique branch-crossover order in (1, inf), bracketed in [2, 4]."""
    return _tie(1.0, 0.0, 2.0, 4.0, family_scale)


def lp_lq_ratio(p, q) -> float:
    """Sharp constant in ||X||_p >= c ||X||_q for -1 < p <= 1 <= q <= p0.

    q = 1 and q = 2 give the lower L_p-L_1 and L_p-L_2 constants.
    """
    p = as_order(p)
    q = float(q)
    if p == 0.0 or p > 1.0:
        raise DomainError(f"the lower L_p-L_q constant needs p in (-1, 0) u (0, 1], got {p}")
    if not 1.0 <= q <= find_p0() + 1e-12:
        raise DomainError(f"the lower L_p-L_q constant needs q in [1, p0], got {q}")
    if abs(p) >= _SMALL_ORDER:
        lower = gamma(p + 1.0) ** (1.0 / p)
    else:
        lower = math.exp(_log_gamma1p_over(p))
    return lower / gamma(q + 1.0) ** (1.0 / q)


class ScanResult(namedtuple("ScanResult", "argopt_t opt_value profile")):
    """A scan's extremiser, its value, and the profile's two columns: the grid, its values."""

    __slots__ = ()


def _grid_extremum(objective, grid_size: int, maximize: bool, snap) -> ScanResult:
    """Extremise ``objective`` over [0, 1] on a uniform grid of grid_size points.

    The optimum is the grid's first extremum.  ``snap`` lists grid indices in
    order of preference; the first whose value lies within _ENDPOINT_SNAP of
    the optimum is reported instead.
    """
    if not _is_integer(grid_size):
        raise DomainError(f"grid_size must be an integer, got {grid_size!r}")
    if grid_size < 100:
        raise DomainError(f"grid_size must be at least 100, got {grid_size}")
    if grid_size > _MAX_GRID:
        raise DomainError(f"grid_size must be at most {_MAX_GRID}, got {grid_size}")
    step = 1.0 / (grid_size - 1)
    xs = (*[i * step for i in range(grid_size - 1)], 1.0)  # np.linspace(0, 1, grid_size), bit for bit
    vals = tuple([objective(x) for x in xs])

    opt = max(vals) if maximize else min(vals)
    for i in snap:
        if ((opt - vals[i]) if maximize else (vals[i] - opt)) <= _ENDPOINT_SNAP:
            return ScanResult(argopt_t=xs[i], opt_value=vals[i], profile=(xs, vals))
    return ScanResult(argopt_t=xs[vals.index(opt)], opt_value=opt, profile=(xs, vals))


def scan_family_extrema(p, grid_size: int = 1000) -> ScanResult:
    """Profile of t -> ||E_t||_p / scale(t) on a grid, and its extremum there.

    Minimises for p <= 1, maximises for p >= 1.  Ties within 1e-8 of an
    endpoint report the endpoint.
    """
    norms = _member_norms(p)
    return _grid_extremum(lambda t: norms(t) / family_scale(t), grid_size, as_order(p) > 1.0, (-1, 0))


def scan_l2_ratio(p, grid_size: int = 1000) -> ScanResult:
    """Extremise ||Z_s||_p / ||Z_s||_2 over s in [0, 1], Z_s = s(E-1) - (1-s)(E'-1).

    The open problem behind this scan minimises the ratio for 1 < p < 2 and
    maximises it for p > 2 (at p = 2 the ratio is identically one, hence the
    exclusion).  The extremiser flips from the symmetric exponential
    (s = 1/2) to a one-sided exponential (s = 0) at the transition order
    near 1.68.

    By homogeneity and the symmetry s <-> 1-s the ratio depends only on the
    branch ratio u = s/(1-s) of s in [0, 1/2], where |Z_s| / (1-s) has the
    law of |E_u|: it is E_u's ratio, under the norm ``_L2_NORM``.  The scan
    runs over u in [0, 1] and reports s = u/(1+u), so the profile covers s
    in [0, 1/2].
    """
    p = float(p)
    if p <= 1.0 or p == 2.0:
        raise DomainError(f"the ratio scan needs p > 1, p != 2, got {p}")
    norms = _member_norms(p)
    scan = _grid_extremum(lambda u: norms(u) / _L2_NORM(u), grid_size, p > 2.0, (0, -1))
    us, values = scan.profile
    profile = (tuple([u / (1.0 + u) for u in us]), values)
    return ScanResult(argopt_t=scan.argopt_t / (1.0 + scan.argopt_t), opt_value=scan.opt_value, profile=profile)


def find_l2_transition() -> float:
    """Order in (1, 2) where the symmetric and one-sided L_p/L_2 ratios tie.

    Below it the symmetric exponential has the smaller ratio, above it the
    one-sided one does; this is the scan's extremiser switch point.  By
    ``scan_l2_ratio``'s reduction, Z_(1/2) and Z_0 are E_1 and E_0 under the
    norm ``_L2_NORM``, and the ratios tie where their p-th powers do.
    """
    return _tie(1.0, 0.0, 1.05, 1.95, _L2_NORM)


def small_t_bound_coefficient() -> float:
    """2^p0 e^(-p0) Gamma(p0+1) (p0-1), the slope constant of the small-t bound."""
    p0 = find_p0()
    return 2.0**p0 * math.exp(-p0) * gamma(p0 + 1.0) * (p0 - 1.0)
