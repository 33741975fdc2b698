"""Sign-change detection and the crossing certificates.

The comparison inequalities all reduce to integrals of a product
(density gap) * (power gap) that is pointwise one-signed once the power
interpolant alpha + beta*x + gamma*x^q is pinned at the density gap's three
crossings.  This module locates and certifies those crossings numerically
and runs the pointwise nonnegativity check regime by regime.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .constants import find_p0
from .errors import BracketError, CrossingPatternError, DomainError, NumericalError
from .expfamily import abs_ebar_breakpoint, density_abs_ebar, family_scale, moment_et
from .search import bisect_root
from .specfun import as_order

__all__ = [
    "SignChangeReport",
    "detect_sign_changes",
    "vandermonde_coeffs",
    "ThreeCrossingsResult",
    "verify_3crossings",
    "matching_order",
    "nonneg_decomposition_check",
]

# samples with |f| at or below this count as zero when classifying signs
DEFAULT_ZERO_BAND = 1e-12

# |E_t|-density differences are negligible beyond this abscissa for all t
_X_MAX = 48.0

# a zero-band run between opposite signs longer than this many grid steps
# cannot be attributed to a single crossing
_MAX_ZERO_RUN = 10


@dataclass(frozen=True)
class SignChangeReport:
    """Certified sign changes of a function on an interval of (0, inf).

    ``pattern`` starts with the sign on the segment before the first
    crossing, e.g. "+-+-" for three crossings starting positive; signs
    alternate by construction.  ``certified`` is False when any crossing sits
    in an unresolved zero band.
    """

    crossings: tuple[float, ...]
    pattern: str
    resolution: float
    certified: bool
    unresolved: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        if list(self.crossings) != sorted(self.crossings):
            raise DomainError("crossings must be strictly increasing")
        if len(self.crossings) + 1 != len(self.pattern):
            raise DomainError("pattern length must be one more than the crossing count")
        for a, b in zip(self.pattern, self.pattern[1:]):
            if a == b:
                raise DomainError("pattern signs must alternate")

    def as_dict(self) -> dict:
        return {
            "crossings": list(self.crossings),
            "pattern": self.pattern,
            "resolution": self.resolution,
            "certified": self.certified,
            "unresolved": [list(band) for band in self.unresolved],
        }


def _evaluate(f, xs):
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape == xs.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(x)) for x in xs])


def detect_sign_changes(
    f: Callable,
    domain: tuple[float, float],
    grid_size: int = 2000,
    tol: float = DEFAULT_ZERO_BAND,
    breakpoints: Sequence[float] = (),
    extra_grid: Sequence[float] = (),
) -> SignChangeReport:
    """Locate the sign changes of ``f`` on an open interval.

    Samples on a uniform grid (plus any supplied breakpoints, so piecewise
    definitions are never straddled), treats |f| <= tol as zero, and refines
    each strict change by bisection to 1e-10.  A sign change buried in a
    zero band wider than ten grid steps is reported as unresolved; a change
    that bisection tracks into a supplied breakpoint is recorded at the
    breakpoint itself (jump crossing).  ``extra_grid`` adds sample points
    where the caller knows structure lives below the uniform resolution.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise DomainError(f"empty domain ({lo}, {hi})")
    if grid_size < 1000:
        raise DomainError(f"grid_size must be at least 1000, got {grid_size}")

    xs = np.linspace(lo, hi, grid_size + 2)[1:-1]
    inner_bps = sorted(b for b in breakpoints if lo < b < hi)
    extra = [x for x in extra_grid if lo < x < hi]
    if inner_bps or extra:
        xs = np.unique(np.concatenate([xs, np.asarray(inner_bps + extra, dtype=float)]))
    step = (hi - lo) / (grid_size + 1)

    vals = _evaluate(f, xs)
    signs = np.sign(vals)
    signs[np.abs(vals) <= tol] = 0.0

    nz = np.nonzero(signs)[0]
    if nz.size == 0:
        return SignChangeReport((), "0", step, certified=False, unresolved=((lo, hi),))

    crossings: list[float] = []
    unresolved: list[tuple[float, float]] = []
    certified = True
    for i, j in zip(nz[:-1], nz[1:]):
        if signs[i] == signs[j]:
            continue
        if j - i - 1 > _MAX_ZERO_RUN:
            # an extended tol-band separates the signs; location is ambiguous
            crossings.append(0.5 * (xs[i] + xs[j]))
            unresolved.append((float(xs[i]), float(xs[j])))
            certified = False
            continue
        x_star = bisect_root(lambda x: float(f(x)), float(xs[i]), float(xs[j]), xtol=1e-10)
        for b in inner_bps:
            if abs(x_star - b) < 2e-9:
                x_star = b  # bisection ran into a known jump
                break
        crossings.append(x_star)

    first = "+" if signs[nz[0]] > 0 else "-"
    pattern = first
    for _ in crossings:
        pattern += "-" if pattern[-1] == "+" else "+"
    return SignChangeReport(
        tuple(crossings), pattern, step, certified=certified, unresolved=tuple(unresolved)
    )


def vandermonde_coeffs(p: float, q: float, x1: float, x2: float, x3: float) -> tuple[float, float, float]:
    """Coefficients (alpha, beta, gamma) with alpha + beta*x + gamma*x^q = x^p
    at the three nodes.

    The system's matrix is of generalized-Vandermonde type, hence invertible
    for valid inputs; near-singularity is still guarded numerically.
    """
    if not (0.0 < x1 < x2 < x3):
        raise DomainError(f"nodes must satisfy 0 < x1 < x2 < x3, got {(x1, x2, x3)}")
    if not q > 2.0:
        raise DomainError(f"interpolation exponent must exceed 2, got {q}")
    exps = (0.0, 1.0, p, q)
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(exps[i] - exps[j]) <= 1e-12:
                raise DomainError(f"exponents 0, 1, p={p}, q={q} must be pairwise distinct")

    nodes = np.array([x1, x2, x3], dtype=float)
    system = np.column_stack([np.ones(3), nodes, nodes**q])
    rhs = nodes**p
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"interpolation system is numerically singular: {exc}") from exc
    residual = np.max(np.abs(system @ sol - rhs))
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
        raise NumericalError(f"interpolation residual too large: {residual:g}")
    return float(sol[0]), float(sol[1]), float(sol[2])


@dataclass(frozen=True)
class ThreeCrossingsResult:
    """Certificates for both density-gap comparisons at one family parameter.

    ``report_upper`` covers density(|Ebar_1|) - density(|Ebar_t|),
    ``report_lower`` covers density(|Ebar_t|) - density(|Ebar_0|).
    """

    t: float
    report_upper: SignChangeReport
    report_lower: SignChangeReport


def verify_3crossings(
    t: float,
    grid_size: int = 4000,
    tol: float = DEFAULT_ZERO_BAND,
) -> ThreeCrossingsResult:
    """Certify that both density gaps cross exactly three times as (+,-,+,-).

    The t = 0 density has a jump at e/2 (supplied as a breakpoint candidate);
    all other kinks sit at the per-parameter breakpoints, which are inserted
    into the sampling grids.  Raises CrossingPatternError with the offending
    report attached if either certificate fails.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie strictly inside (0, 1), got {t}")

    # the first crossing can sit inside (0, breakpoint), an interval that
    # shrinks like 1-t, and crossings can cluster between the kink and the
    # one-sided member's jump; sample those windows densely
    kink = abs_ebar_breakpoint(t)
    jump = abs_ebar_breakpoint(0.0)
    head = np.linspace(0.0, kink, 512)[1:-1]
    between = np.linspace(min(kink, jump), max(kink, jump), 256)[1:-1]

    upper = detect_sign_changes(
        lambda x: density_abs_ebar(1.0, x) - density_abs_ebar(t, x),
        (0.0, _X_MAX),
        grid_size=grid_size,
        tol=tol,
        breakpoints=[kink],
        extra_grid=head,
    )
    lower = detect_sign_changes(
        lambda x: density_abs_ebar(t, x) - density_abs_ebar(0.0, x),
        (0.0, _X_MAX),
        grid_size=grid_size,
        tol=tol,
        breakpoints=[kink, jump],
        extra_grid=np.concatenate([head, between]),
    )
    for label, report in (("upper", upper), ("lower", lower)):
        if len(report.crossings) != 3 or report.pattern != "+-+-":
            raise CrossingPatternError(
                f"{label} comparison at t={t}: expected 3 crossings (+,-,+,-), "
                f"got {len(report.crossings)} with pattern {report.pattern}",
                reports=(upper, lower),
            )
    return ThreeCrossingsResult(t=t, report_upper=upper, report_lower=lower)


def matching_order(
    t: float,
    bracket: tuple[float, float] = (2.0, 4.0),
    baseline_t: float = 1.0,
) -> float:
    """The order q where E|Ebar_baseline|^q = E|Ebar_t|^q inside the bracket.

    The default baseline is the symmetric member t = 1; the one-sided member
    t = 0 serves the high-order regime of the decomposition check.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie strictly inside (0, 1), got {t}")

    def gap(q):
        return (
            moment_et(q, baseline_t) / family_scale(baseline_t) ** q
            - moment_et(q, t) / family_scale(t) ** q
        )

    q_lo, q_hi = bracket
    root = bisect_root(gap, q_lo, q_hi)
    residual = gap(root)
    if abs(residual) > 1e-10:
        raise BracketError(f"matching order residual too large: {residual:g}")
    return root


def _decomposition_regime(p: float, p0: float):
    """Baseline parameter, matching bracket, and product sign per regime."""
    if -1.0 < p < 1.0 and p != 0.0:
        return 1.0, (2.0, 4.0), (p > 0.0)
    if 1.0 <= p <= p0:
        return 1.0, (p0, 4.0), False
    if p >= p0:
        return 0.0, (2.0, p0), False
    raise DomainError(f"no decomposition regime covers p = {p}")


def nonneg_decomposition_check(
    t: float,
    p,
    grid_size: int = 10_000,
    slack: float = 1e-9,
) -> bool:
    """Confirm (density gap) * (power gap) is pointwise nonnegative.

    Picks the regime's baseline density and matching bracket, pins the
    interpolant at the certified crossing nodes, and samples the product on
    a dense grid.  For p in (0, 1) the pattern of the power gap flips, so
    the product is checked with the opposite sign.  The slack absorbs float
    rounding at the nodes, where the product vanishes to first order.
    """
    p = as_order(p)
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie strictly inside (0, 1), got {t}")
    baseline, bracket, flip = _decomposition_regime(p, find_p0())
    q = matching_order(t, bracket, baseline_t=baseline)
    certificates = verify_3crossings(t)
    # crossing locations do not depend on the gap's orientation
    report = certificates.report_upper if baseline == 1.0 else certificates.report_lower
    alpha, beta, gamma_q = vandermonde_coeffs(p, q, *report.crossings)

    xs = np.linspace(0.0, _X_MAX, grid_size + 2)[1:-1]
    extra = [abs_ebar_breakpoint(t), abs_ebar_breakpoint(baseline), *report.crossings]
    extra = [x for x in extra if 0.0 < x < _X_MAX]
    xs = np.unique(np.concatenate([xs, np.asarray(extra, dtype=float)]))
    density_gap = density_abs_ebar(baseline, xs) - density_abs_ebar(t, xs)
    power_gap = xs**p - (alpha + beta * xs + gamma_q * xs**q)
    product = density_gap * power_gap
    if flip:
        product = -product

    worst = int(np.argmin(product))
    if product[worst] >= -slack:
        return True
    warnings.warn(
        f"decomposition product negative at x={xs[worst]:.6g}: {product[worst]:.3e} "
        f"(t={t}, p={p})",
        stacklevel=2,
    )
    return False
