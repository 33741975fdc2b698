"""Exact three-crossings certificates and the decomposition check.

The comparison inequalities reduce to integrals of (density gap) * (power
gap), pointwise one-signed once alpha + beta*x + gamma*x^q is pinned at the
density gap's three crossings.  Between breakpoints each gap is a sum of at
most four exponentials (``expfamily._abs_ebar_terms``), whose zeros Rolle
recursion isolates exactly, the constructive proof of Laguerre's rule of
signs (Polya-Szego, Problems and Theorems in Analysis II, Part V).  A sign
change across a breakpoint (the t = 0 jump at e/2) is a crossing there.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .constants import find_p0
from .errors import BracketError, CrossingPatternError, DomainError, NumericalError
from .expfamily import (
    _abs_ebar_terms,
    _term_rate,
    abs_ebar_breakpoint,
    density_abs_ebar,
    family_scale,
    moment_et,
)
from .search import bisect_root
from .specfun import as_order

__all__ = [
    "SignChangeReport",
    "vandermonde_coeffs",
    "ThreeCrossingsResult",
    "verify_3crossings",
    "matching_order",
    "nonneg_decomposition_check",
]

# a sign is trusted when the sum exceeds this multiple of the rounding of its terms
_SIGN_MARGIN = 64.0 * sys.float_info.epsilon

# the decomposition product is sampled at this many points of (0, _X_MAX),
# past which |E_t|-density differences are negligible for all t; the slack
# absorbs rounding at the nodes, where the product vanishes to first order
_DECOMPOSITION_GRID = 10_000
_X_MAX = 48.0
DECOMPOSITION_SLACK = 1e-9


@dataclass(frozen=True)
class SignChangeReport:
    """The sign changes of a density gap on (0, inf).

    ``pattern`` starts with the sign before the first crossing, e.g. "+-+-"
    for three crossings starting positive.  ``certified`` is False when a
    sign the isolation relied on lay within rounding of zero;
    ``verify_3crossings`` raises NumericalError rather than return that.
    """

    crossings: tuple[float, ...]
    pattern: str
    certified: bool

    def __post_init__(self):
        if any(b <= a for a, b in pairwise(self.crossings)):
            raise DomainError("crossings must be strictly increasing")
        if len(self.crossings) + 1 != len(self.pattern):
            raise DomainError("pattern length must be one more than the crossing count")
        if any(a == b for a, b in pairwise(self.pattern)):
            raise DomainError("pattern signs must alternate")

    def as_dict(self) -> dict:
        return {"crossings": list(self.crossings), "pattern": self.pattern, "certified": self.certified}


def _normalized(coef: dict[int, float]) -> dict[int, float]:
    """Drop zero coefficients and scale the rest to at most 1 in magnitude."""
    coef = {i: c for i, c in coef.items() if c != 0.0}
    scale = max(map(abs, coef.values()), default=1.0)
    return {i: c / scale for i, c in coef.items()}


def _exp_sum_zeros(terms, lo: float, hi: float):
    """The zeros of g(x) = sum c * exp(rate * (x - lo)) on (lo, hi); hi may be inf.

    ``terms`` are (c, sign, rho) with rate ``_term_rate(sign, rho)``.  Returns
    (zeros, sign of g at lo, certified); certified is False if a piece end or
    a stationary value lay within the rounding bound of zero.
    """
    merged: dict[tuple[float, float], float] = {}
    for c, sign, rho in terms:
        merged[sign, rho] = merged.get((sign, rho), 0.0) + c
    # ordered by rate: negative rates first, then by sign * rho
    keys = sorted((k for k, c in merged.items() if c != 0.0), key=lambda k: (k[0], k[0] * k[1]))
    if not keys:
        return (), "+", False
    rates = [_term_rate(*k) for k in keys]
    # rate differences, from expm1 of the log-rates where the signs agree
    diff = [
        [rb * math.expm1(a[1] - b[1]) if a[0] == b[0] else ra - rb for b, rb in zip(keys, rates)]
        for a, ra in zip(keys, rates)
    ]

    def evaluate(coef, x):
        """The sum and its rounding bound, in the frame of its fastest-growing term."""
        top = max(coef)
        exponents = [diff[i][top] * (x - lo) for i in coef]
        parts = [c * math.exp(e) for c, e in zip(coef.values(), exponents)]
        bound = _SIGN_MARGIN * sum(abs(v) * (1.0 + abs(e)) for v, e in zip(parts, exponents) if v)
        return math.fsum(parts), bound

    def zeros(coef):
        """Rolle recursion: the zeros of the derivative, in the frame of the
        median rate (which keeps the shifted rates moderate), cut (lo, hi)
        into monotone runs, each with a root if its ends differ in sign."""
        if len(coef) < 2:
            return [], True
        k = list(coef)[len(coef) // 2]
        stationary, certified = zeros(_normalized({i: c * diff[i][k] for i, c in coef.items() if i != k}))
        edges = [lo, *stationary, hi]
        values = [evaluate(coef, x) for x in edges]
        certified = certified and all(abs(v) > bound for v, bound in values)
        found = [
            bisect_root(lambda x: evaluate(coef, x)[0], a, b)
            for (a, (va, _)), (b, (vb, _)) in pairwise(zip(edges, values))
            if (va < 0.0) != (vb < 0.0)
        ]
        return found, certified

    coef = _normalized({i: merged[k] for i, k in enumerate(keys)})
    if math.isinf(hi):
        # past this point the fastest-growing term outweighs all the others together
        top = len(keys) - 1
        logs = [math.log(len(keys) * abs(c)) - math.log(abs(coef[top])) for c in coef.values()]
        hi = lo + max([0.0, *(logs[i] / -diff[i][top] for i in range(top))])
    found, certified = zeros(coef)
    return tuple(found), "+" if evaluate(coef, lo)[0] > 0.0 else "-", certified


def _gap_pieces(s: float, t: float):
    """density(|Ebar_s|) - density(|Ebar_t|) as [(lo, hi, terms)] between
    breakpoints, the terms anchored at lo; the last piece runs to inf."""
    tables = [(_abs_ebar_terms(s), 1.0), (_abs_ebar_terms(t), -1.0)]
    edges = sorted({0.0, *(kink for (kink, _, _), _ in tables)})
    pieces = []
    for lo, hi in pairwise([*edges, math.inf]):
        terms = []
        for (kink, head, tail), side in tables:
            part, anchor = (head, 0.0) if hi <= kink else (tail, kink)
            terms += [(side * c * math.exp(_term_rate(sg, rho) * (lo - anchor)), sg, rho) for c, sg, rho in part]
        pieces.append((lo, hi, terms))
    return pieces


def _gap_crossings(s: float, t: float):
    """Crossings, sign pattern and certified flag of density(|Ebar_s|) - density(|Ebar_t|)."""
    crossings, pattern, certified = [], "", True
    for lo, hi, terms in _gap_pieces(s, t):
        found, first, ok = _exp_sum_zeros(terms, lo, hi)
        certified = certified and ok
        if not pattern:
            pattern = first
        elif first != pattern[-1]:
            crossings.append(lo)  # the sign changes across the breakpoint
            pattern += first
        for x in found:
            crossings.append(x)
            pattern += "-" if pattern[-1] == "+" else "+"
    return tuple(crossings), pattern, certified


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


def verify_3crossings(t: float) -> ThreeCrossingsResult:
    """Certify that both density gaps cross exactly three times as (+,-,+,-).

    Raises NumericalError if a sign the isolation relies on lies within
    rounding of zero, and CrossingPatternError, with the reports attached,
    if either gap shows another pattern.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie strictly inside (0, 1), got {t}")
    reports = []
    for label, (s, u) in (("upper", (1.0, t)), ("lower", (t, 0.0))):
        crossings, pattern, certified = _gap_crossings(s, u)
        if not certified:
            raise NumericalError(f"{label} comparison at t={t}: a sign lies within rounding of zero")
        reports.append(SignChangeReport(crossings, pattern, certified))
    for label, report in zip(("upper", "lower"), reports):
        if len(report.crossings) != 3 or report.pattern != "+-+-":
            raise CrossingPatternError(
                f"{label} comparison at t={t}: expected 3 crossings (+,-,+,-), "
                f"got {len(report.crossings)} with pattern {report.pattern}",
                reports=reports,
            )
    return ThreeCrossingsResult(t, *reports)


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


def nonneg_decomposition_check(t: float, p) -> bool:
    """Confirm (density gap) * (power gap) is pointwise nonnegative.

    Picks the regime's baseline density and matching bracket, pins the
    interpolant at the certified crossing nodes, and samples the product on
    a dense grid.  For p in (0, 1) the pattern of the power gap flips, so
    the product is checked with the opposite sign, against DECOMPOSITION_SLACK.
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

    xs = np.linspace(0.0, _X_MAX, _DECOMPOSITION_GRID + 2)[1:-1]
    extra = [abs_ebar_breakpoint(t), abs_ebar_breakpoint(baseline), *report.crossings]
    extra = [x for x in extra if 0.0 < x < _X_MAX]
    xs = np.unique(np.concatenate([xs, np.asarray(extra, dtype=float)]))
    density_gap = density_abs_ebar(baseline, xs) - density_abs_ebar(t, xs)
    power_gap = xs**p - (alpha + beta * xs + gamma_q * xs**q)
    product = density_gap * power_gap
    if flip:
        product = -product

    worst = int(np.argmin(product))
    if product[worst] >= -DECOMPOSITION_SLACK:
        return True
    warnings.warn(
        f"decomposition product negative at x={xs[worst]:.6g}: {product[worst]:.3e} "
        f"(t={t}, p={p})",
        stacklevel=2,
    )
    return False
