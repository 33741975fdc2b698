"""Exact three-crossings certificates and the decomposition check.

The comparison inequalities reduce to integrals of (density gap) * (power
gap), pointwise one-signed once alpha + beta*x + gamma*x^q is pinned at the
density gap's three crossings.  Between breakpoints each gap is a sum of at
most four exponentials (``expfamily._abs_ebar_terms``), whose zeros Rolle
recursion isolates exactly, the constructive proof of Laguerre's rule of
signs (Polya-Szego, Problems and Theorems in Analysis II, Part V).  A sign
change across a breakpoint (the t = 0 jump at e/2) is a crossing there.

By Descartes' rule of signs for real exponents (same source; G. J. O.
Jameson, Math. Gazette 90, 2006) the power gap x^p - alpha - beta*x -
gamma*x^q has no more positive zeros than its four coefficients, ordered by
exponent, have sign changes.  With three, the crossings are its only zeros
and simple, so the product has the sign of both factors past the last one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .constants import find_p0
from .errors import BracketError, CrossingPatternError, DomainError, NumericalError
from .expfamily import (
    _abs_ebar_terms,
    _term_rate,
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
    if not (math.isfinite(p) and 2.0 < q < math.inf):
        raise DomainError(f"need a finite p and a finite interpolation exponent q > 2, got p={p}, q={q}")
    exps = (0.0, 1.0, p, q)
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(exps[i] - exps[j]) <= 1e-12:
                raise DomainError(f"exponents 0, 1, p={p}, q={q} must be pairwise distinct")

    nodes = np.array([x1, x2, x3], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        system = np.column_stack([np.ones(3), nodes, nodes**q])
        rhs = nodes**p
        try:
            sol = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"interpolation system is numerically singular: {exc}") from exc
        residual = np.max(np.abs(system @ sol - rhs))
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(sol))):
        raise NumericalError(f"x^p at the nodes or the coefficients overflow: p={p}, q={q}, coefficients {sol}")
    if not residual <= 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
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
    t = 0 serves the high-order regime of the decomposition check.  Raises
    NumericalError when the root falls on a bracket end, and BracketError
    when the bracket holds no sign change or the root's residual exceeds
    1e-10 of the moments' size.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie strictly inside (0, 1), got {t}")

    def moments(q):
        return (
            moment_et(q, baseline_t) / family_scale(baseline_t) ** q,
            moment_et(q, t) / family_scale(t) ** q,
        )

    def gap(q):
        baseline_moment, moment = moments(q)
        return baseline_moment - moment

    q_lo, q_hi = bracket
    root = bisect_root(gap, q_lo, q_hi)
    if root in (q_lo, q_hi):
        # the gap rounds to zero at the bracket end: at q = 2 every member
        # matches the baseline, so the root is not told apart from that one
        raise NumericalError(f"matching order at t={t} lies within rounding of the bracket end q={root}")
    baseline_moment, moment = moments(root)
    residual = baseline_moment - moment
    if abs(residual) > 1e-10 * max(abs(baseline_moment), abs(moment)):
        raise BracketError(f"matching order relative residual too large: {residual:g}")
    return root


def _decomposition_regime(p: float, p0: float):
    """Baseline parameter, matching bracket, and product sign per regime."""
    if p == 1.0:
        raise DomainError("p = 1 is the L1 normalisation, where the power gap vanishes identically")
    if -1.0 < p < 1.0 and p != 0.0:
        return 1.0, (2.0, 4.0), (p > 0.0)
    if 1.0 < p <= p0:
        return 1.0, (p0, 4.0), False
    if p >= p0:
        return 0.0, (2.0, p0), False
    raise DomainError(f"no decomposition regime covers p = {p}")


def nonneg_decomposition_check(t: float, p) -> bool:
    """Certify by Descartes' rule (module docstring) that (density gap) *
    (power gap) is nonnegative on (0, inf), nonpositive for p in (0, 1).

    Returns False if the product's one sign is the wrong one.  Raises
    NumericalError if a solved coefficient is within rounding of zero, by
    the interpolation system's condition number, or the coefficients do not
    change sign three times.  t must lie where ``matching_order`` and
    ``verify_3crossings`` resolve, about [1e-5, 1 - 1e-5].
    """
    p = as_order(p)
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie strictly inside (0, 1), got {t}")
    baseline, bracket, flip = _decomposition_regime(p, find_p0())
    q = matching_order(t, bracket, baseline_t=baseline)
    certificates = verify_3crossings(t)
    # the gap is density(baseline) - density(t): report_upper's orientation,
    # report_lower's negated
    report = certificates.report_upper if baseline == 1.0 else certificates.report_lower
    gap_ends_positive = (report.pattern[-1] == "+") == (baseline == 1.0)
    coeffs = vandermonde_coeffs(p, q, *report.crossings)

    nodes = np.asarray(report.crossings)
    cond = np.linalg.cond(np.column_stack([np.ones(3), nodes, nodes**q]))
    if min(map(abs, coeffs)) <= _SIGN_MARGIN * cond * max(map(abs, coeffs)):
        raise NumericalError(f"interpolation coefficients {coeffs} have a sign within rounding (t={t}, p={p})")
    # ordered by exponent; the coefficient of x^p is exactly 1
    alpha, beta, gamma_q = coeffs
    signs = [c > 0.0 for _, c in sorted([(p, 1.0), (0.0, -alpha), (1.0, -beta), (q, -gamma_q)])]
    changes = sum(a != b for a, b in pairwise(signs))
    if changes != 3:
        raise NumericalError(f"power gap coefficients change sign {changes} times, not 3 (t={t}, p={p})")
    # the product's one sign is that of both factors past the last crossing
    return (gap_ends_positive == signs[-1]) != flip
