"""Exact three-crossings certificates and the decomposition check.

The comparison inequalities reduce to integrals of (density gap) * (power
gap), pointwise one-signed once alpha + beta*x + gamma*x^q is pinned at the
density gap's three crossings.  Between breakpoints each gap is a sum of at
most four exponentials (``_abs_ebar_terms``), whose zeros Rolle recursion
isolates exactly, the constructive proof of Laguerre's rule of signs
(Polya-Szego, Problems and Theorems in Analysis II, Part V).  The recursion
ends by Descartes' rule: a sum has no more zeros than its coefficients,
ordered by rate, have sign changes, so a sum with one change is one run,
with a zero if its end signs differ.  Three of a certificate's five pieces
end there and the other two one derivative down, 7 coefficient frames.  A
two-term run's zero is a logarithm; a run of three or four terms has its
root from ``search.bisect_root``, Brent's method down to adjacent floats,
run on the sum's value alone and handed its values at the run's ends.  The
rounding bound is taken only at run ends and stationary points, where the
certificate reads a sign.  A certificate holds or raises: a sign within
that bound raises NumericalError, naming the gap and the point, so every
report returned is certified.  It takes about 53 evaluations of the sums
(the mean over 99 values of t in [0.01, 0.99]).
A sign change across a breakpoint (the t = 0 jump at e/2) is a crossing there.

By Descartes' rule of signs for real exponents (same source; G. J. O.
Jameson, Math. Gazette 90, 2006) the power gap x^p - alpha - beta*x -
gamma*x^q has no more positive zeros than its four coefficients, ordered by
exponent, have sign changes.  It vanishes at the three crossings, so the
coefficients alternate in sign, the crossings are its only zeros and
simple, and the product has the sign of both factors past the last one.
The coefficient of x^p is +1, so p's rank among the exponents 0, 1, p, q
fixes the leading sign, and no coefficient is solved for.  The exponent q
is the matching order, where the baseline member's normalized q-th moment
equals E_t's.  Each regime's bracket of q fixes p's rank, so the
decomposition check needs only that q exists, the member gap changing sign
across the bracket, and certifies only the density gap it reads.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import partial
from itertools import pairwise

from .constants import _member_gap, find_p0
from .errors import BracketError, CrossingPatternError, DomainError, NumericalError
from .expfamily import family_scale
from .search import bisect_root
from .specfun import as_order

# a sign is trusted when the sum exceeds this multiple of the rounding of its terms
_SIGN_MARGIN = 64.0 * sys.float_info.epsilon

_TWO_OVER_E = 2.0 / math.e


def _term_rate(sign: float, rho: float) -> float:
    """The rate sign * (2/e) * e^rho of an exponential term; 2/e = scale(0)."""
    return sign * _TWO_OVER_E * math.exp(rho)


def _abs_ebar_terms(t: float):
    """The density of |E_t|/scale(t) as two exponential sums: (kink, head, tail).

    A term (c, sign, rho) is c * exp(_term_rate(sign, rho) * (x - anchor)),
    anchored at 0 on the head [0, kink] and at the kink on the tail.  With
    mu = scale(t) = (2/e) e^rho, rho = t - log1p(t), the head is
    mu^2/2 (e^(mu x) + e^(-mu x)) and the tail mu^2 e^(t-1)/2 e^(-mu (x-kink))
    + mu/(1+t) e^(-(mu/t)(x-kink)), whose second term t = 0 lacks (a jump at
    e/2).  Log-rates give accurate rate differences through expm1, and the
    anchors keep e^(1/t) from forming.
    """
    mu = family_scale(t)
    rho = t - math.log1p(t)
    half = 0.5 * mu * mu
    head = ((half, 1.0, rho), (half, -1.0, rho))
    tail = ((half * math.exp(t - 1.0), -1.0, rho),)
    # for subnormal t the rate mu/t overflows; the term then vanishes at every
    # float past the kink, and the head owns the kink itself
    if t >= sys.float_info.min:
        tail += ((mu / (1.0 + t), -1.0, rho - math.log(t)),)
    return (1.0 - t) / mu, head, tail


class SignChangeReport(namedtuple("SignChangeReport", "crossings pattern")):
    """The sign changes of a density gap on (0, inf), certified.

    ``pattern`` starts with the sign before the first crossing, e.g. "+-+-"
    for three crossings starting positive.  A report exists only once every
    sign the isolation read cleared its rounding bound; otherwise the
    isolation raised NumericalError.
    """

    __slots__ = ()
    # ``_replace`` builds through ``_make``, which would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, crossings, pattern):
        if any(b <= a for a, b in pairwise(crossings)):
            raise DomainError("crossings must be strictly increasing")
        if len(crossings) + 1 != len(pattern):
            raise DomainError("pattern length must be one more than the crossing count")
        if any(a == b for a, b in pairwise(pattern)):
            raise DomainError("pattern signs must alternate")
        return super().__new__(cls, crossings, pattern)

    def as_dict(self) -> dict:
        # "certified" is part of the record format: a report that exists is certified
        return {"crossings": list(self.crossings), "pattern": self.pattern, "certified": True}


def _normalized(coef: dict[int, float]) -> dict[int, float]:
    """Drop zero coefficients and scale the rest to at most 1 in magnitude."""
    coef = {i: c for i, c in coef.items() if c != 0.0}
    scale = max(map(abs, coef.values()), default=1.0)
    return {i: c / scale for i, c in coef.items()}


def _exp_sum_value(pairs, lo: float, x: float) -> float:
    """The sum of c * exp(rate * (x - lo)) over the (c, rate) pairs."""
    return math.fsum([c * math.exp(r * (x - lo)) for c, r in pairs])


def _exp_sum_bounded(pairs, lo: float, x: float) -> tuple[float, float]:
    """``_exp_sum_value`` and the rounding bound a sign of it must exceed."""
    exponents = [r * (x - lo) for _, r in pairs]
    parts = [c * math.exp(e) for (c, _), e in zip(pairs, exponents)]
    bound = _SIGN_MARGIN * sum(abs(v) * (1.0 + abs(e)) for v, e in zip(parts, exponents) if v)
    return math.fsum(parts), bound


def _exp_sum_zeros(terms, lo: float, hi: float, gap: str = "g"):
    """The zeros of g(x) = sum c * exp(rate * (x - lo)) on (lo, hi); hi may be inf.

    ``terms`` are (c, sign, rho) with rate ``_term_rate(sign, rho)``.  Returns
    (zeros, sign of g at lo).  Raises NumericalError, naming ``gap`` and the
    point, if a piece end or a stationary value lies within the rounding
    bound of zero, or g vanishes identically.
    """
    merged: dict[tuple[float, float], float] = {}
    for c, sign, rho in terms:
        merged[sign, rho] = merged.get((sign, rho), 0.0) + c
    # ordered by rate: negative rates first, then by sign * rho
    keys = sorted((k for k, c in merged.items() if c != 0.0), key=lambda k: (k[0], k[0] * k[1]))
    if not keys:
        raise NumericalError(f"{gap} vanishes identically on ({lo!r}, {hi!r})")
    rates = [_term_rate(*k) for k in keys]
    # rate differences, from expm1 of the log-rates where the signs agree
    diff = [
        [rb * math.expm1(a[1] - b[1]) if a[0] == b[0] else ra - rb for b, rb in zip(keys, rates)]
        for a, ra in zip(keys, rates)
    ]

    def zeros(coef):
        """Rolle recursion ended by Descartes' rule: a sum has no more zeros
        on the line than its coefficients, by rate, have sign changes.  With
        none it has no zero; with one, its signs at lo and hi settle it, as
        one run.  Any other sum is cut into monotone runs by the zeros of its
        derivative, in the frame of the median rate (which keeps the shifted
        rates moderate), each run with a root if its ends differ in sign."""
        changes = sum((a < 0.0) != (b < 0.0) for a, b in pairwise(coef.values()))
        if not changes:
            return []
        stationary = []
        if changes > 1:
            k = list(coef)[len(coef) // 2]
            stationary = zeros(_normalized({i: c * diff[i][k] for i, c in coef.items() if i != k}))
        # (c, rate) pairs in the frame of the fastest-growing term
        top = max(coef)
        pairs = [(c, diff[i][top]) for i, c in coef.items()]
        edges = [lo, *stationary, hi]
        # at lo every exponent is zero: the value and its bound are the coefficients'
        values = [(math.fsum(coef.values()), _SIGN_MARGIN * sum(map(abs, coef.values())))]
        values += [_exp_sum_bounded(pairs, lo, x) for x in edges[1:]]
        for x, (v, bound) in zip(edges, values):
            if not abs(v) > bound:
                raise NumericalError(f"{gap}: the sign at x={x!r} lies within rounding of zero")
        if len(coef) == 2 and (values[0][0] < 0.0) != (values[1][0] < 0.0):
            # two terms, by rate: c e^(d (x - lo)) + c_top vanishes at a logarithm, kept inside the run
            (c, d), (c_top, _) = pairs
            return [min(max(lo + math.log(-c_top / c) / d, math.nextafter(lo, hi)), math.nextafter(hi, lo))]
        return [
            bisect_root(partial(_exp_sum_value, pairs, lo), a, b, ends=(va, vb))
            for (a, (va, _)), (b, (vb, _)) in pairwise(zip(edges, values))
            if (va < 0.0) != (vb < 0.0)
        ]

    coef = _normalized({i: merged[k] for i, k in enumerate(keys)})
    if math.isinf(hi):
        # past this point the fastest-growing term outweighs all the others together
        top = len(keys) - 1
        logs = [math.log(len(keys) * abs(c)) - math.log(abs(coef[top])) for c in coef.values()]
        hi = lo + max([0.0, *(logs[i] / -diff[i][top] for i in range(top))])
    return tuple(zeros(coef)), "+" if math.fsum(coef.values()) > 0.0 else "-"


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
    """Crossings and sign pattern of density(|Ebar_s|) - density(|Ebar_t|);
    raises NumericalError where a sign it reads is within rounding of zero."""
    crossings, pattern = [], ""
    for lo, hi, terms in _gap_pieces(s, t):
        found, first = _exp_sum_zeros(terms, lo, hi, f"density gap E_{s!r} against E_{t!r}")
        if not pattern:
            pattern = first
        elif first != pattern[-1]:
            crossings.append(lo)  # the sign changes across the breakpoint
            pattern += first
        for x in found:
            crossings.append(x)
            pattern += "-" if pattern[-1] == "+" else "+"
    return tuple(crossings), pattern


class ThreeCrossingsResult(namedtuple("ThreeCrossingsResult", "t report_upper report_lower")):
    """Certificates for both density-gap comparisons at one family parameter.

    ``report_upper`` covers density(|Ebar_1|) - density(|Ebar_t|),
    ``report_lower`` covers density(|Ebar_t|) - density(|Ebar_0|).
    """

    __slots__ = ()


def verify_3crossings(t: float) -> ThreeCrossingsResult:
    """Certify that both density gaps cross exactly three times as (+,-,+,-).

    The sign pattern is certified; the crossing locations are floats whose
    relative error grows like 1e-16 / (1-t)^2 near t = 1, where the gaps'
    terms nearly cancel: against a 50-digit bisection, 1.4e-6 at 1 - t =
    1e-5 and 3e-4 to 1.3e-3 for 1 - t from 1e-6 to 3e-7.

    Raises NumericalError if a sign the isolation relies on lies within
    rounding of zero, and CrossingPatternError, with the reports attached,
    if either gap shows another pattern.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie strictly inside (0, 1), got {t}")
    reports = [SignChangeReport(*_gap_crossings(1.0, t)), SignChangeReport(*_gap_crossings(t, 0.0))]
    for label, report in zip(("upper", "lower"), reports):
        if len(report.crossings) != 3 or report.pattern != "+-+-":
            raise CrossingPatternError(
                f"{label} comparison at t={t}: expected 3 crossings (+,-,+,-), "
                f"got {len(report.crossings)} with pattern {report.pattern}",
                reports=reports,
            )
    return ThreeCrossingsResult(t, *reports)


def _decomposition_regime(p: float, p0: float):
    """Baseline parameter, bracket of q, and the sign the density gap must end
    with: the bracket fixes p's rank among 0, 1, p, q (module docstring), and
    for p in (0, 1) the product's sign is flipped."""
    if p == 1.0:
        raise DomainError("p = 1 is the L1 normalisation, where the power gap vanishes identically")
    if -1.0 < p < 1.0 and p != 0.0:
        return 1.0, (2.0, 4.0), "-"
    if 1.0 < p <= p0:
        return 1.0, (p0, 4.0), "-"
    if p >= p0:
        return 0.0, (2.0, p0), "+"
    raise DomainError(f"no decomposition regime covers p = {p}")


def nonneg_decomposition_check(t: float, p) -> bool:
    """Certify by Descartes' rule (module docstring) that (density gap) *
    (power gap) is nonnegative on (0, inf), nonpositive for p in (0, 1).

    Only the gap the product reads, density(|Ebar_baseline|) -
    density(|Ebar_t|), is certified, and of q only that its bracket holds it.
    Returns False if the product's one sign is the wrong one.  Raises
    BracketError if the member gap has one sign at both bracket ends,
    NumericalError if it is zero at one or a sign the crossings read is
    within rounding of zero, and CrossingPatternError if the density gap
    does not cross three times.  The bracket-end signs carry no rounding
    margin: they agree with the 40-digit member gap's for t in [1e-5, 1e-2]
    and its mirror, and a wrong one first appears about 5e-6 from an end.
    """
    p = as_order(p)
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie strictly inside (0, 1), got {t}")
    baseline, bracket, last_sign = _decomposition_regime(p, find_p0())
    ends = [_member_gap(q, baseline, t, family_scale) for q in bracket]
    if not ends[0] * ends[1] < 0.0:
        # a zero end is the matching order within rounding of that end
        error = NumericalError if 0.0 in ends else BracketError
        raise error(f"E_{baseline!r} against E_{t!r}: member gap {ends} at {bracket} certifies no matching order")
    nodes, pattern = _gap_crossings(baseline, t)
    if len(nodes) != 3:
        message = f"density gap E_{baseline!r} against E_{t!r}: {len(nodes)} crossings ({pattern}), not 3"
        raise CrossingPatternError(message, [SignChangeReport(nodes, pattern)])
    return pattern[-1] == last_sign
