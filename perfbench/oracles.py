"""Independent references and output checkers for the benchmark.

References are computed in mpmath, outside the timed region, by routes
that share no numerical code with lcmoments:

* family moments from Kummer's function and the upper incomplete gamma
  function (lcmoments integrates by adaptive quadrature);
* the density at zero of a weighted exponential sum from its partial
  fractions, evaluated at a precision raised until two evaluations agree to
  30 digits, so the cancellation that defeats double precision is harmless
  (lcmoments inverts the characteristic function); for two-level normals,
  whose partial fractions have poles of order up to 150, from the closed
  form of the difference of two Gamma variables instead.

Each checker returns ``None`` when an output meets its stated tolerance and
a one-line reason otherwise.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 40
_ROOT_TOL = mpmath.mpf(10) ** -30
WEBB_CEILING = 2.0**-0.5

# stated tolerances, one per kind of output
MOMENT_RTOL = 1e-8  # normalized moment, relative (acceptance criterion 3)
CONSTANT_ATOL = 1e-8  # sharp constants and scan extrema (criterion 4)
P0_ATOL = 1e-9  # branch-crossover order
DENSITY_ATOL = 1e-8  # density at zero of a section normal
VOLUME_RTOL = 1e-9  # section volume against the polytope oracle
CEILING_SLACK = 1e-9  # Webb's ceiling, as in criterion 2
MAX_SECTION_ATOL = 1e-6  # max-section value against the density at its a_star
MC_SIGMAS = 3.0  # Monte-Carlo estimates, in standard errors (criterion 7)
MC_WINDOW_BIAS = 1e-4  # window bias of the density-at-zero estimator (criterion 7)


def _mpf(x) -> mpmath.mpf:
    return mpmath.mpf(float(x))


# ---------------------------------------------------------------------------
# the exponential family
# ---------------------------------------------------------------------------


def family_moment(p, t) -> mpmath.mpf:
    """E|E_t|^p, with int_0^c x^p e^x dx = c^(p+1)/(p+1) 1F1(p+1; p+2; c)
    and E(tE + 1-t)^p = e^u t^p Gamma(p+1, u), u = (1-t)/t."""
    with mpmath.workdps(DIGITS):
        p, t = _mpf(p), _mpf(t)
        c = 1 - t
        head = mpmath.gamma(p + 1)
        if c > 0:
            head += c ** (p + 1) / (p + 1) * mpmath.hyp1f1(p + 1, p + 2, c)
        total = mpmath.exp(t - 1) / (1 + t) * head
        if t > 0:
            u = c / t
            total += t / (1 + t) * mpmath.exp(u) * t**p * mpmath.gammainc(p + 1, u)
        return total


def family_scale(t) -> mpmath.mpf:
    with mpmath.workdps(DIGITS):
        t = _mpf(t)
        return 2 * mpmath.exp(t - 1) / (1 + t)


def normalized_moment(p, t) -> float:
    with mpmath.workdps(DIGITS):
        return float(family_moment(p, t) / family_scale(t) ** _mpf(p))


def norm_ebar(p, t) -> mpmath.mpf:
    with mpmath.workdps(DIGITS):
        return family_moment(p, t) ** (1 / _mpf(p)) / family_scale(t)


def sharp_lower(p) -> float:
    """Gamma(p+1)^(1/p), attained by the symmetric exponential."""
    with mpmath.workdps(DIGITS):
        p = _mpf(p)
        return float(mpmath.gamma(p + 1) ** (1 / p))


def sharp_upper(p) -> float:
    """max{Gamma(p+1)^(1/p), (e/2) ||E - 1||_p} for p >= 1."""
    with mpmath.workdps(DIGITS):
        return float(max(norm_ebar(p, 1), norm_ebar(p, 0)))


def scan_extremum(p) -> float:
    """Optimum of t -> ||Ebar_t||_p: the minimum for p <= 1, else the maximum,
    both attained at an endpoint t in {0, 1}."""
    with mpmath.workdps(DIGITS):
        ends = (norm_ebar(p, 0), norm_ebar(p, 1))
        return float(min(ends) if p <= 1 else max(ends))


def l2_ratio(p, u) -> mpmath.mpf:
    """||Z||_p / ||Z||_2 for the two-sided exponential with branch ratio u."""
    with mpmath.workdps(DIGITS):
        u = _mpf(u)
        return family_moment(p, u) ** (1 / _mpf(p)) / mpmath.sqrt(1 + u * u)


def l2_scan_extremum(p) -> float:
    """Optimum of the L_p/L_2 ratio: the minimum for p < 2, else the maximum,
    over the symmetric (u = 1) and one-sided (u = 0) members."""
    with mpmath.workdps(DIGITS):
        ends = (l2_ratio(p, 0), l2_ratio(p, 1))
        return float(min(ends) if p < 2 else max(ends))


def p0() -> float:
    """Root in [2, 4] of Gamma(p+1) - (e/2)^p E|E-1|^p."""

    def gap(p):
        return mpmath.gamma(p + 1) - (mpmath.e / 2) ** p * family_moment(p, 0)

    with mpmath.workdps(DIGITS):
        return float(mpmath.findroot(gap, mpmath.mpf(2.94), tol=_ROOT_TOL))


def l2_transition() -> float:
    """Order in (1, 2) where the symmetric and one-sided L_p/L_2 ratios tie."""

    def gap(p):
        return l2_ratio(p, 1) - l2_ratio(p, 0)

    with mpmath.workdps(DIGITS):
        return float(mpmath.findroot(gap, mpmath.mpf(1.68), tol=_ROOT_TOL))


# ---------------------------------------------------------------------------
# sections of the simplex
# ---------------------------------------------------------------------------


def _density_sum(weights, dps: int) -> mpmath.mpf:
    """f(0) = sum over distinct positive nodes v of Res_{z=v} z^(m-2) / prod_k (z - w_k).

    This is the divided difference of x_+^(m-2) over the m nonzero weights;
    a node of multiplicity r needs the (r-1)-th derivative of the rest.
    """
    with mpmath.workdps(dps):
        nodes: dict[mpmath.mpf, int] = {}
        for w in weights:
            key = _mpf(w)
            nodes[key] = nodes.get(key, 0) + 1
        m = sum(nodes.values())
        total = mpmath.mpf(0)
        for v, r in nodes.items():
            if v <= 0:
                continue

            def rest(z, v=v):
                out = z ** (m - 2)
                for w, k in nodes.items():
                    if w != v:
                        out /= (z - w) ** k
                return out

            total += rest(v) if r == 1 else mpmath.diff(rest, v, r - 1) / mpmath.factorial(r - 1)
        return total


def density_at_zero(weights) -> float:
    """Density at zero of sum_j w_j E_j over the nonzero weights, to double precision."""
    nonzero = [float(w) for w in weights if abs(float(w)) > 1e-12]
    dps = 50
    previous = _density_sum(nonzero, dps)
    while True:
        dps *= 2
        current = _density_sum(nonzero, dps)
        with mpmath.workdps(dps):
            if abs(current - previous) <= mpmath.mpf(10) ** -30 * abs(current):
                return float(current)
        previous = current


def two_level_density_at_zero(weights) -> float:
    """Density at zero of alpha G_a - beta G_b, G_k ~ Gamma(k), for a normal
    with a weights alpha > 0 and b weights -beta < 0: the integral over x > 0
    of the two Gamma densities, in closed form,

        Gamma(a+b-1) / (Gamma(a) Gamma(b)) alpha^(b-1) beta^(a-1) / (alpha+beta)^(a+b-1).
    """
    values = sorted({float(w) for w in weights})
    if len(values) != 2 or not values[0] < 0 < values[1]:
        raise ValueError(f"not a two-level normal: values {values[:4]}")
    beta, alpha = -values[0], values[1]
    a = sum(float(w) == alpha for w in weights)
    b = len(weights) - a
    with mpmath.workdps(DIGITS):
        alpha, beta = _mpf(alpha), _mpf(beta)
        log_f = (
            mpmath.loggamma(a + b - 1)
            - mpmath.loggamma(a)
            - mpmath.loggamma(b)
            + (b - 1) * mpmath.log(alpha)
            + (a - 1) * mpmath.log(beta)
            - (a + b - 1) * mpmath.log(alpha + beta)
        )
        return float(mpmath.exp(log_f))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_close(got, ref: float, atol: float = 0.0, rtol: float = 0.0, what: str = "value"):
    """None when |got - ref| <= atol + rtol * |ref|."""
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return f"{what} {got!r} is not a finite number"
    limit = atol + rtol * abs(ref)
    if abs(got - ref) > limit:
        return f"{what} {got!r} misses reference {ref!r} by {abs(got - ref):.3e} > {limit:.1e}"
    return None


def check_density(got, ref: float):
    return check_close(got, ref, atol=DENSITY_ATOL, what="density_at_zero")


def check_ceiling(value, what: str = "density_at_zero"):
    """Webb's bound f(0) <= 2^(-1/2) for unit zero-sum normals."""
    if not value <= WEBB_CEILING + CEILING_SLACK:
        return f"{what} {value!r} exceeds Webb's ceiling 2^(-1/2) by {value - WEBB_CEILING:.3e}"
    return None


def check_pattern(report: dict, label: str):
    """A crossing report must show exactly three crossings in the pattern +-+-."""
    crossings, pattern = report["crossings"], report["pattern"]
    if len(crossings) != 3 or pattern != "+-+-":
        return f"{label} gap: {len(crossings)} crossings, pattern {pattern!r}; expected 3, '+-+-'"
    return None


def check_mc(estimate: float, standard_error: float, target: float, bias: float = 0.0):
    """A Monte-Carlo estimate must lie within MC_SIGMAS standard errors (plus bias)."""
    limit = MC_SIGMAS * standard_error + bias
    if not abs(estimate - target) <= limit:
        return (
            f"estimate {estimate!r} is {abs(estimate - target) / standard_error:.2f} standard "
            f"errors from {target!r}; allowed {MC_SIGMAS:g}"
        )
    return None


def check_records_ok(records: list[dict]):
    """Every record of a verify suite must carry status ok."""
    bad = [r for r in records if r.get("status") != "ok"]
    if bad:
        return f"{len(bad)} of {len(records)} records not ok, first: {bad[0]['inputs']}"
    return None
