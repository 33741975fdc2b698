"""Independent routes that the tests check the package against: the catalogue
densities and the quadrature of their moments, the folded |E_t| / scale(t)
density, the family moment, that density and the decomposition's
interpolant at mpmath's precision, the rank rule for the sign of its power
gap, and the Monte-Carlo estimators drawn serially (equal bit for bit) or
summed as one array."""

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable

import mpmath
import numpy as np
import pytest
from scipy import integrate

from lcmoments import mc
from lcmoments.expfamily import (
    TwoSidedExpParams,
    _truncated_exponential_mean,
    centred_gaussian,
    centred_uniform,
    family_scale,
    truncated_exponential,
    two_sided_exponential_density,
)
from lcmoments.specfun import as_order


def density_xab(params, x):
    """Density of X(a, b); accepts scalars or arrays.

    When a = 0 (or b = 0) the right (or left) branch is identically zero.
    """
    a, b = params.a, params.b
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    out = np.zeros_like(xs)
    right = xs >= b - a
    # a subnormal scale overflows the exponent to -inf, whose exp is the right 0
    with np.errstate(over="ignore"):
        if a > 0.0:
            out[right] = np.exp(-(xs[right] + a - b) / a)
        if b > 0.0:
            out[~right] = np.exp((xs[~right] + a - b) / b)
    out /= a + b
    return float(out[0]) if scalar else out


def folded_density(t, x):
    """The density of |E_t| / scale(t) at x >= 0 (scalar or array), folded from
    the density of E_t = X(1, t): mu (f(mu x) + f(-mu x)) with mu = scale(t)."""
    mu = family_scale(t)
    params = TwoSidedExpParams(1.0, t)
    return mu * (density_xab(params, mu * x) + density_xab(params, -mu * x))


@dataclass(frozen=True)
class DensityOracle:
    """A catalogue density's pdf (scalars or arrays), support and kinks."""

    pdf: Callable
    support: tuple[float, float]
    kinks: tuple[float, ...] = ()


def two_sided_oracle(a, b):
    params = TwoSidedExpParams(a, b)
    support = (-math.inf if b > 0.0 else b - a, math.inf if a > 0.0 else b - a)
    return DensityOracle(lambda x: density_xab(params, x), support, (b - a,))


def _uniform(c):
    height = 1.0 / (2.0 * c)
    return DensityOracle(lambda x: np.where(np.abs(np.asarray(x, dtype=float)) <= c, height, 0.0), (-c, c))


def _gaussian(s):
    norm = 1.0 / (s * math.sqrt(2.0 * math.pi))
    return DensityOracle(lambda x: norm * np.exp(-0.5 * (np.asarray(x, dtype=float) / s) ** 2), (-math.inf, math.inf))


def _truncated(cut):
    z = -math.expm1(-cut)
    mean = _truncated_exponential_mean(cut)

    def pdf(x):
        xs = np.asarray(x, dtype=float)
        inside = (xs >= -mean) & (xs <= cut - mean)
        return np.where(inside, np.exp(-(xs + mean)) / z, 0.0)

    return DensityOracle(pdf, (-mean, cut - mean))


# the oracle of each catalogue constructor's density, from the same arguments
ORACLES = {
    two_sided_exponential_density: two_sided_oracle,
    centred_uniform: _uniform,
    centred_gaussian: _gaussian,
    truncated_exponential: _truncated,
}


def case(constructor, *args):
    """(density, oracle) of a catalogue constructor's density."""
    return constructor(*args), ORACLES[constructor](*args)


# the oracle of each density in catalogue(), by name
_CATALOGUE = [(two_sided_exponential_density, 1.0, b) for b in (1.0, 0.5, 0.0)]
_CATALOGUE += [(centred_uniform, 1.0), (centred_gaussian, 1.0), (truncated_exponential, 2.0)]
CATALOGUE_ORACLES = {density.name: oracle for density, oracle in (case(*args) for args in _CATALOGUE)}


def _quad_split(f, lo, hi, breakpoints):
    """int_lo^hi f by scipy's adaptive quad (absolute 1e-12, relative 1e-10),
    summed over the pieces between the breakpoints inside (lo, hi): quad
    takes ``points`` only on finite ranges.  A piece that does not converge
    fails the test."""
    pts = sorted({float(x) for x in breakpoints if lo < x < hi})

    def piece(a, b):
        value, _, _, *message = integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-10, limit=200, full_output=1)
        # quad appends a message only when its error code is nonzero
        if message:
            pytest.fail(f"quadrature on [{a}, {b}] did not converge: {message[0]}")
        return value

    return sum(piece(a, b) for a, b in pairwise([lo, *pts, hi]))


def _one_sided_abs_moment(pdf, upper, p, breakpoints):
    """int_0^upper x^p pdf(x) dx.  For p < 0 the singular x^p is integrated
    exactly against pdf(0) on [0, min(upper, 1)], and the quadrature there
    sees only x^p (pdf(x) - pdf(0)), bounded since a log-concave density is
    Lipschitz at the interior point 0."""
    if p >= 0.0:
        return _quad_split(lambda x: x**p * float(pdf(x)), 0.0, upper, breakpoints)
    head, f0 = min(upper, 1.0), float(pdf(0.0))
    near = f0 * head ** (1.0 + p) / (1.0 + p)
    near += _quad_split(lambda x: x**p * (float(pdf(x)) - f0), 0.0, head, breakpoints)
    return near + (_quad_split(lambda x: x**p * float(pdf(x)), 1.0, upper, breakpoints) if upper > 1.0 else 0.0)


def half_moments(oracle, p):
    """(int_{x<0} |x|^p f, int_{x>0} x^p f) of an oracle density by quadrature
    split at 0 and at its kinks: E|X|^p is their sum, P(X > 0) the second at
    p = 0, and the mean their difference at p = 1."""
    p = as_order(p)
    (lo, hi), kinks = oracle.support, oracle.kinks
    left = _one_sided_abs_moment(lambda x: oracle.pdf(-x), -lo, p, [-b for b in kinks if b < 0.0])
    return left, _one_sided_abs_moment(oracle.pdf, hi, p, [b for b in kinks if b > 0.0])


def mp_shifted_exp_moment(p, t):
    """E(tE + 1-t)^p = t^p e^u Gamma(p+1, u) with u = (1-t)/t, for mpf p and t > 0."""
    u = (1 - t) / t
    return t**p * mpmath.exp(u) * mpmath.gammainc(p + 1, u)


def mp_moment_et(p, t):
    """E|E_t|^p as an mpf at the working precision, from the three-term
    formula with each term by mpmath; p and t may be floats or mpf."""
    p, t = mpmath.mpf(p), mpmath.mpf(t)
    c = 1 - t
    head = c ** (p + 1) / (p + 1) * mpmath.hyp1f1(p + 1, p + 2, c) + mpmath.gamma(p + 1)
    total = mpmath.exp(t - 1) / (1 + t) * head
    return total + t / (1 + t) * mp_shifted_exp_moment(p, t) if t > 0 else total


def mp_folded_density(t, x):
    """The density of |E_t| / scale(t) at x >= 0 as an mpf at the working
    precision, from the two-branch formula."""
    t, x = mpmath.mpf(t), mpmath.mpf(x)
    mu = 2 * mpmath.exp(t - 1) / (1 + t)
    y = mu * x
    if y <= 1 - t:
        return mu * mu * mpmath.cosh(y)
    tail = mpmath.exp(-y) + (mpmath.exp((1 - y) / t - t) if t > 0 else 0)
    return mu * mu / 2 * tail


def mp_interpolant(p, q, nodes):
    """(alpha, beta, gamma) with alpha + beta*x + gamma*x^q = x^p at the three
    nodes, as mpf solved at 40 digits."""
    with mpmath.workdps(40):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        xs = [mpmath.mpf(x) for x in nodes]
        solved = mpmath.lu_solve(mpmath.matrix([[1, x, x**q] for x in xs]), mpmath.matrix([x**p for x in xs]))
        return tuple(solved[i] for i in range(3))


def power_gap_ends_positive(p, q):
    """The sign of x^p - alpha - beta*x - gamma*x^q past its last zero, for
    distinct exponents 0, 1, p, q, with three positive zeros: by Descartes'
    rule its coefficients alternate in sign by exponent, and that of x^p is
    +1, so the rank of p among the exponents gives it."""
    rank = sorted((0.0, 1.0, p, q)).index(p)
    return (3 - rank) % 2 == 0


def _centred_draws(cfg):
    """Yield (start, E-1, E'-1) chunk by chunk, in chunk order."""
    start = 0
    for c, size in enumerate(mc._chunk_sizes(cfg.samples)):
        rng = mc._chunk_rng(cfg.seed, c)
        e1, e2 = rng.standard_exponential(size), rng.standard_exponential(size)
        yield start, e1 - 1.0, e2 - 1.0
        start += size


def serial_sample_xab(params, cfg):
    """All cfg.samples samples of a(E-1) - b(E'-1) as one array."""
    return np.concatenate([params.a * d1 - params.b * d2 for _, d1, d2 in _centred_draws(cfg)])


def serial_xab_moments(cases, cfg):
    """Serial oracle of estimate_xab_moments: one chunk loop, block sums in chunk order."""
    n = cfg.samples
    edges = mc._block_edges(n)
    block_sums = np.zeros((len(cases), mc._JACKKNIFE_BLOCKS))
    for start, d1, d2 in _centred_draws(cfg):
        first = int(np.searchsorted(edges, start, side="right")) - 1
        cuts = np.concatenate(([start], edges[(edges > start) & (edges < start + d1.size)])) - start
        for sums, (params, p) in zip(block_sums, cases):
            xs = params.a * d1 - params.b * d2
            mc._abs_power_inplace(xs, p)
            sums[first : first + cuts.size] += np.add.reduceat(xs, cuts)
    return [mc._jackknife(sums, np.diff(edges), n) for sums in block_sums]


def array_abs_moment(samples, p):
    """The estimate of estimate_xab_moments from an array of samples held at
    once: the mean of |x|^p, jackknifed over the same blocks."""
    values = np.array(samples, dtype=float)
    edges = mc._block_edges(values.size)
    mc._abs_power_inplace(values, p)
    return mc._jackknife(np.add.reduceat(values, edges[:-1]), np.diff(edges), values.size)
