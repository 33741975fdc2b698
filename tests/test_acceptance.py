"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math

import numpy as np
import pytest

from lcmoments.constants import (
    branch_gap,
    find_l2_transition,
    find_p0,
    scan_family_extrema,
    scan_l2_ratio,
    sharp_constant,
    small_t_bound_coefficient,
)
from lcmoments.crossings import nonneg_decomposition_check, verify_3crossings
from lcmoments.expfamily import (
    TwoSidedExpParams,
    abs_moment,
    catalogue,
    family_scale,
    fradelizi_check,
    moment_et,
    reduction_check,
    two_sided_exponential_density,
)
from lcmoments.mc import McConfig, estimate_density_at_zero, estimate_xab_moments
from lcmoments.simplex import WeightVector, density_at_zero, maximize_section
from lcmoments.specfun import gamma
from oracles import half_moments, serial_sample_xab, two_sided_oracle

INV_SQRT2 = 1.0 / math.sqrt(2.0)

MC_SAMPLES = 10_000_000
MC_SEED = 20250808


def _line(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}")


class _Criterion:
    """Prints the pass/fail line even when an assertion aborts the test."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _line(self.number, self.name, exc_type is None)
        return False


def test_criterion_1_branch_crossover():
    with _Criterion(1, "p0 bracketing and residual"):
        p0 = find_p0()
        assert 2.9414 < p0 < 2.9415
        assert abs(branch_gap(p0)) < 1e-12
        assert branch_gap(2.9414) > 1e-5
        assert branch_gap(2.9415) < -1e-5


def test_criterion_2_maximal_sections():
    with _Criterion(2, "maximal sections attain 2^-1/2 on transposition normals"):
        for n in (2, 3, 4, 5, 10, 25, 50):
            result = maximize_section(n, restarts=20, seed=3)
            assert result.value == pytest.approx(INV_SQRT2, abs=1e-6)
            assert result.max_evaluated <= INV_SQRT2 + 1e-9
            ordered = np.sort(np.abs(result.a_star.a))[::-1]
            assert abs(ordered[0] - INV_SQRT2) < 1e-4
            assert abs(ordered[1] - INV_SQRT2) < 1e-4
            if n >= 2 and ordered.size > 2:
                assert float(ordered[2:].max()) < 1e-4


def test_criterion_3_moment_closed_forms():
    with _Criterion(3, "explicit moments match density quadrature and polynomials"):
        ps = np.linspace(-0.9, 6.0, 20)
        ts = np.linspace(0.0, 1.0, 20)
        for p, t in itertools.product(ps, ts):
            # the moment of Ebar_t = X(1/mu, t/mu), mu = scale(t), by density quadrature
            mu = family_scale(t)
            normalized = moment_et(p, t) / mu**p
            assert normalized == pytest.approx(sum(half_moments(two_sided_oracle(1.0 / mu, t / mu), p)), rel=1e-8)
        for t in ts:
            assert moment_et(2.0, t) == pytest.approx(1.0 + t * t, rel=1e-10)
            assert moment_et(4.0, t) == pytest.approx(
                9.0 * t**4 + 6.0 * t**2 + 9.0, rel=1e-10
            )
            cubic = 2.0 * (6.0 * math.exp(t - 1.0) / (1.0 + t) + t**3 - 1.0)
            assert moment_et(3.0, t) == pytest.approx(cubic, rel=1e-10)


def test_criterion_4_extremiser_scans():
    with _Criterion(4, "family scans hit the sharp endpoint constants"):
        for p in (-0.9, -0.5, 0.5, 1.0):
            result = scan_family_extrema(p, grid_size=1000)
            assert result.argopt_t == 1.0
            assert result.opt_value == pytest.approx(gamma(p + 1.0) ** (1.0 / p), abs=1e-8)
        for p in (1.5, 2.0, 2.5):
            result = scan_family_extrema(p, grid_size=1000)
            assert result.argopt_t == 1.0
            assert result.opt_value == pytest.approx(sharp_constant(p), abs=1e-8)
        for p in (3.5, 4.0, 6.0):
            result = scan_family_extrema(p, grid_size=1000)
            assert result.argopt_t == 0.0
            assert result.opt_value == pytest.approx(sharp_constant(p), abs=1e-8)


def test_criterion_5_crossing_certificates():
    with _Criterion(5, "three crossings with pattern (+,-,+,-) and nonneg products"):
        for t in np.linspace(0.01, 0.99, 99):
            result = verify_3crossings(t)
            for report in (result.report_upper, result.report_lower):
                assert len(report.crossings) == 3
                assert report.pattern == "+-+-"
        for t in (0.25, 0.5, 0.75):
            for p in (-0.5, 2.0, 3.5):
                assert nonneg_decomposition_check(t, p)


def test_criterion_6_moment_inequality_sweeps():
    with _Criterion(6, "moment comparison inequalities across the catalogue"):
        densities = catalogue()
        for density in densities:
            l1 = abs_moment(density, 1.0)
            l2 = abs_moment(density, 2.0) ** 0.5
            for p in (-0.5, 0.5, 1.0):
                lp = abs_moment(density, p) ** (1.0 / p)
                assert lp >= INV_SQRT2 * gamma(p + 1.0) ** (1.0 / p) * l2 - 1e-8
                assert lp >= gamma(p + 1.0) ** (1.0 / p) * l1 - 1e-8
            for p in (2.0, 4.0):
                lp = abs_moment(density, p) ** (1.0 / p)
                assert lp <= sharp_constant(p) * l1 + 1e-8

        laplace = two_sided_exponential_density(1.0, 1.0)
        l1 = abs_moment(laplace, 1.0)
        l2 = abs_moment(laplace, 2.0) ** 0.5
        for p in (-0.5, 0.5, 1.0):
            lp = abs_moment(laplace, p) ** (1.0 / p)
            assert abs(lp - gamma(p + 1.0) ** (1.0 / p) * l1) < 1e-10
            assert abs(lp - INV_SQRT2 * gamma(p + 1.0) ** (1.0 / p) * l2) < 1e-10

        one_sided = two_sided_exponential_density(1.0, 0.0)
        l1 = abs_moment(one_sided, 1.0)
        l4 = abs_moment(one_sided, 4.0) ** 0.25
        assert abs(l4 - sharp_constant(4.0) * l1) < 1e-10


def test_criterion_7_monte_carlo_cross_validation():
    with _Criterion(7, "Monte-Carlo estimates inside 3 standard errors"):
        cfg = McConfig(seed=MC_SEED, samples=MC_SAMPLES)

        samples_sym = serial_sample_xab(TwoSidedExpParams(1.0, 1.0), cfg)
        se_mean = samples_sym.std(ddof=1) / math.sqrt(samples_sym.size)
        assert abs(samples_sym.mean()) <= 3.0 * se_mean
        del samples_sym

        s = family_scale(0.2)
        cases = [
            (TwoSidedExpParams(1.0, 1.0), 2.0, 2.0),
            (TwoSidedExpParams(1.0, 0.5), 1.0, moment_et(1.0, 0.5)),
            (TwoSidedExpParams(1.0, 0.5), 2.0, 1.25),
            (TwoSidedExpParams(1.0 / s, 0.2 / s), 3.0, moment_et(3.0, 0.2) / s**3),
            (TwoSidedExpParams(1.0, 0.0), 4.0, 9.0),
        ]
        estimates = estimate_xab_moments([(params, p) for params, p, _ in cases], cfg)
        for (_, _, target), est in zip(cases, estimates):
            assert abs(est.estimate - target) <= 3.0 * est.standard_error

        for raw in ([1.0, -1.0], [1.0, 0.0, -1.0]):
            w = WeightVector.from_raw(raw, project=True)
            est = estimate_density_at_zero(w, cfg)
            assert abs(est.estimate - INV_SQRT2) <= 3.0 * est.standard_error + 1e-4

        w = WeightVector.from_raw([2.0, -1.0, -1.0], project=True)
        est = estimate_density_at_zero(w, cfg)
        assert abs(est.estimate - density_at_zero(w)) <= 3.0 * est.standard_error + 1e-4

        # +-3se coverage of the closed form over 100 seeds
        target = moment_et(2.0, 0.5)
        hits = 0
        for seed in range(100):
            [est] = estimate_xab_moments([(TwoSidedExpParams(1.0, 0.5), 2.0)], McConfig(seed=seed, samples=100_000))
            hits += abs(est.estimate - target) <= 3.0 * est.standard_error
        assert hits >= 95


def test_criterion_8_reduction_and_fradelizi_sweeps():
    with _Criterion(8, "reduction and comparison-density checks hold, tight on family"):
        for density in catalogue():
            for p in (-0.5, 0.5, 1.5, 3.0):
                assert reduction_check(density, p).holds
            for exponent in (2.0, 2.5, 3.0):
                assert fradelizi_check(density, exponent).holds

        # equality cases at 1e-10
        for a, b in ((1.0, 1.0), (1.0, 0.5), (1.0, 0.0)):
            member = two_sided_exponential_density(a, b)
            for p in (-0.5, 3.0):
                check = reduction_check(member, p)
                assert abs(check.lhs - check.rhs) < 1e-10
        laplace = two_sided_exponential_density(1.0, 1.0)
        for exponent in (2.0, 3.0):
            check = fradelizi_check(laplace, exponent)
            assert abs(check.lhs - check.rhs) < 1e-10


def test_criterion_9_exploratory_transition_and_slope_constant():
    with _Criterion(9, "L_p/L_2 extremiser transition near 1.68; slope constant near 4.39"):
        transition = find_l2_transition()
        assert abs(transition - 1.68) <= 0.02
        below = scan_l2_ratio(transition - 0.05, grid_size=400)
        above = scan_l2_ratio(transition + 0.05, grid_size=400)
        assert below.argopt_t == 0.5
        assert above.argopt_t in (0.0, 1.0)
        assert abs(small_t_bound_coefficient() - 4.39) <= 0.01
