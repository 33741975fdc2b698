import math

import numpy as np
import pytest

from lcmoments.errors import DomainError
from lcmoments.expfamily import TwoSidedExpParams, family_scale, moment_et
from lcmoments.mc import McConfig, estimate_abs_moment, estimate_density_at_zero, sample_xab
from lcmoments.simplex import WeightVector


class TestConfig:
    def test_sample_floor(self):
        with pytest.raises(DomainError):
            McConfig(seed=1, samples=10_000)

    def test_window_positive(self):
        with pytest.raises(DomainError):
            McConfig(seed=1, density_window=0.0)


class TestDeterminism:
    def test_identical_configs_bitwise(self):
        cfg = McConfig(seed=123, samples=150_000)
        params = TwoSidedExpParams(1.0, 0.4)
        assert np.array_equal(sample_xab(params, cfg), sample_xab(params, cfg))

    def test_density_estimate_reproducible(self):
        w = WeightVector.from_raw([1.0, -1.0], project=True)
        a = estimate_density_at_zero(w, McConfig(seed=5, samples=120_000))
        b = estimate_density_at_zero(w, McConfig(seed=5, samples=120_000))
        assert a == b


class TestSampleXab:
    def test_mean_is_centred(self):
        cfg = McConfig(seed=11, samples=400_000)
        samples = sample_xab(TwoSidedExpParams(1.0, 1.0), cfg)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean()) < 3.0 * se

    def test_mean_abs_matches_quadrature(self):
        cfg = McConfig(seed=12, samples=400_000)
        samples = sample_xab(TwoSidedExpParams(1.0, 0.5), cfg)
        est = estimate_abs_moment(samples, 1.0)
        assert abs(est.estimate - moment_et(1.0, 0.5)) < 3.0 * est.standard_error

    def test_variance_matches_closed_form(self):
        t = 0.7
        cfg = McConfig(seed=13, samples=400_000)
        samples = sample_xab(TwoSidedExpParams(1.0, t), cfg)
        est = estimate_abs_moment(samples, 2.0)
        assert abs(est.estimate - (1.0 + t * t)) < 3.0 * est.standard_error


class TestEstimateAbsMoment:
    def test_second_moment_of_symmetric_member(self):
        cfg = McConfig(seed=21, samples=400_000)
        samples = sample_xab(TwoSidedExpParams(1.0, 1.0), cfg)
        est = estimate_abs_moment(samples, 2.0)
        assert abs(est.estimate - 2.0) < 3.0 * est.standard_error

    def test_normalized_third_moment_near_recorded_value(self):
        t = 0.2
        cfg = McConfig(seed=22, samples=600_000)
        samples = sample_xab(TwoSidedExpParams(1.0, t), cfg) / family_scale(t)
        est = estimate_abs_moment(samples, 3.0)
        assert abs(est.estimate - 5.9746) < 3.0 * est.standard_error

    def test_one_sided_fourth_moment(self):
        cfg = McConfig(seed=23, samples=600_000)
        samples = sample_xab(TwoSidedExpParams(1.0, 0.0), cfg)
        est = estimate_abs_moment(samples, 4.0)
        assert abs(est.estimate - 9.0) < 3.0 * est.standard_error

    def test_negative_order_estimator(self):
        cfg = McConfig(seed=24, samples=400_000)
        samples = sample_xab(TwoSidedExpParams(1.0, 1.0), cfg)
        est = estimate_abs_moment(samples, -0.5)
        target = moment_et(-0.5, 1.0)
        assert abs(est.estimate - target) < 4.0 * est.standard_error

    def test_jackknife_matches_classic_se_for_the_mean(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(100_000) + 3.0
        est = estimate_abs_moment(data, 1.0)
        classic = data.std(ddof=1) / math.sqrt(data.size)
        assert est.standard_error == pytest.approx(classic, rel=0.05)


class TestEstimateDensityAtZero:
    def test_pair_equality_case(self):
        w = WeightVector.from_raw([1.0, -1.0], project=True)
        est = estimate_density_at_zero(w, McConfig(seed=31, samples=400_000))
        assert abs(est.estimate - 1.0 / math.sqrt(2.0)) < 3.0 * est.standard_error + 1e-4

    def test_pair_with_zero_weight(self):
        w = WeightVector.from_raw([1.0, 0.0, -1.0], project=True)
        est = estimate_density_at_zero(w, McConfig(seed=32, samples=400_000))
        assert abs(est.estimate - 1.0 / math.sqrt(2.0)) < 3.0 * est.standard_error + 1e-4


def test_coverage_calibration_quick():
    # scaled-down version of the acceptance calibration: target well inside
    # +-3se for nearly all seeds
    target = moment_et(2.0, 0.5)
    hits = 0
    for seed in range(30):
        samples = sample_xab(TwoSidedExpParams(1.0, 0.5), McConfig(seed=seed, samples=100_000))
        est = estimate_abs_moment(samples, 2.0)
        hits += abs(est.estimate - target) <= 3.0 * est.standard_error
    assert hits >= 27
