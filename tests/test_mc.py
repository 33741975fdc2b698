import math
import tracemalloc

import numpy as np
import pytest

from lcmoments import mc
from lcmoments.errors import DomainError, NumericalError
from lcmoments.expfamily import TwoSidedExpParams, family_scale, moment_et
from lcmoments.mc import (
    McConfig,
    estimate_abs_moment,
    estimate_density_at_zero,
    estimate_xab_moments,
    sample_xab,
)
from lcmoments.simplex import WeightVector


class TestConfig:
    def test_sample_floor(self):
        with pytest.raises(DomainError):
            McConfig(seed=1, samples=10_000)

    @pytest.mark.parametrize("seed", [-3, True, 1.0, "1", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(DomainError):
            McConfig(seed=seed)

    @pytest.mark.parametrize("samples", [1e6, True, 200_000.5, "200000"])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(DomainError):
            McConfig(seed=1, samples=samples)

    def test_numpy_integers_accepted(self):
        cfg = McConfig(seed=np.int64(4), samples=np.int64(100_000))
        assert sample_xab(TwoSidedExpParams(1.0, 0.5), cfg).size == 100_000


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
    @pytest.mark.parametrize("samples", [100_000, 131_073, 1_000_003])
    def test_bitwise_equal_to_per_chunk_formula(self, samples):
        params = TwoSidedExpParams(1.3, 0.4)
        parts = []
        for c, size in enumerate(mc._chunk_sizes(samples)):
            rng = mc._chunk_rng(17, c)
            e1 = rng.standard_exponential(size)
            e2 = rng.standard_exponential(size)
            parts.append(params.a * (e1 - 1.0) - params.b * (e2 - 1.0))
        got = sample_xab(params, McConfig(seed=17, samples=samples))
        assert np.array_equal(got, np.concatenate(parts))

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


    def test_pole_at_zero_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            estimate_abs_moment(np.r_[0.0, np.ones(200)], -0.5)

    def test_overflow_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            estimate_abs_moment(np.full(200, 1e10), 40.0)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            estimate_abs_moment(np.ones(99), 1.0)


def _close(a, b, rel):
    return abs(a - b) <= rel * abs(b)


class TestEstimateXabMoments:
    @pytest.mark.parametrize("samples", [100_000, 131_073, 1_000_003])
    def test_matches_the_array_route(self, samples):
        cfg = McConfig(seed=41, samples=samples)
        t = 0.3
        s = family_scale(t)
        cases = [
            (TwoSidedExpParams(1.0, 1.0), 2.0),
            (TwoSidedExpParams(1.0, 0.5), -0.5),
            (TwoSidedExpParams(1.0, 0.0), 4.0),
            (TwoSidedExpParams(1.0 / s, t / s), 3.0),
        ]
        streamed = estimate_xab_moments(cases, cfg)
        arrays = [sample_xab(params, cfg) for params, _ in cases[:3]]
        arrays.append(sample_xab(TwoSidedExpParams(1.0, t), cfg) / s)
        for est, samples_, (_, p) in zip(streamed, arrays, cases):
            ref = estimate_abs_moment(samples_, p)
            assert _close(est.estimate, ref.estimate, 1e-12)
            assert _close(est.standard_error, ref.standard_error, 1e-12)

    def test_reproducible(self):
        cfg = McConfig(seed=42, samples=150_000)
        cases = [(TwoSidedExpParams(1.0, 0.4), 1.5), (TwoSidedExpParams(0.5, 1.0), -0.3)]
        assert estimate_xab_moments(cases, cfg) == estimate_xab_moments(cases, cfg)

    def test_memory_stays_at_a_few_chunks(self):
        cfg = McConfig(seed=43, samples=2_000_000)
        cases = [(TwoSidedExpParams(1.0, 1.0), 2.0), (TwoSidedExpParams(1.0, 0.0), 4.0)]
        tracemalloc.start()
        try:
            estimate_xab_moments(cases, cfg)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sample_xab(cases[0][0], cfg)
            _, array_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the array route holds 2e6 doubles, 16 MB, which shows that the
        # trace sees numpy's buffers
        assert array_peak > 16_000_000
        assert peak < 8_000_000

    def test_overflow_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            estimate_xab_moments([(TwoSidedExpParams(1.0, 1.0), 1000.0)], McConfig(seed=44))

    def test_order_validated(self):
        with pytest.raises(DomainError):
            estimate_xab_moments([(TwoSidedExpParams(1.0, 1.0), -1.0)], McConfig(seed=45))


class TestEstimateDensityAtZero:
    def test_pair_equality_case(self):
        w = WeightVector.from_raw([1.0, -1.0], project=True)
        est = estimate_density_at_zero(w, McConfig(seed=31, samples=400_000))
        assert abs(est.estimate - 1.0 / math.sqrt(2.0)) < 3.0 * est.standard_error + 1e-4

    def test_pair_with_zero_weight(self):
        w = WeightVector.from_raw([1.0, 0.0, -1.0], project=True)
        est = estimate_density_at_zero(w, McConfig(seed=32, samples=400_000))
        assert abs(est.estimate - 1.0 / math.sqrt(2.0)) < 3.0 * est.standard_error + 1e-4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, bad):
        # the sums of non-finite weights never fall in the window, which read
        # as a density of 0 +- 0
        with pytest.raises(DomainError):
            estimate_density_at_zero([0.5, bad, -0.5], McConfig(seed=33))


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
