import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lcmoments import mc
from lcmoments.errors import DomainError, NumericalError
from lcmoments.expfamily import TwoSidedExpParams, family_scale, moment_et
from lcmoments.mc import McConfig, McEstimate, estimate_density_at_zero, estimate_xab_moments
from lcmoments.simplex import WeightVector
from oracles import array_abs_moment, serial_sample_xab, serial_xab_moments


def one_shot_density_at_zero(weights, cfg):
    """Serial oracle of estimate_density_at_zero: each chunk drawn as one array."""
    w = np.asarray(weights.a if hasattr(weights, "a") else weights, dtype=float)
    half = mc._DENSITY_WINDOW
    count = 0
    for c, size in enumerate(mc._chunk_sizes(cfg.samples)):
        sums = mc._chunk_rng(cfg.seed, c).standard_exponential((size, w.size)) @ w
        count += int(np.count_nonzero(np.abs(sums) <= half))
    frac = count / cfg.samples
    se = math.sqrt(frac * (1.0 - frac) / cfg.samples) / (2.0 * half)
    return McEstimate(frac / (2.0 * half), se)


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
        cases = [(TwoSidedExpParams(1.0, 0.5), 1.0)]
        cfg = McConfig(seed=np.int64(4), samples=np.int64(100_000))
        assert estimate_xab_moments(cases, cfg) == estimate_xab_moments(cases, McConfig(seed=4, samples=100_000))


class TestDeterminism:
    def test_identical_configs_bitwise(self):
        cases = [(TwoSidedExpParams(1.0, 0.4), 2.0)]
        first = estimate_xab_moments(cases, McConfig(seed=123, samples=150_000))
        assert estimate_xab_moments(cases, McConfig(seed=123, samples=150_000)) == first

    def test_density_estimate_reproducible(self):
        w = WeightVector.from_raw([1.0, -1.0], project=True)
        a = estimate_density_at_zero(w, McConfig(seed=5, samples=120_000))
        b = estimate_density_at_zero(w, McConfig(seed=5, samples=120_000))
        assert a == b


class TestSampleXab:
    @pytest.mark.parametrize("samples", [100_000, 131_073, 1_000_003])
    def test_bitwise_equal_to_per_chunk_formula(self, samples):
        # each chunk's samples as estimate_xab_moments forms them in its buffers,
        # with the b (E'-1) term a quarter chunk at a time
        params = TwoSidedExpParams(1.3, 0.4)
        e1, e2, out = np.empty((3, mc._CHUNK))
        scratch = np.empty(mc._CHUNK // 4)
        for c, size in enumerate(mc._chunk_sizes(samples)):
            d1, d2 = mc._draw_chunk(17, c, size, e1, e2)
            mc._xab_into(params, d1, d2, out[:size], scratch)
            rng = mc._chunk_rng(17, c)
            plain_e1, plain_e2 = rng.standard_exponential(size), rng.standard_exponential(size)
            assert np.array_equal(out[:size], params.a * (plain_e1 - 1.0) - params.b * (plain_e2 - 1.0))

    def test_mean_is_centred(self):
        samples = serial_sample_xab(TwoSidedExpParams(1.0, 1.0), McConfig(seed=11, samples=400_000))
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean()) < 3.0 * se

    def test_mean_abs_matches_quadrature(self):
        [est] = estimate_xab_moments([(TwoSidedExpParams(1.0, 0.5), 1.0)], McConfig(seed=12, samples=400_000))
        assert abs(est.estimate - moment_et(1.0, 0.5)) < 3.0 * est.standard_error

    def test_variance_matches_closed_form(self):
        t = 0.7
        [est] = estimate_xab_moments([(TwoSidedExpParams(1.0, t), 2.0)], McConfig(seed=13, samples=400_000))
        assert abs(est.estimate - (1.0 + t * t)) < 3.0 * est.standard_error


class TestEstimateAbsMoment:
    def test_second_moment_of_symmetric_member(self):
        [est] = estimate_xab_moments([(TwoSidedExpParams(1.0, 1.0), 2.0)], McConfig(seed=21, samples=400_000))
        assert abs(est.estimate - 2.0) < 3.0 * est.standard_error

    def test_normalized_third_moment_near_recorded_value(self):
        s = family_scale(0.2)
        [est] = estimate_xab_moments([(TwoSidedExpParams(1.0 / s, 0.2 / s), 3.0)], McConfig(seed=22, samples=600_000))
        assert abs(est.estimate - 5.9746) < 3.0 * est.standard_error

    def test_one_sided_fourth_moment(self):
        [est] = estimate_xab_moments([(TwoSidedExpParams(1.0, 0.0), 4.0)], McConfig(seed=23, samples=600_000))
        assert abs(est.estimate - 9.0) < 3.0 * est.standard_error

    def test_negative_order_estimator(self):
        [est] = estimate_xab_moments([(TwoSidedExpParams(1.0, 1.0), -0.5)], McConfig(seed=24, samples=400_000))
        assert abs(est.estimate - moment_et(-0.5, 1.0)) < 4.0 * est.standard_error

    def test_jackknife_matches_classic_se_for_the_mean(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(100_000) + 3.0
        est = array_abs_moment(data, 1.0)
        classic = data.std(ddof=1) / math.sqrt(data.size)
        assert est.standard_error == pytest.approx(classic, rel=0.05)

    def test_pole_at_zero_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            array_abs_moment(np.r_[0.0, np.ones(200)], -0.5)

    def test_overflow_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            array_abs_moment(np.full(200, 1e10), 40.0)

    def test_too_few_samples(self):
        # McConfig's floor is the estimators' guard: every jackknife block gets samples
        with pytest.raises(DomainError):
            estimate_xab_moments([(TwoSidedExpParams(1.0, 1.0), 1.0)], McConfig(seed=25, samples=99_999))


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
        arrays = [serial_sample_xab(params, cfg) for params, _ in cases[:3]]
        arrays.append(serial_sample_xab(TwoSidedExpParams(1.0, t), cfg) / s)
        for est, samples_, (_, p) in zip(streamed, arrays, cases):
            ref = array_abs_moment(samples_, p)
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
            serial_sample_xab(cases[0][0], cfg)
            _, array_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the serial sampler returns 2e6 doubles, 16 MB, which shows that the
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
        [est] = estimate_xab_moments([(TwoSidedExpParams(1.0, 0.5), 2.0)], McConfig(seed=seed, samples=100_000))
        hits += abs(est.estimate - target) <= 3.0 * est.standard_error
    assert hits >= 27


# p < 0, b = 0 and a != 1
_POOL_CASES = [
    (TwoSidedExpParams(1.3, 0.4), -0.5),
    (TwoSidedExpParams(2.0, 0.0), 3.0),
    (TwoSidedExpParams(0.7, 1.1), 1.0),
]
_POOL_WEIGHTS = [
    WeightVector.from_raw([2.0, -1.0, -1.0], project=True),
    WeightVector.from_raw([0.3, -1.2, 0.5, 0.9, -0.1, -0.4], project=True),
]


class TestChunkPool:
    # 1, 2, 3 and 8 chunks: fewer chunks than workers, a one-sample last
    # chunk, an odd chunk count, and a short last chunk
    @pytest.mark.parametrize("samples", [100_000, 131_073, 393_216, 1_000_003])
    def test_bit_identical_to_the_serial_oracles(self, samples):
        cfg = McConfig(seed=61, samples=samples)
        assert estimate_xab_moments(_POOL_CASES, cfg) == serial_xab_moments(_POOL_CASES, cfg)
        for w in _POOL_WEIGHTS:
            assert estimate_density_at_zero(w, cfg) == one_shot_density_at_zero(w, cfg)

    def test_bit_identical_when_blocks_span_several_chunks(self, monkeypatch):
        # at 1e7 samples a jackknife block spans at most two chunks, whose two
        # sums add the same in either order; 4096-sample chunks give each block
        # three or four, so only a merge in chunk order matches the oracle
        monkeypatch.setattr(mc, "_CHUNK", 1 << 12)
        cfg = McConfig(seed=67, samples=1_000_003)
        assert estimate_xab_moments(_POOL_CASES, cfg) == serial_xab_moments(_POOL_CASES, cfg)
        assert estimate_density_at_zero(_POOL_WEIGHTS[1], cfg) == one_shot_density_at_zero(_POOL_WEIGHTS[1], cfg)

    def test_repeated_calls_agree(self):
        cfg = McConfig(seed=62, samples=393_216)
        moments = estimate_xab_moments(_POOL_CASES, cfg)
        density = estimate_density_at_zero(_POOL_WEIGHTS[1], cfg)
        for _ in range(20):
            assert estimate_xab_moments(_POOL_CASES, cfg) == moments
            assert estimate_density_at_zero(_POOL_WEIGHTS[1], cfg) == density

    def test_every_chunk_runs_in_the_callers_errstate_on_at_most_two_other_threads(self, monkeypatch):
        threads, errstates = {}, {}
        chunk_rng = mc._chunk_rng

        def recording(seed, index):
            threads[index] = threading.get_ident()
            errstates[index] = np.geterr()["over"]
            return chunk_rng(seed, index)

        monkeypatch.setattr(mc, "_chunk_rng", recording)
        with np.errstate(over="raise"):
            estimate_xab_moments(_POOL_CASES, McConfig(seed=63, samples=1_000_003))
        assert sorted(threads) == list(range(8))
        workers = set(threads.values())
        assert len(workers) <= 2 and threading.get_ident() not in workers
        assert set(errstates.values()) == {"raise"}

    def test_concurrent_callers_under_fast_thread_switching(self):
        # four callers and their pools: eight workers at once, switching every microsecond
        cfg = McConfig(seed=66, samples=393_216)
        expected = serial_xab_moments(_POOL_CASES, cfg)
        results = []
        callers = [
            threading.Thread(target=lambda: results.append(estimate_xab_moments(_POOL_CASES, cfg))) for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * 4

    @pytest.mark.parametrize(
        "call",
        [
            lambda cfg: estimate_xab_moments(_POOL_CASES, cfg),
            lambda cfg: estimate_density_at_zero(_POOL_WEIGHTS[0], cfg),
        ],
        ids=["estimate_xab_moments", "estimate_density_at_zero"],
    )
    @pytest.mark.parametrize("failing", [{1}, {1, 2}])
    def test_chunk_error_propagates_and_no_thread_outlives_the_call(self, monkeypatch, call, failing):
        # chunks 1 and 2 may run on the pool's two workers at once; a serial
        # loop would stop at chunk 1, so its error is the one raised
        class ChunkError(RuntimeError):
            pass

        chunk_rng = mc._chunk_rng

        def failing_rng(seed, index):
            if index in failing:
                raise ChunkError(index)
            return chunk_rng(seed, index)

        monkeypatch.setattr(mc, "_chunk_rng", failing_rng)
        before = threading.active_count()
        with pytest.raises(ChunkError) as info:
            call(McConfig(seed=64, samples=393_216))
        assert info.value.args == (1,)
        assert threading.active_count() == before

    @pytest.mark.parametrize("first, second", [(2, 3), (2, 1)])
    def test_lowest_failing_chunk_wins_whichever_fails_first(self, monkeypatch, first, second):
        # chunk `first` fails only once `second` has started, and `second`
        # just after `first`: both errors are recorded, in that order
        class ChunkError(RuntimeError):
            pass

        started, failed = threading.Event(), threading.Event()
        chunk_rng = mc._chunk_rng

        def failing_rng(seed, index):
            if index == first:
                started.wait(60)
                failed.set()
                raise ChunkError(index)
            if index == second:
                started.set()
                failed.wait(60)
                time.sleep(0.05)
                raise ChunkError(index)
            return chunk_rng(seed, index)

        monkeypatch.setattr(mc, "_chunk_rng", failing_rng)
        with pytest.raises(ChunkError) as info:
            estimate_xab_moments(_POOL_CASES, McConfig(seed=68, samples=4 * mc._CHUNK))
        assert started.is_set() and failed.is_set()
        assert info.value.args == (min(first, second),)

    def test_density_memory_does_not_grow_with_the_dimension(self):
        # one chunk of n = 200 drawn at once is 131072 x 201 doubles, 211 MB
        w = WeightVector.from_raw(np.r_[1.0, -1.0, np.zeros(199)], project=True)
        cfg = McConfig(seed=65, samples=262_144)
        tracemalloc.start()
        try:
            estimate_density_at_zero(w, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.a.size == 201
        assert peak < 8_000_000
