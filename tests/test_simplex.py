import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from lcmoments import simplex
from lcmoments.errors import DomainError, NumericalError
from lcmoments.simplex import (
    WeightVector,
    density_at_zero,
    geometry_oracle_volume,
    maximize_section,
    section_volume,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _mp_density_at_zero(a) -> float:
    """Partial-fraction sum f(0) = sum_{w_j > 0} w_j^(m-2) / prod_{k != j} (w_j - w_k)
    over distinct nonzero weights, to 40 significant digits: the working
    precision adds the digits that cancel between the largest term and the sum."""

    def partial_fractions(dps):
        with mpmath.workdps(dps):
            w = [mpmath.mpf(float(x)) for x in a if abs(x) > 1e-12]
            terms = [
                wj ** (len(w) - 2) / mpmath.fprod(wj - wk for k, wk in enumerate(w) if k != j)
                for j, wj in enumerate(w)
                if wj > 0
            ]
            return mpmath.fsum(terms), max(abs(t) for t in terms)

    total, largest = partial_fractions(40)
    lost = max(0, int(mpmath.ceil(mpmath.log10(largest / abs(total)))))
    total, _ = partial_fractions(50 + lost)
    return float(total)


def _scipy_density_at_zero(a) -> float:
    """N(0) / (w_max - w_min) with scipy's B-spline on the sorted nonzero weights."""
    knots = np.sort(a[np.abs(a) > 1e-12])
    return float(BSpline.basis_element(knots, extrapolate=False)(0.0)) / (knots[-1] - knots[0])


# raw coordinates for unit zero-sum normals up to n = 200, repeated values included
_raw_weights = st.lists(
    st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])),
    min_size=2,
    max_size=201,
)


def _unit_normal(raw) -> WeightVector:
    raw = np.asarray(raw)
    assume(float(np.ptp(raw)) > 1e-3)
    return WeightVector.from_raw(raw, project=True)


def _pair_normal(n, j, k, sign=1.0):
    a = np.zeros(n + 1)
    a[j], a[k] = sign, -sign
    return WeightVector(a / math.sqrt(2.0))


def _sequential_maximize_section(n, restarts, seed):
    """The restarts ascended one after another, each as a Python loop over
    one-row kernel calls: the lockstep ascent's oracle.  Returns the
    optimiser's result fields and every restart's final normal and value."""
    tracked = {"max": -math.inf, "count": 0}

    def candidate_value(a):
        val = simplex._density(a)
        tracked["count"] += 1
        tracked["max"] = max(tracked["max"], val)
        return val

    def project_tangent(g, a):
        g = g - g.mean()
        return g - np.dot(g, a) * a

    def renormalise(v):
        v = v - v.mean()
        return v / np.linalg.norm(v)

    def ascend(a):
        val = candidate_value(a)
        eta = 0.5
        for _ in range(400):
            grad = project_tangent(simplex._density_gradient(a), a)
            if float(np.linalg.norm(grad)) < 1e-10:
                break
            eta = min(0.5, 4.0 * eta)
            for _ in range(20):
                trial = renormalise(a + eta * grad)
                trial_val = candidate_value(trial)
                if trial_val > val + 1e-13:
                    a, val = trial, trial_val
                    break
                eta *= 0.5
            else:
                break
        return a, val

    finals = []
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        start = rng.standard_normal(n + 1)
        start -= start.mean()
        norm = float(np.linalg.norm(start))
        if norm <= 1e-12:
            start = np.zeros(n + 1)
            start[0], start[1] = 1.0, -1.0
            norm = math.sqrt(2.0)
        finals.append(ascend(start / norm))
    best_a, best_val = max(finals, key=lambda final: final[1])  # the first of equal maxima
    return best_a, best_val, tracked["max"], tracked["count"], finals


# rows of raw weights for the batched kernel: general, with zero weights,
# on two weights, one-signed, with fewer than two nonzero weights, repeated
_MIXED_SUPPORT_ROWS = np.array(
    [
        [0.61, -0.22, 0.35, -0.48, 0.09, -0.35],
        [0.5, -0.3, 0.0, 0.4, 0.0, -0.6],
        [0.0, 0.0, 0.8, 0.0, -0.6, 0.0],
        [1.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.5, 0.3, 0.0, 0.2, 0.1, 0.4],
        [-0.2, -0.3, 0.0, 0.0, -0.5, -0.1],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, -0.5, -0.5, 0.0, 0.0],
        [0.3, 0.3, 0.3, -0.45, -0.45, 0.0],
        [0.4, -0.1, 0.3, -0.2, 1e-13, -0.4],
    ]
)


class TestWeightVector:
    def test_strict_validation(self):
        with pytest.raises(DomainError):
            WeightVector(np.array([1.0, -1.0]))  # not unit norm
        with pytest.raises(DomainError):
            WeightVector(np.array([1.0, 0.0]) )  # nonzero sum
        with pytest.raises(DomainError):
            WeightVector(np.array([1.0]))

    def test_projection(self):
        w = WeightVector.from_raw([3.0, 1.0, -1.0], project=True)
        assert abs(w.a.sum()) < 1e-14
        assert np.linalg.norm(w.a) == pytest.approx(1.0, abs=1e-14)

    def test_projection_degenerate(self):
        with pytest.raises(DomainError):
            WeightVector.from_raw([1.0, 1.0, 1.0], project=True)

    def test_array_read_only(self):
        w = _pair_normal(2, 0, 1)
        with pytest.raises(ValueError):
            w.a[0] = 2.0


class TestDensityAtZero:
    def test_two_point_equality_case(self):
        assert density_at_zero(_pair_normal(1, 0, 1)) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-9
        )

    def test_equality_case_with_zero_weight(self):
        assert density_at_zero(_pair_normal(2, 0, 2)) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-9
        )

    def test_all_transpositions_attain_bound(self):
        for j, k in itertools.combinations(range(6), 2):
            value = density_at_zero(_pair_normal(5, j, k))
            assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_permutation_and_negation_invariance(self):
        rng = np.random.default_rng(5)
        base = WeightVector.from_raw(rng.standard_normal(5), project=True)
        value = density_at_zero(base)
        permuted = WeightVector(base.a[rng.permutation(5)])
        negated = WeightVector(-base.a)
        assert density_at_zero(permuted) == pytest.approx(value, abs=1e-10)
        assert density_at_zero(negated) == pytest.approx(value, abs=1e-10)

    def test_repeated_weights_match_scipy_bspline(self):
        many = [1.0] * 9 + [-2.0] * 4 + [0.5] * 3
        for raw in ([2.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [3.0, 1.0, -2.0, -2.0], many):
            w = WeightVector.from_raw(raw, project=True)
            assert density_at_zero(w) == pytest.approx(_scipy_density_at_zero(w.a), abs=1e-14)

    def test_matches_mpmath_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            w = WeightVector.from_raw(rng.standard_normal(int(rng.integers(2, 8))), project=True)
            assert density_at_zero(w) == pytest.approx(_mp_density_at_zero(w.a), abs=1e-14)

    @pytest.mark.parametrize("n", [50, 100, 150, 200])
    def test_matches_mpmath_in_high_dimension(self, n):
        # the inversion/residue cross-check raised NumericalError here
        rng = np.random.default_rng(n)
        for _ in range(3):
            w = WeightVector.from_raw(rng.standard_normal(n + 1), project=True)
            assert density_at_zero(w) == pytest.approx(_mp_density_at_zero(w.a), abs=1e-14)

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            density_at_zero(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3, 1.2])
    def test_guard_rejects_values_outside_webb_bound(self, monkeypatch, bad):
        monkeypatch.setattr(simplex, "_bspline_at_zero", lambda knots: np.full(len(knots), bad))
        with pytest.raises(NumericalError):
            density_at_zero(_pair_normal(1, 0, 1))

    @settings(max_examples=60, deadline=None)
    @given(raw=_raw_weights)
    def test_webb_ceiling(self, raw):
        value = density_at_zero(_unit_normal(raw))
        assert 0.0 < value <= 1.0 / math.sqrt(2.0) + 1e-15

    @settings(max_examples=60, deadline=None)
    @given(raw=_raw_weights, data=st.data())
    def test_permutation_and_negation_invariance_property(self, raw, data):
        w = _unit_normal(raw)
        value = density_at_zero(w)
        order = data.draw(st.permutations(range(len(w))))
        assert density_at_zero(WeightVector(w.a[list(order)])) == value
        assert density_at_zero(WeightVector(-w.a)) == pytest.approx(value, abs=1e-14)


class TestSectionVolume:
    def test_triangle_section(self):
        w = _pair_normal(2, 0, 1)
        assert section_volume(w, 2) == pytest.approx(math.sqrt(1.5), rel=1e-9)

    def test_tetrahedron_edge_section(self):
        w = _pair_normal(3, 0, 1)
        assert section_volume(w, 3) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)

    def test_scaling_factor_exact(self):
        for n in (2, 3, 4):
            w = _pair_normal(n, 0, 1)
            ratio = section_volume(w, n) / density_at_zero(w)
            assert ratio == pytest.approx(math.sqrt(n + 1.0) / math.factorial(n - 1), rel=1e-14)

    def test_dimension_guards(self):
        with pytest.raises(DomainError):
            section_volume(_pair_normal(1, 0, 1), 1)
        with pytest.raises(DomainError):
            section_volume(_pair_normal(2, 0, 1), 3)


class TestGeometryOracle:
    def test_triangle_matches_formula(self):
        w = _pair_normal(2, 0, 1)
        assert geometry_oracle_volume(w, 2) == pytest.approx(section_volume(w, 2), abs=1e-10)

    def test_triangle_generic_normal(self):
        w = WeightVector.from_raw([2.0, -0.7, -1.3], project=True)
        assert geometry_oracle_volume(w, 2) == pytest.approx(section_volume(w, 2), abs=1e-10)

    def test_tetrahedron_matches_formula(self):
        for raw in ([1.0, -1.0, 0.0, 0.0], [2.0, -1.0, -1.0, 0.3], [1.0, 0.7, -0.4, -1.3]):
            w = WeightVector.from_raw(raw, project=True)
            assert geometry_oracle_volume(w, 3) == pytest.approx(section_volume(w, 3), abs=1e-8)

    def test_barycentre_on_every_triangle_section(self):
        rng = np.random.default_rng(3)
        centre = np.ones(3) / 3.0
        for _ in range(20):
            w = WeightVector.from_raw(rng.standard_normal(3), project=True)
            from lcmoments.simplex import _section_polytope_vertices

            ends = _section_polytope_vertices(w.a)
            assert len(ends) == 2
            gap = np.linalg.norm(ends[0] - centre) + np.linalg.norm(centre - ends[1])
            assert gap == pytest.approx(np.linalg.norm(ends[0] - ends[1]), rel=1e-9)

    def test_unsupported_dimension(self):
        with pytest.raises(DomainError):
            geometry_oracle_volume(_pair_normal(4, 0, 1), 4)


class TestMaximizeSection:
    def test_no_overshoot_in_dimension_eight(self):
        # the residue route returned 16.0 here
        result = maximize_section(8, 20, seed=3)
        assert result.max_evaluated <= INV_SQRT2 + 1e-9
        assert result.value <= INV_SQRT2 + 1e-9
        assert result.value == pytest.approx(INV_SQRT2, abs=1e-6)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        normals = [WeightVector.from_raw(rng.standard_normal(m), project=True).a for m in range(2, 21)]
        for a in [*normals, *_MIXED_SUPPORT_ROWS]:
            f = simplex._density
            central = np.array([(f(a + e) - f(a - e)) / (2.0 * h) for e in h * np.eye(a.size)])
            # a zero weight gets a zero derivative; a difference step moves it
            # into the support, where the density jumps or kinks
            support = np.abs(a) > simplex.ZERO_WEIGHT_TOL
            assert np.allclose(simplex._density_gradient(a)[support], central[support], rtol=0.0, atol=1e-8)
            assert not simplex._density_gradient(a)[~support].any()

    def test_mixed_support_batch_matches_one_row_calls(self):
        rows = _MIXED_SUPPORT_ROWS
        densities = simplex._densities(rows)
        gradients = simplex._density_gradients(rows)
        for i, a in enumerate(rows):
            assert densities[i] == simplex._density(a)
            assert np.array_equal(gradients[i], simplex._density_gradient(a))
        # one-signed rows and rows with fewer than two nonzero weights
        assert not densities[4:8].any()
        assert not gradients[4:8].any()
        assert densities[[0, 1, 2, 3, 8, 9, 10]].all()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_lockstep_matches_sequential_oracle(self, n):
        for seed in range(6):
            result = maximize_section(n, 20, seed=seed)
            best_a, best_val, max_evaluated, evaluations, _ = _sequential_maximize_section(n, 20, seed)
            assert result.evaluations == evaluations
            assert abs(result.value - best_val) <= 1e-15
            assert abs(result.max_evaluated - max_evaluated) <= 1e-15
            # equal-valued restarts may tie, so a_star is any transposition
            # normal of the oracle's density
            ordered = np.sort(np.abs(result.a_star.a))[::-1]
            assert np.allclose(ordered[:2], INV_SQRT2, rtol=0.0, atol=1e-4)
            assert ordered[2:].max(initial=0.0) < 1e-4
            assert abs(density_at_zero(result.a_star) - simplex._density(best_a)) <= 1e-12

    def test_each_row_ascends_as_if_alone(self):
        starts = np.array([simplex._restart_start(6, 4, r) for r in range(20)])
        finals, vals, evaluations, max_evaluated = simplex._ascend(starts)
        alone = [simplex._ascend(start[None, :]) for start in starts]
        for i, (a, val, _, _) in enumerate(alone):
            assert np.array_equal(finals[i], a[0])
            assert vals[i] == val[0]
        assert evaluations == sum(run[2] for run in alone)
        assert max_evaluated == max(run[3] for run in alone)
        _, _, _, _, oracle_finals = _sequential_maximize_section(5, 20, 4)
        for i, (a, val) in enumerate(oracle_finals):
            assert np.array_equal(finals[i], a)
            assert vals[i] == val

    def test_value_reproduced_at_optimum(self):
        # the inversion route returned half the value at this optimum
        result = maximize_section(4, 20, seed=3)
        assert density_at_zero(result.a_star) == pytest.approx(result.value, abs=1e-9)

    def test_triangle_optimum(self):
        result = maximize_section(2, restarts=20, seed=0)
        assert result.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
        ordered = np.sort(np.abs(result.a_star.a))[::-1]
        assert abs(ordered[0] - 1.0 / math.sqrt(2.0)) < 1e-4
        assert abs(ordered[1] - 1.0 / math.sqrt(2.0)) < 1e-4
        assert ordered[2:].max(initial=0.0) < 1e-4

    def test_no_candidate_above_bound(self):
        result = maximize_section(2, restarts=20, seed=1)
        assert result.max_evaluated <= 1.0 / math.sqrt(2.0) + 1e-9

    def test_restart_floor_enforced(self):
        with pytest.raises(DomainError):
            maximize_section(2, restarts=5, seed=0)

    @pytest.mark.parametrize("seed", [-3, True, 1.5, "9"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(DomainError):
            maximize_section(2, restarts=20, seed=seed)

    @pytest.mark.parametrize("n", [1, True, 4.5, 4.0, "4", None])
    def test_dimension_must_be_an_integer_of_at_least_two(self, n):
        with pytest.raises(DomainError):
            maximize_section(n, restarts=20, seed=0)

    @pytest.mark.parametrize("restarts", [19, True, 20.5, 20.0, "20", None])
    def test_restarts_must_be_an_integer_of_at_least_twenty(self, restarts, monkeypatch):
        # checked before any row of the (restarts, n + 1) array is seeded
        def fail(*args):
            raise AssertionError("a restart was seeded")

        monkeypatch.setattr(simplex, "_restart_start", fail)
        with pytest.raises(DomainError):
            maximize_section(2, restarts=restarts, seed=0)

    def test_deterministic_given_seed(self):
        first = maximize_section(2, restarts=20, seed=9)
        second = maximize_section(2, restarts=20, seed=9)
        assert np.array_equal(first.a_star.a, second.a_star.a)
        assert first.value == second.value
