"""Central hyperplane sections of the regular simplex.

A central section of the regular n-simplex is encoded by a unit normal with
zero coordinate sum; its (n-1)-volume equals sqrt(n+1)/(n-1)! times the
density at zero of the correspondingly weighted sum of i.i.d. standard
exponentials.  By Curry and Schoenberg that density is a B-spline: with the
m nonzero weights as knots (zero weights contribute nothing),

    f(0) = N(0; w) / (w_max - w_min),

where N is the normalised B-spline of degree m - 2 on the sorted weights.
N(0) is evaluated by de Boor's recurrence, a chain of convex combinations
that stays stable for any spacing of the knots, repeated knots included.
The gradient of f(0) in the weights is a difference of two such B-splines
on the knots with one weight doubled, which drives the optimiser.  A direct
polytope-slicing oracle covers n in {2, 3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSectionError, DomainError, NumericalError
from .mc import _as_seed

__all__ = [
    "WeightVector",
    "density_at_zero",
    "section_volume",
    "MaxSectionResult",
    "maximize_section",
    "geometry_oracle_volume",
]

# weights at or below this magnitude are treated as exactly zero
ZERO_WEIGHT_TOL = 1e-12

# Webb's ceiling f(0) <= 2^(-1/2) holds for every unit zero-sum normal; the
# margin covers rounding in the recurrence and in the normalisation
_CEILING = (1.0 + 1e-12) / math.sqrt(2.0)

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class WeightVector:
    """A unit vector with zero coordinate sum, the outer normal of a section."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.array(self.a, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("weight vector needs at least two coordinates")
        if not np.all(np.isfinite(arr)):
            raise DomainError("weight vector must be finite")
        if abs(float(arr.sum())) > 1e-12:
            raise DomainError(f"coordinates must sum to zero, got sum {arr.sum():.3e}")
        if abs(float(np.linalg.norm(arr)) - 1.0) > 1e-12:
            raise DomainError(f"vector must have unit norm, got {np.linalg.norm(arr):.15f}")
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)

    @classmethod
    def from_raw(cls, values, project: bool = False) -> "WeightVector":
        """Build from raw coordinates; ``project`` recentres and renormalises
        instead of validating strictly."""
        arr = np.array(values, dtype=float)
        if project:
            if arr.ndim != 1 or arr.size < 2:
                raise DomainError("weight vector needs at least two coordinates")
            arr = arr - arr.mean()
            norm = float(np.linalg.norm(arr))
            if norm <= 1e-14:
                raise DomainError("cannot normalise a vector with no zero-sum component")
            arr = arr / norm
        return cls(arr)

    def __len__(self) -> int:
        return int(self.a.size)


def _support(a: np.ndarray) -> np.ndarray | None:
    """Indices of the nonzero weights in ascending order of weight, or None
    when they carry no density at zero (fewer than two, or of one sign)."""
    idx = np.flatnonzero(np.abs(a) > ZERO_WEIGHT_TOL)
    idx = idx[np.argsort(a[idx])]
    if idx.size < 2 or not a[idx[0]] < 0.0 < a[idx[-1]]:
        return None
    return idx


def _bspline_at_zero(knots: np.ndarray) -> np.ndarray:
    """N(0) for each row of ``knots``, shape (k, m): the normalised B-spline
    of degree m - 2 on the row's ascending knots, none of them zero.

    de Boor's recurrence at x = 0, with q_i = N_{i,p-1} / (t_{i+p} - t_i):

        N_{i,p} = -t_i q_i + t_{i+p+1} q_{i+1}.

    Where N_{i,p-1} is nonzero, 0 lies inside its support, so both terms are
    nonnegative and the step is a convex combination.  A span of zero only
    carries a zero spline; flooring it at the smallest normal float makes
    its q zero without a division by zero.
    """
    t = knots
    b = ((t[:, :-1] < 0.0) & (t[:, 1:] > 0.0)).astype(float)
    for p in range(1, t.shape[1] - 1):
        q = b / np.maximum(t[:, p:] - t[:, :-p], _TINY)
        b = -t[:, : -p - 1] * q[:, :-1] + t[:, p + 1 :] * q[:, 1:]
    return b[:, 0]


def _density(a: np.ndarray) -> float:
    """Density at zero for raw weights, N(0; w) / (w_max - w_min) over the
    nonzero ones; zero when they carry no density at zero."""
    idx = _support(a)
    if idx is None:
        return 0.0
    w = a[idx]
    return float(_bspline_at_zero(w[None, :])[0]) / (w[-1] - w[0])


def density_at_zero(weights: WeightVector) -> float:
    """Density at zero of the weighted exponential sum, N(0; w) / (w_max - w_min).

    Raises NumericalError unless the value is finite and within Webb's
    bound [0, 2^(-1/2)], which every unit zero-sum normal satisfies.
    """
    if not isinstance(weights, WeightVector):
        weights = WeightVector(np.asarray(weights, dtype=float))
    value = _density(weights.a)
    if not 0.0 <= value <= _CEILING:
        raise NumericalError(f"density at zero {value!r} lies outside Webb's bound [0, 2^(-1/2)]")
    return value


def section_volume(weights: WeightVector, n: int) -> float:
    """vol_{n-1} of the central section with the given unit normal."""
    if n < 2:
        raise DomainError(f"sections need dimension n >= 2, got {n}")
    if len(weights) != n + 1:
        raise DomainError(f"normal of a {n}-simplex section needs {n + 1} coordinates")
    return math.sqrt(n + 1.0) / math.factorial(n - 1) * density_at_zero(weights)


# ---------------------------------------------------------------------------
# direct geometry oracle for low dimensions
# ---------------------------------------------------------------------------


def _section_polytope_vertices(a: np.ndarray) -> np.ndarray:
    """Vertices of simplex ∩ normal-hyperplane: simplex vertices lying on the
    hyperplane plus transversal edge intersections."""
    dim = a.size
    points = []
    for j in range(dim):
        if abs(a[j]) <= ZERO_WEIGHT_TOL:
            e = np.zeros(dim)
            e[j] = 1.0
            points.append(e)
    for j in range(dim):
        for k in range(j + 1, dim):
            if a[j] * a[k] < 0.0:
                lam = a[k] / (a[k] - a[j])
                pt = np.zeros(dim)
                pt[j] = lam
                pt[k] = 1.0 - lam
                points.append(pt)
    unique: list[np.ndarray] = []
    for pt in points:
        if all(np.linalg.norm(pt - u) > 1e-9 for u in unique):
            unique.append(pt)
    return np.array(unique)


def geometry_oracle_volume(weights: WeightVector, n: int) -> float:
    """Section volume by direct polytope slicing (n in {2, 3} only).

    Enumerates the vertices of the intersection polytope inside the affine
    hull of the simplex, then measures segment length (n = 2) or polygon
    area via the shoelace formula (n = 3).
    """
    if n not in (2, 3):
        raise DomainError(f"geometry oracle covers n in {{2, 3}}, got {n}")
    if len(weights) != n + 1:
        raise DomainError(f"normal of a {n}-simplex section needs {n + 1} coordinates")
    verts = _section_polytope_vertices(weights.a)
    if len(verts) < n:
        raise DegenerateSectionError(f"section degenerates to {len(verts)} vertex/vertices")
    if n == 2:
        if len(verts) != 2:
            raise DegenerateSectionError(f"segment section with {len(verts)} vertices")
        return float(np.linalg.norm(verts[0] - verts[1]))

    # orthonormal basis of the 2-plane {sum x = 0, <a, x> = 0} in R^4
    ones = np.ones(4) / 2.0
    u = weights.a - np.dot(weights.a, ones) * ones
    u = u / np.linalg.norm(u)
    basis = []
    for seed in np.eye(4):
        v = seed - np.dot(seed, ones) * ones - np.dot(seed, u) * u
        for b in basis:
            v -= np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            basis.append(v / norm)
        if len(basis) == 2:
            break
    centre = verts.mean(axis=0)
    coords = np.column_stack([(verts - centre) @ basis[0], (verts - centre) @ basis[1]])
    order = np.argsort(np.arctan2(coords[:, 1], coords[:, 0]))
    ring = coords[order]
    x, y = ring[:, 0], ring[:, 1]
    area = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    if area <= 1e-18:
        raise DegenerateSectionError("section polygon has zero area")
    return area


# ---------------------------------------------------------------------------
# optimisation over unit zero-sum normals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaxSectionResult:
    a_star: WeightVector
    value: float
    max_evaluated: float
    evaluations: int


def _density_gradient(a: np.ndarray) -> np.ndarray:
    """Gradient of the density at zero in the raw weights.

    d f(0)/d w_j = -N_j'(0) / ((m-1)(w_max - w_min)), where N_j is the
    B-spline on the knots with w_j doubled; N_j' is (m-1) times the
    difference of the degree m-2 B-splines on its first and on its last m
    knots, each divided by its span (a zero span carries a zero spline).
    All 2m rows share one recurrence.  Weights treated as zero get a zero
    derivative.
    """
    grad = np.zeros_like(a)
    idx = _support(a)
    if idx is None:
        return grad
    w = a[idx]
    m = w.size
    pos = np.arange(m + 1)
    doubled = w[pos - (pos[None, :] > np.arange(m)[:, None])]  # row j repeats w_j
    rows = np.vstack([doubled[:, :-1], doubled[:, 1:]])
    q = _bspline_at_zero(rows) / np.maximum(rows[:, -1] - rows[:, 0], _TINY)
    grad[idx] = (q[m:] - q[:m]) / (w[-1] - w[0])
    return grad


def _project_tangent(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    g = g - g.mean()
    return g - np.dot(g, a) * a


def _renormalise(v: np.ndarray) -> np.ndarray:
    v = v - v.mean()
    return v / np.linalg.norm(v)


def maximize_section(n: int, restarts: int = 20, seed: int = 0) -> MaxSectionResult:
    """Maximise the density at zero over unit zero-sum normals.

    Projected gradient ascent with the analytic gradient, backtracking steps
    and random restarts; restart streams are derived from (seed, restart
    index) so the result does not depend on execution order.  The expected
    optimum is 2^(-1/2), attained on normals supported on exactly two
    coordinates.
    """
    if n < 2:
        raise DomainError(f"need dimension n >= 2, got {n}")
    if restarts < 20:
        raise DomainError(f"need at least 20 restarts, got {restarts}")
    seed = _as_seed(seed)

    dim = n + 1
    tracked = {"max": -math.inf, "count": 0}

    def candidate_value(a: np.ndarray) -> float:
        val = _density(a)
        tracked["count"] += 1
        if val > tracked["max"]:
            tracked["max"] = val
        return val

    def ascend(a: np.ndarray) -> tuple[np.ndarray, float]:
        val = candidate_value(a)
        eta = 0.5
        for _ in range(400):
            grad = _project_tangent(_density_gradient(a), a)
            if float(np.linalg.norm(grad)) < 1e-10:
                break
            # the steps shrink as the ascent closes in on the kinked optimum,
            # so each search starts just above the last accepted step
            eta = min(0.5, 4.0 * eta)
            for _ in range(20):
                trial = _renormalise(a + eta * grad)
                trial_val = candidate_value(trial)
                if trial_val > val + 1e-13:
                    a, val = trial, trial_val
                    break
                eta *= 0.5
            else:
                break
        return a, val

    best_a, best_val = None, -math.inf
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        start = rng.standard_normal(dim)
        start -= start.mean()
        norm = float(np.linalg.norm(start))
        if norm <= 1e-12:
            start = np.zeros(dim)
            start[0], start[1] = 1.0, -1.0
            norm = math.sqrt(2.0)
        a, val = ascend(start / norm)
        if val > best_val:
            best_a, best_val = a, val

    return MaxSectionResult(
        a_star=WeightVector.from_raw(best_a, project=True),
        value=best_val,
        max_evaluated=tracked["max"],
        evaluations=tracked["count"],
    )
