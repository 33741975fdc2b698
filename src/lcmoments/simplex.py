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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSectionError, DomainError, NumericalError
from .specfun import _as_seed, _is_integer

# weights at or below this magnitude are treated as exactly zero
ZERO_WEIGHT_TOL = 1e-12

# Webb's ceiling f(0) <= 2^(-1/2) holds for every unit zero-sum normal; the
# margin covers rounding in the recurrence and in the normalisation
_CEILING = (1.0 + 1e-12) / math.sqrt(2.0)

_TINY = np.finfo(float).tiny


def _weight_array(values) -> np.ndarray:
    """``values`` as a new float array, checked to be one-dimensional with at
    least two coordinates, all finite."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError("weight vector needs at least two coordinates")
    if not np.all(np.isfinite(arr)):
        raise DomainError("weight vector must be finite")
    return arr


@dataclass(frozen=True)
class WeightVector:
    """A unit vector with zero coordinate sum, the outer normal of a section."""

    a: np.ndarray

    def __post_init__(self):
        arr = _weight_array(self.a)
        # a Python float sum overflows to inf without numpy's warning, and hypot scales its squares
        values = arr.tolist()
        total, norm = sum(values), math.hypot(*values)
        if abs(total) > 1e-12:
            raise DomainError(f"coordinates must sum to zero, got sum {total:.3e}")
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"vector must have unit norm, got {norm:.15g}")
        arr.flags.writeable = False
        object.__setattr__(self, "a", arr)

    @classmethod
    def from_raw(cls, values, project: bool = False) -> "WeightVector":
        """Build from raw coordinates; ``project`` recentres and renormalises
        instead of validating strictly."""
        if not project:
            return cls(values)
        arr = _weight_array(values)
        # an exact power-of-two scale: 1e300 centres and 1e-20 clears the cutoff
        arr = np.ldexp(arr, -np.frexp(np.max(np.abs(arr)))[1])
        arr = arr - arr.mean()
        norm = float(np.linalg.norm(arr))
        if abs(float(arr.sum())) > 1e-12 * norm:
            # the mean's rounding error, the same in every coordinate, is not small against
            # the zero-sum part: centring once more removes it
            arr = arr - arr.mean()
            norm = float(np.linalg.norm(arr))
        if norm <= 1e-14:
            raise DomainError("cannot normalise a vector with no zero-sum component")
        return cls(arr / norm)

    def __len__(self) -> int:
        return int(self.a.size)


def _sorted_supports(A: np.ndarray):
    """Rows of ``A`` grouped by their number m >= 2 of nonzero weights:
    yields (rows, idx, w) per group, where idx[i] holds the indices of row
    rows[i]'s nonzero weights in ascending order of weight and w[i] the
    weights themselves.  Rows with fewer than two nonzero weights carry no
    density at zero and are left out; one-signed rows are kept, and their
    B-spline, which vanishes at zero, gives them a zero density and gradient."""
    # array methods rather than np.argsort and np.flatnonzero, whose Python
    # dispatch costs more than the work on the one short row of a `slice`
    nonzero = np.abs(A) > ZERO_WEIGHT_TOL
    counts = nonzero.sum(axis=1)
    order = np.where(nonzero, A, np.inf).argsort(axis=1)
    for m in set(counts.tolist()) - {0, 1}:
        rows = (counts == m).nonzero()[0]
        idx = order[rows, :m]
        yield rows, idx, A[rows[:, None], idx]


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
    t, neg = knots, -knots
    b = ((t[:, :-1] < 0.0) & (t[:, 1:] > 0.0)).astype(float)
    for p in range(1, t.shape[1] - 1):
        q = b / np.maximum(t[:, p:] - t[:, :-p], _TINY)
        b = neg[:, : -p - 1] * q[:, :-1] + t[:, p + 1 :] * q[:, 1:]
    return b[:, 0]


def _densities(A: np.ndarray) -> np.ndarray:
    """Density at zero for each row of raw weights, N(0; w) / (w_max - w_min)
    over the row's nonzero weights; zero where they carry no density at zero
    (a one-signed row's span may be zero: it is floored like a knot span)."""
    out = np.zeros(A.shape[0])
    for rows, _, w in _sorted_supports(A):
        out[rows] = _bspline_at_zero(w) / np.maximum(w[:, -1] - w[:, 0], _TINY)
    return out


def _density(a: np.ndarray) -> float:
    return float(_densities(a[None, :])[0])


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


def section_volume(weights: WeightVector) -> float:
    """vol_{n-1} of the central section of the n-simplex with the given unit
    normal of n + 1 coordinates.  From n = 172 on, (n - 1)! exceeds the
    largest float and NumericalError is raised."""
    n = len(weights) - 1
    if n < 2:
        raise DomainError(f"sections need dimension n >= 2, got {n}")
    try:
        scale = math.sqrt(n + 1.0) / math.factorial(n - 1)
    except OverflowError as exc:
        raise NumericalError(f"(n - 1)! overflows a float at n = {n}") from exc
    return scale * density_at_zero(weights)


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

    # the centred vertices span the polygon's 2-plane: coordinates in its
    # orthonormal basis, the two leading right singular vectors
    centred = verts - verts.mean(axis=0)
    coords = centred @ np.linalg.svd(centred)[2][:2].T
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


class MaxSectionResult(namedtuple("MaxSectionResult", "a_star value max_evaluated evaluations")):
    """The best normal found, its density at zero, the largest density evaluated, and the evaluation count."""

    __slots__ = ()


def _density_gradients(A: np.ndarray) -> np.ndarray:
    """Gradient of the density at zero in the raw weights, row by row.

    d f(0)/d w_j = -N_j'(0) / ((m-1)(w_max - w_min)), where N_j is the
    B-spline on the knots with w_j doubled; N_j' is (m-1) times the
    difference of the degree m-2 B-splines on its first and on its last m
    knots, each divided by its span (a zero span carries a zero spline).
    The 2m rows of every row of a group share one recurrence.  Weights
    treated as zero, and rows without density at zero, get a zero derivative.
    """
    grad = np.zeros_like(A)
    for rows, idx, w in _sorted_supports(A):
        k, m = w.shape
        pos = np.arange(m + 1)
        doubled = w[:, pos - (pos[None, :] > np.arange(m)[:, None])]  # [i, j] repeats w[i, j]
        knots = np.concatenate([doubled[:, :, :-1], doubled[:, :, 1:]], axis=1).reshape(2 * k * m, m)
        q = _bspline_at_zero(knots) / np.maximum(knots[:, -1] - knots[:, 0], _TINY)
        q = q.reshape(k, 2 * m)
        span = np.maximum(w[:, -1] - w[:, 0], _TINY)
        grad[rows[:, None], idx] = (q[:, m:] - q[:, :m]) / span[:, None]
    return grad


# Row-wise forms of a 1-D ascent's reductions that round exactly as they do:
# a stacked matmul of vectors takes the same dot product as np.dot (and so
# np.linalg.norm), and a reduction along rows sums as the mean of one row.


def _row_mean(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x[:, None, :] @ y[:, :, None])[:, :, 0]


def _project_tangent(G: np.ndarray, A: np.ndarray) -> np.ndarray:
    G = G - _row_mean(G)
    return G - _row_dot(G, A) * A


def _renormalise(V: np.ndarray) -> np.ndarray:
    V = V - _row_mean(V)
    return V / np.sqrt(_row_dot(V, V))


def _ascend(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Projected gradient ascent from each row of ``A`` (unit zero-sum
    normals), all rows in lockstep, each with its own step size, line search
    and stopping state.  Returns the final rows, their densities, the number
    of candidates evaluated and the largest density among them."""
    A = A.copy()
    vals = _densities(A)
    evaluations, max_evaluated = A.shape[0], float(vals.max())
    eta = np.full(A.shape[0], 0.5)
    active = np.arange(A.shape[0])
    for _ in range(400):
        G = _project_tangent(_density_gradients(A[active]), A[active])
        moving = np.sqrt(_row_dot(G, G)[:, 0]) >= 1e-10
        active, G = active[moving], G[moving]
        if active.size == 0:
            break
        # the steps shrink as the ascent closes in on the kinked optimum,
        # so each search starts just above the last accepted step
        eta[active] = np.minimum(0.5, 4.0 * eta[active])
        searching = active
        for _ in range(20):
            trial = _renormalise(A[searching] + eta[searching, None] * G)
            trial_vals = _densities(trial)
            evaluations += searching.size
            max_evaluated = max(max_evaluated, float(trial_vals.max()))
            accepted = trial_vals > vals[searching] + 1e-13
            A[searching[accepted]] = trial[accepted]
            vals[searching[accepted]] = trial_vals[accepted]
            searching, G = searching[~accepted], G[~accepted]
            if searching.size == 0:
                break
            eta[searching] *= 0.5
        # a row whose 20 halvings all failed stops where it is
        active = np.setdiff1d(active, searching, assume_unique=True)
    return A, vals, evaluations, max_evaluated


def maximize_section(n: int, restarts: int = 20, seed: int = 0) -> MaxSectionResult:
    """Maximise the density at zero over unit zero-sum normals.

    Projected gradient ascent with the analytic gradient, backtracking steps
    and random restarts; restart streams are derived from (seed, restart
    index) so the result does not depend on execution order.  The restarts
    ascend in lockstep as the rows of one array (``_ascend``).  The expected
    optimum is 2^(-1/2), attained on normals supported on exactly two
    coordinates.
    """
    if not _is_integer(n) or n < 2:
        raise DomainError(f"need an integer dimension n >= 2, got {n!r}")
    if not _is_integer(restarts) or restarts < 20:
        raise DomainError(f"need an integer number of restarts >= 20, got {restarts!r}")
    seed = _as_seed(seed)

    rngs = (np.random.default_rng((seed, r)) for r in range(restarts))
    starts = np.array([WeightVector.from_raw(rng.standard_normal(n + 1), project=True).a for rng in rngs])
    A, vals, evaluations, max_evaluated = _ascend(starts)
    best = int(np.argmax(vals))  # the first restart among equal maxima
    return MaxSectionResult(
        a_star=WeightVector.from_raw(A[best], project=True),
        value=float(vals[best]),
        max_evaluated=max_evaluated,
        evaluations=evaluations,
    )
