"""Seeded Monte-Carlo oracles for moments and densities.

These estimators exist to validate the closed-form routes,
so reproducibility is strict: sampling is split into fixed-size chunks, the
counter-based Philox generator for chunk c is keyed by (seed, c), and
reductions run in chunk order, so identical configurations give
bit-identical estimates.

The draws (E, E') depend on the seed and the sample count alone, so every
member a(E-1) - b(E'-1) of the two-sided family shares them under one
configuration.  `estimate_xab_moments` makes one pass over the chunks that
serves many (params, p) cases: each chunk is drawn once, and each case only
adds its |x|^p to per-block sums, so memory stays at a few chunks whatever
the sample count.  `sample_xab` followed by `estimate_abs_moment` is the
array route over the same samples, for raw samples and as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .expfamily import TwoSidedExpParams
from .specfun import as_order

__all__ = [
    "McConfig",
    "McEstimate",
    "sample_xab",
    "estimate_abs_moment",
    "estimate_xab_moments",
    "estimate_density_at_zero",
]

# fixed draws per chunk; the chunk index keys the RNG
_CHUNK = 1 << 17

# blocks of the delete-one-block jackknife
_JACKKNIFE_BLOCKS = 100

# half-width of the window around zero in the density estimator
_DENSITY_WINDOW = 0.01


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_seed(seed) -> int:
    """Validate a generator seed: a nonnegative integer, not a bool."""
    if not _is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration; identical configs give identical estimates."""

    seed: int
    samples: int = 100_000

    def __post_init__(self):
        _as_seed(self.seed)
        if not _is_integer(self.samples):
            raise DomainError(f"samples must be an integer, got {self.samples!r}")
        if self.samples < 100_000:
            raise DomainError(f"need at least 1e5 samples, got {self.samples}")


def _chunk_sizes(total: int) -> list[int]:
    full, rest = divmod(total, _CHUNK)
    return [_CHUNK] * full + ([rest] if rest else [])


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def _centred_draws(cfg: McConfig):
    """Yield (start, E-1, E'-1) chunk by chunk, in two reused buffers."""
    e1 = np.empty(min(cfg.samples, _CHUNK))
    e2 = np.empty_like(e1)
    start = 0
    for c, size in enumerate(_chunk_sizes(cfg.samples)):
        rng = _chunk_rng(cfg.seed, c)
        d1, d2 = e1[:size], e2[:size]
        rng.standard_exponential(out=d1)
        rng.standard_exponential(out=d2)
        d1 -= 1.0
        d2 -= 1.0
        yield start, d1, d2
        start += size


def _xab_into(params: TwoSidedExpParams, d1, d2, out, scratch) -> None:
    """out = a (E-1) - b (E'-1), rounded as the plain array expression."""
    np.multiply(d1, params.a, out=out)
    np.multiply(d2, params.b, out=scratch)
    np.subtract(out, scratch, out=out)


def sample_xab(params: TwoSidedExpParams, cfg: McConfig) -> np.ndarray:
    """i.i.d. samples of a(E-1) - b(E'-1), two exponential draws per sample."""
    out = np.empty(cfg.samples)
    scratch = np.empty(min(cfg.samples, _CHUNK))
    for start, d1, d2 in _centred_draws(cfg):
        _xab_into(params, d1, d2, out[start : start + d1.size], scratch[: d1.size])
    return out


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    standard_error: float


def _abs_power_inplace(x: np.ndarray, p: float) -> None:
    # the pole of |x|^p at 0 for p < 0 surfaces as a non-finite estimate
    np.abs(x, out=x)
    with np.errstate(divide="ignore", over="ignore"):
        np.power(x, p, out=x)


def _block_edges(n: int) -> np.ndarray:
    if n < _JACKKNIFE_BLOCKS:
        raise DomainError(f"need at least {_JACKKNIFE_BLOCKS} samples for the jackknife")
    return np.linspace(0, n, _JACKKNIFE_BLOCKS + 1).astype(int)


def _jackknife(block_sums: np.ndarray, block_sizes: np.ndarray, n: int) -> McEstimate:
    """Mean and delete-one-block jackknife standard error from block sums."""
    blocks = block_sums.size
    with np.errstate(all="ignore"):
        estimate = float(block_sums.sum()) / n
        # each leave-one-block-out mean minus the estimate, in a form that
        # does not subtract the nearly equal totals
        shifts = (estimate * block_sizes - block_sums) / (n - block_sizes)
        se = math.sqrt((blocks - 1) / blocks * float(np.sum((shifts - shifts.mean()) ** 2)))
    if not (math.isfinite(estimate) and math.isfinite(se)):
        raise NumericalError(f"Monte-Carlo estimate {estimate} +- {se} is not finite")
    return McEstimate(estimate, se)


def estimate_abs_moment(samples: np.ndarray, p) -> McEstimate:
    """Sample mean of |x|^p with a delete-one-block jackknife standard error.

    For p in (-1, 0) this is still the raw mean of |x|^p; the heavier tail
    of the summand simply shows up as a larger reported standard error.
    """
    p = as_order(p)
    values = np.array(samples, dtype=float)
    edges = _block_edges(values.size)
    _abs_power_inplace(values, p)
    return _jackknife(np.add.reduceat(values, edges[:-1]), np.diff(edges), values.size)


def estimate_xab_moments(cases, cfg: McConfig) -> list[McEstimate]:
    """E|a(E-1) - b(E'-1)|^p for each (TwoSidedExpParams, p) in cases, in one
    pass over shared draws.

    Each case sees the samples of `sample_xab(params, cfg)` bit for bit, and
    its estimate and standard error are those of `estimate_abs_moment` on
    them up to the order of summation.
    """
    cases = [(params, as_order(p)) for params, p in cases]
    n = cfg.samples
    edges = _block_edges(n)
    block_sums = np.zeros((len(cases), _JACKKNIFE_BLOCKS))
    x = np.empty(min(n, _CHUNK))
    scratch = np.empty_like(x)
    for start, d1, d2 in _centred_draws(cfg):
        xs, tmp = x[: d1.size], scratch[: d1.size]
        # the block holding the chunk's first sample, then each block that
        # starts inside the chunk
        first = int(np.searchsorted(edges, start, side="right")) - 1
        cuts = np.concatenate(([start], edges[(edges > start) & (edges < start + d1.size)])) - start
        for sums, (params, p) in zip(block_sums, cases):
            _xab_into(params, d1, d2, xs, tmp)
            _abs_power_inplace(xs, p)
            sums[first : first + cuts.size] += np.add.reduceat(xs, cuts)
    sizes = np.diff(edges)
    return [_jackknife(sums, sizes, n) for sums in block_sums]


def estimate_density_at_zero(weights, cfg: McConfig) -> McEstimate:
    """Window estimator of the weighted-sum density at zero.

    Counts samples of sum_j w_j E_j falling in [-w, w] and divides by 2w;
    the window bias is O(w^2), far below the sampling noise at the window
    and sample sizes used here.
    """
    w = np.asarray(weights.a if hasattr(weights, "a") else weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise DomainError("weight vector needs at least two coordinates")
    if not np.all(np.isfinite(w)):
        raise DomainError(f"weights must be finite, got {w}")
    half = _DENSITY_WINDOW
    count = 0
    for c, size in enumerate(_chunk_sizes(cfg.samples)):
        rng = _chunk_rng(cfg.seed, c)
        sums = rng.standard_exponential((size, w.size)) @ w
        count += int(np.count_nonzero(np.abs(sums) <= half))
    frac = count / cfg.samples
    estimate = frac / (2.0 * half)
    se = math.sqrt(frac * (1.0 - frac) / cfg.samples) / (2.0 * half)
    return McEstimate(estimate, se)
