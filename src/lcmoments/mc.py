"""Seeded Monte-Carlo oracles for moments and densities.

These estimators exist to validate the closed-form and quadrature routes,
so reproducibility is strict: sampling is split into fixed-size chunks, the
counter-based Philox generator for chunk c is keyed by (seed, c), and
reductions run in chunk order, so identical configurations give
bit-identical estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .expfamily import TwoSidedExpParams
from .specfun import as_order

__all__ = [
    "McConfig",
    "McEstimate",
    "sample_xab",
    "estimate_abs_moment",
    "estimate_density_at_zero",
]

# fixed draws per chunk; the chunk index keys the RNG
_CHUNK = 1 << 17

# blocks of the delete-one-block jackknife
_JACKKNIFE_BLOCKS = 100


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration; identical configs give identical estimates."""

    seed: int
    samples: int = 100_000
    density_window: float = 0.01

    def __post_init__(self):
        if self.samples < 100_000:
            raise DomainError(f"need at least 1e5 samples, got {self.samples}")
        if not self.density_window > 0.0:
            raise DomainError("density_window must be positive")


def _chunk_sizes(total: int) -> list[int]:
    full, rest = divmod(total, _CHUNK)
    return [_CHUNK] * full + ([rest] if rest else [])


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def sample_xab(params: TwoSidedExpParams, cfg: McConfig) -> np.ndarray:
    """i.i.d. samples of a(E-1) - b(E'-1), two exponential draws per sample."""
    parts = []
    for c, size in enumerate(_chunk_sizes(cfg.samples)):
        rng = _chunk_rng(cfg.seed, c)
        e1 = rng.standard_exponential(size)
        e2 = rng.standard_exponential(size)
        parts.append(params.a * (e1 - 1.0) - params.b * (e2 - 1.0))
    return np.concatenate(parts)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    standard_error: float


def estimate_abs_moment(samples: np.ndarray, p) -> McEstimate:
    """Sample mean of |x|^p with a delete-one-block jackknife standard error.

    For p in (-1, 0) this is still the raw mean of |x|^p; the heavier tail
    of the summand simply shows up as a larger reported standard error.
    """
    p = as_order(p)
    values = np.abs(np.asarray(samples, dtype=float)) ** p
    n = values.size
    blocks = _JACKKNIFE_BLOCKS
    if n < blocks:
        raise DomainError(f"need at least {blocks} samples for the jackknife")
    estimate = float(values.mean())

    edges = np.linspace(0, n, blocks + 1).astype(int)
    total = values.sum()
    leave_out = np.array(
        [(total - values[a:b].sum()) / (n - (b - a)) for a, b in zip(edges[:-1], edges[1:])]
    )
    se = math.sqrt((blocks - 1) / blocks * float(np.sum((leave_out - leave_out.mean()) ** 2)))
    return McEstimate(estimate, se)


def estimate_density_at_zero(weights, cfg: McConfig) -> McEstimate:
    """Window estimator of the weighted-sum density at zero.

    Counts samples of sum_j w_j E_j falling in [-w, w] and divides by 2w;
    the window bias is O(w^2), far below the sampling noise at the window
    and sample sizes used here.
    """
    w = np.asarray(weights.a if hasattr(weights, "a") else weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise DomainError("weight vector needs at least two coordinates")
    half = cfg.density_window
    count = 0
    for c, size in enumerate(_chunk_sizes(cfg.samples)):
        rng = _chunk_rng(cfg.seed, c)
        sums = rng.standard_exponential((size, w.size)) @ w
        count += int(np.count_nonzero(np.abs(sums) <= half))
    frac = count / cfg.samples
    estimate = frac / (2.0 * half)
    se = math.sqrt(frac * (1.0 - frac) / cfg.samples) / (2.0 * half)
    return McEstimate(estimate, se)
