"""Seeded Monte-Carlo oracles for moments and densities.

These estimators exist to validate the closed-form routes, so reproducibility
is strict: sampling is split into fixed-size chunks, the counter-based Philox
generator for chunk c is keyed by (seed, c), and reductions run in chunk
order, so identical configurations give bit-identical estimates.

The chunks run on a pool of two worker threads, each of which allocates
its buffers once, and the per-chunk results come back in chunk order, so
every estimate is the one a serial loop over the chunks gives, whatever
the thread scheduling.

The draws (E, E') depend on the seed and the sample count alone, so every
member a(E-1) - b(E'-1) of the two-sided family shares them under one
configuration.  `estimate_xab_moments` makes one pass over the chunks that
serves many (params, p) cases: each chunk is drawn once, and each case only
adds its |x|^p to per-block sums, so memory stays at about three chunks per
worker thread whatever the sample count.
"""

from __future__ import annotations

import contextvars
import math
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError, NumericalError
from .expfamily import TwoSidedExpParams
from .simplex import _weight_array
from .specfun import _as_seed, _is_integer, as_order

# fixed draws per chunk; the chunk index keys the RNG
_CHUNK = 1 << 17

# blocks of the delete-one-block jackknife
_JACKKNIFE_BLOCKS = 100

# half-width of the window around zero in the density estimator
_DENSITY_WINDOW = 0.01


class McConfig(namedtuple("McConfig", "seed samples")):
    """Sampling configuration; identical configs give identical estimates."""

    __slots__ = ()
    # ``_replace`` builds through ``_make``, which would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, seed, samples=100_000):
        _as_seed(seed)
        if not _is_integer(samples):
            raise DomainError(f"samples must be an integer, got {samples!r}")
        if samples < 100_000:
            raise DomainError(f"need at least 1e5 samples, got {samples}")
        return super().__new__(cls, seed, samples)


def _chunk_sizes(total: int) -> list[int]:
    full, rest = divmod(total, _CHUNK)
    return [_CHUNK] * full + ([rest] if rest else [])


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def _map_chunks(sizes: list[int], buffers, work) -> list:
    """[work(c, size, *buffers()) for c, size in enumerate(sizes)] on two
    worker threads, each of which calls `buffers()` once.

    Each chunk runs in a copy of the caller's context, so numpy's error
    state carries over.  The results come back in chunk order; the error of
    the lowest failing chunk is raised, as a serial loop would raise it, the
    chunks not yet started are cancelled, and every worker has ended when
    the call returns.
    """
    local = threading.local()

    def chunk(c):
        if not hasattr(local, "buffers"):
            local.buffers = buffers()
        return work(c, sizes[c], *local.buffers)

    contexts = [contextvars.copy_context() for _ in sizes]
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(lambda context, c: context.run(chunk, c), contexts, range(len(sizes))))


def _draw_chunk(seed: int, c: int, size: int, e1, e2):
    """E-1 and E'-1 of chunk c, drawn into the first `size` entries of e1 and e2."""
    rng = _chunk_rng(seed, c)
    d1, d2 = e1[:size], e2[:size]
    rng.standard_exponential(out=d1)
    rng.standard_exponential(out=d2)
    d1 -= 1.0
    d2 -= 1.0
    return d1, d2


def _xab_into(params: TwoSidedExpParams, d1, d2, out, scratch) -> None:
    """out = a (E-1) - b (E'-1), rounded as the plain array expression; the
    b (E'-1) term goes through `scratch` a piece at a time."""
    np.multiply(d1, params.a, out=out)
    for lo in range(0, out.size, scratch.size):
        part = slice(lo, lo + scratch.size)
        tmp = scratch[: out[part].size]
        np.multiply(d2[part], params.b, out=tmp)
        np.subtract(out[part], tmp, out=out[part])


class McEstimate(namedtuple("McEstimate", "estimate standard_error")):
    """A Monte-Carlo mean and its standard error."""

    __slots__ = ()


def _abs_power_inplace(x: np.ndarray, p: float) -> None:
    # the pole of |x|^p at 0 for p < 0 surfaces as a non-finite estimate
    np.abs(x, out=x)
    with np.errstate(divide="ignore", over="ignore"):
        np.power(x, p, out=x)


def _block_edges(n: int) -> np.ndarray:
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


def estimate_xab_moments(cases, cfg: McConfig) -> list[McEstimate]:
    """E|a(E-1) - b(E'-1)|^p for each (TwoSidedExpParams, p) in cases, in one
    pass over shared draws.

    Each estimate is the sample mean of |x|^p with a delete-one-block
    jackknife standard error.  For p in (-1, 0) this is still the raw mean of
    |x|^p; the heavier tail of the summand shows up as a larger standard error.
    """
    cases = [(params, as_order(p)) for params, p in cases]
    n = cfg.samples
    edges = _block_edges(n)

    def work(c, size, e1, e2, x, scratch):
        d1, d2 = _draw_chunk(cfg.seed, c, size, e1, e2)
        xs, start = x[:size], c * _CHUNK
        # the block holding the chunk's first sample, then each block that
        # starts inside the chunk
        first = int(np.searchsorted(edges, start, side="right")) - 1
        cuts = np.concatenate(([start], edges[(edges > start) & (edges < start + size)])) - start
        parts = []
        for params, p in cases:
            _xab_into(params, d1, d2, xs, scratch)
            _abs_power_inplace(xs, p)
            parts.append(np.add.reduceat(xs, cuts))
        return first, parts

    def buffers():
        # rows for E-1, E'-1 and the case's samples, then a quarter-chunk scratch
        return (*np.empty((3, min(n, _CHUNK))), np.empty(_CHUNK // 4))

    block_sums = np.zeros((len(cases), _JACKKNIFE_BLOCKS))
    for first, parts in _map_chunks(_chunk_sizes(n), buffers, work):
        for sums, part in zip(block_sums, parts):
            sums[first : first + part.size] += part
    sizes = np.diff(edges)
    return [_jackknife(sums, sizes, n) for sums in block_sums]


def estimate_density_at_zero(weights, cfg: McConfig) -> McEstimate:
    """Window estimator of the weighted-sum density at zero.

    Counts samples of sum_j w_j E_j falling in [-w, w] and divides by 2w;
    the window bias is O(w^2), far below the sampling noise at the window
    and sample sizes used here.  Each chunk's draws come in blocks of rows
    that continue one stream, so memory does not grow with the dimension.
    """
    w = _weight_array(weights.a if hasattr(weights, "a") else weights)
    half = _DENSITY_WINDOW
    # rows per block of draws: about one chunk of doubles
    rows = max(1, _CHUNK // w.size)

    def buffers():
        return np.empty((rows, w.size)), np.empty(rows)

    def work(c, size, block, sums):
        rng = _chunk_rng(cfg.seed, c)
        count = 0
        for lo in range(0, size, rows):
            draws = block[: min(rows, size - lo)]
            rng.standard_exponential(out=draws)
            s = np.matmul(draws, w, out=sums[: draws.shape[0]])
            count += int(np.count_nonzero(np.abs(s, out=s) <= half))
        return count

    count = sum(_map_chunks(_chunk_sizes(cfg.samples), buffers, work))
    frac = count / cfg.samples
    estimate = frac / (2.0 * half)
    se = math.sqrt(frac * (1.0 - frac) / cfg.samples) / (2.0 * half)
    return McEstimate(estimate, se)
