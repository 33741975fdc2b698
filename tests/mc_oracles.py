"""Serial and array oracles of the Monte-Carlo estimators in ``lcmoments.mc``.

The serial oracles draw chunk by chunk, in chunk order, so the two-lane
estimators must match them bit for bit; the array oracle sums samples held
all at once, so it matches up to the order of summation.
"""

import numpy as np

from lcmoments import mc


def _centred_draws(cfg):
    """Yield (start, E-1, E'-1) chunk by chunk, in chunk order."""
    start = 0
    for c, size in enumerate(mc._chunk_sizes(cfg.samples)):
        rng = mc._chunk_rng(cfg.seed, c)
        e1 = rng.standard_exponential(size)
        e2 = rng.standard_exponential(size)
        yield start, e1 - 1.0, e2 - 1.0
        start += size


def serial_sample_xab(params, cfg):
    """All cfg.samples samples of a(E-1) - b(E'-1) as one array."""
    return np.concatenate([params.a * d1 - params.b * d2 for _, d1, d2 in _centred_draws(cfg)])


def serial_xab_moments(cases, cfg):
    """Serial oracle of estimate_xab_moments: one chunk loop, block sums in chunk order."""
    n = cfg.samples
    edges = mc._block_edges(n)
    block_sums = np.zeros((len(cases), mc._JACKKNIFE_BLOCKS))
    for start, d1, d2 in _centred_draws(cfg):
        first = int(np.searchsorted(edges, start, side="right")) - 1
        cuts = np.concatenate(([start], edges[(edges > start) & (edges < start + d1.size)])) - start
        for sums, (params, p) in zip(block_sums, cases):
            xs = params.a * d1 - params.b * d2
            mc._abs_power_inplace(xs, p)
            sums[first : first + cuts.size] += np.add.reduceat(xs, cuts)
    return [mc._jackknife(sums, np.diff(edges), n) for sums in block_sums]


def array_abs_moment(samples, p):
    """The estimate of estimate_xab_moments from an array of samples held at
    once: the mean of |x|^p, jackknifed over the same blocks."""
    values = np.array(samples, dtype=float)
    edges = mc._block_edges(values.size)
    mc._abs_power_inplace(values, p)
    return mc._jackknife(np.add.reduceat(values, edges[:-1]), np.diff(edges), values.size)
