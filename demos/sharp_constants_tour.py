"""Tour of the sharp moment-comparison constants.

Walks the one-parameter family of normalized two-sided exponentials,
locates the branch-crossover order p0 where the extremiser switches from
the symmetric to the one-sided exponential, and scans the L_p/L_2 ratio
for the second transition near p = 1.68.
"""

import math

import numpy as np

from lcmoments import (
    branch_gap,
    find_l2_transition,
    find_p0,
    lp_lq_ratio,
    norm_ebar,
    scan_family_extrema,
    scan_l2_ratio,
    sharp_constant,
)

print("=== Branch crossover of the upper L_p-L_1 constant ===")
p0 = find_p0()
print(f"p0 = {p0:.10f}   (gap residual {branch_gap(p0):+.2e})")
print(f"gap at 2.9414: {branch_gap(2.9414):+.3e}   gap at 2.9415: {branch_gap(2.9415):+.3e}")
print()

print("=== Sharp constants across orders ===")
print("the lower constants are lp_lq_ratio(p, q) at q = 1 and q = 2")
print(f"{'p':>6} {'lower vs L1':>14} {'lower vs L2':>14} {'upper vs L1':>14}")
for p in (-0.5, 0.5, 1.0):
    print(f"{p:6.2f} {lp_lq_ratio(p, 1.0):14.8f} {lp_lq_ratio(p, 2.0):14.8f} {'-':>14}")
for p in (1.5, 2.0, p0, 4.0, 6.0):
    print(f"{p:6.3f} {'-':>14} {'-':>14} {sharp_constant(p):14.8f}")
print()

print("=== Family profiles: where the extremum sits ===")
print("below order 1 the scan minimises, above it maximises")
for p in (-0.5, 0.5, 2.0, 2.9, 3.0, 4.0):
    result = scan_family_extrema(p, grid_size=400)
    kind = "min" if p <= 1.0 else "max"
    print(f"p = {p:4.1f}: {kind} at t = {result.argopt_t:4.2f}, value {result.opt_value:.10f}")
print()
print("profile snapshot at p = 3 (between the transitions, both endpoints compete):")
ts = np.linspace(0.0, 1.0, 6)
vals = [norm_ebar(3.0, t) for t in ts]
print("  t:     " + "  ".join(f"{t:7.2f}" for t in ts))
print("  value: " + "  ".join(f"{v:7.4f}" for v in vals))
print()

print("=== L_p/L_2 ratio: the second extremiser transition ===")
pstar = find_l2_transition()
print(f"symmetric and one-sided ratios tie at p* = {pstar:.4f}")
for p in (1.5, pstar - 0.05, pstar + 0.05, 3.0):
    result = scan_l2_ratio(p, grid_size=400)
    direction = "min" if p < 2.0 else "max"
    shape = "symmetric" if result.argopt_t == 0.5 else "one-sided"
    print(f"p = {p:6.4f}: {direction} at s = {result.argopt_t:4.2f} ({shape}), ratio {result.opt_value:.8f}")
print()
print(f"check: 1/C_2 = {1.0 / sharp_constant(2.0):.12f} = 2^(-1/2) = {1.0 / math.sqrt(2.0):.12f}")
