"""Certify the crossing structure behind the comparison inequalities.

The moment inequalities are proved by showing that the gap between two
family densities crosses zero exactly three times with pattern (+,-,+,-),
then pinning an interpolant alpha + beta*x + gamma*x^q at those crossings
so the integrand (density gap) * (power gap) becomes pointwise nonnegative.
This script reproduces every step numerically; the crossings come from the
densities' exact exponential-sum pieces, not from sampling.
"""

import numpy as np

from lcmoments import (
    NumericalError,
    density_abs_ebar,
    matching_order,
    nonneg_decomposition_check,
    vandermonde_coeffs,
    verify_3crossings,
)

print("=== Three crossings, pattern (+,-,+,-), across the family ===")
for t in (0.1, 0.3, 0.5, 0.7, 0.9):
    result = verify_3crossings(t)
    up, low = result.report_upper, result.report_lower
    print(f"t = {t:3.1f}:")
    print(f"  symmetric vs member: {up.pattern}  at " + ", ".join(f"{c:.5f}" for c in up.crossings))
    print(f"  member vs one-sided: {low.pattern}  at " + ", ".join(f"{c:.5f}" for c in low.crossings))
print()

print("=== The matching order q(t) where the symmetric member's moments tie ===")
for t in (0.2, 0.5, 0.8):
    q = matching_order(t)
    print(f"t = {t:3.1f}: q(t) = {q:.8f}  (inside (2, 4))")
print()

print("=== Building the pointwise-nonnegative decomposition at t = 0.5 ===")
t = 0.5
q = matching_order(t)
nodes = verify_3crossings(t).report_upper.crossings
print(f"matching order q = {q:.8f}, crossing nodes {[f'{x:.5f}' for x in nodes]}")
for p in (-0.5, 0.5, 2.0):
    alpha, beta, gamma_q = vandermonde_coeffs(p, q, *nodes)
    xs = np.linspace(1e-4, 40.0, 20000)
    gap = density_abs_ebar(1.0, xs) - density_abs_ebar(t, xs)
    power = xs**p - (alpha + beta * xs + gamma_q * xs**q)
    product = gap * power if p < 0.0 or p >= 1.0 else -(gap * power)
    print(
        f"p = {p:4.1f}: interpolant ({alpha:+.5f}, {beta:+.5f}, {gamma_q:+.6f}), "
        f"min product {product.min():+.2e}"
    )
print()

print("=== Regime-by-regime nonnegativity checks ===")
for t in (0.25, 0.5, 0.75):
    verdicts = {p: nonneg_decomposition_check(t, p) for p in (-0.5, 2.0, 3.5)}
    print(f"t = {t:4.2f}: " + "  ".join(f"p={p:+.1f} -> {ok}" for p, ok in verdicts.items()))
print()

print("=== Near the ends of the family, where the gaps vanish ===")
for t in (1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6):
    result = verify_3crossings(t)
    up, low = result.report_upper, result.report_lower
    print(f"t = {t:.6g}:")
    print("  symmetric vs member at " + ", ".join(f"{c:.9g}" for c in up.crossings))
    print("  member vs one-sided at " + ", ".join(f"{c:.9g}" for c in low.crossings))
try:
    verify_3crossings(1e-8)
except NumericalError as exc:
    print(f"t = 1e-08: not certified, {exc}")
