"""Certify the crossing structure behind the comparison inequalities.

The moment inequalities are proved by showing that the gap between two
family densities crosses zero exactly three times with pattern (+,-,+,-),
then pinning an interpolant alpha + beta*x + gamma*x^q at those crossings
so the integrand (density gap) * (power gap) becomes pointwise nonnegative.
This script reproduces every step numerically; the crossings come from the
densities' exact exponential-sum pieces, and the power gap's sign from
Descartes' rule of signs on its four coefficients, not from sampling: with
three zeros they alternate in sign by exponent, so the rank of p among the
exponents 0, 1, p, q fixes the sign past the last crossing.  The package
solves for no coefficient; this script solves the 3x3 system with numpy
only to show the alternation.  Nor does the package solve for q: each
regime's bracket of q fixes that rank, so the regime fixes the sign the
density gap must end with, and this script finds q only to show it.
"""

import numpy as np

from lcmoments import (
    NumericalError,
    family_scale,
    find_p0,
    nonneg_decomposition_check,
    verify_3crossings,
)
from lcmoments.constants import _tie
from lcmoments.crossings import _decomposition_regime, _exp_sum_zeros, _gap_pieces, _term_rate

print("=== Three crossings, pattern (+,-,+,-), across the family ===")
for t in (0.1, 0.3, 0.5, 0.7, 0.9):
    result = verify_3crossings(t)
    up, low = result.report_upper, result.report_lower
    print(f"t = {t:3.1f}:")
    print(f"  symmetric vs member: {up.pattern}  at " + ", ".join(f"{c:.5f}" for c in up.crossings))
    print(f"  member vs one-sided: {low.pattern}  at " + ", ".join(f"{c:.5f}" for c in low.crossings))
print()

# Between breakpoints a gap is a sum of exponentials; Descartes' rule bounds
# its zeros by the sign changes of its coefficients ordered by rate, so a
# piece with one change is settled by its end signs and only the others are
# split at the zeros of their derivative.
print("=== Each gap piece at t = 0.5: coefficient signs by rate, sign changes, certified zeros ===")
for s, u in ((1.0, 0.5), (0.5, 0.0)):
    for lo, hi, terms in _gap_pieces(s, u):
        merged = {}
        for c, sign, rho in terms:
            rate = _term_rate(sign, rho)
            merged[rate] = merged.get(rate, 0.0) + c
        signs = "".join("+" if c > 0.0 else "-" for _, c in sorted(merged.items()) if c != 0.0)
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        zeros, _ = _exp_sum_zeros(terms, lo, hi)
        how = "settled by its end signs" if changes < 2 else "split at its derivative's zeros"
        piece = f"E_{s:g} vs E_{u:g} on [{lo:.5f}, {hi:.5f})"
        print(f"  {piece}: {signs:4s} {changes} change(s), {len(zeros)} zero(s), {how}")
print()

# The package solves for no q; this script takes it from the tie routine
# behind p0, _tie(baseline, t, bracket ends, norm), at mid-range t only: near
# the baseline the two members' moments nearly coincide and their gap cancels.
print("=== The matching order q(t) where the symmetric member's moments tie ===")
for t in (0.2, 0.5, 0.8):
    q = _tie(1.0, t, 2.0, 4.0, family_scale)
    print(f"t = {t:3.1f}: q(t) = {q:.8f}  (inside (2, 4))")
print()

print("=== Building the pointwise-nonnegative decomposition at t = 0.5 ===")
t = 0.5
q = _tie(1.0, t, 2.0, 4.0, family_scale)
nodes = verify_3crossings(t).report_upper.crossings
print(f"matching order q = {q:.8f}, crossing nodes {[f'{x:.5f}' for x in nodes]}")
print("three sign changes in x^p - alpha - beta x - gamma x^q: the crossings are its only zeros")
x = np.array(nodes)
for p in (-0.5, 0.5, 2.0):
    alpha, beta, gamma_q = np.linalg.solve(np.column_stack([np.ones(3), x, x**q]), x**p)
    terms = sorted([(p, 1.0), (0.0, -alpha), (1.0, -beta), (q, -gamma_q)])
    signs = "".join("+" if c > 0.0 else "-" for _, c in terms)
    rank = sorted((0.0, 1.0, p, q)).index(p)
    lead = "+" if (3 - rank) % 2 == 0 else "-"
    print(
        f"p = {p:4.1f}: interpolant ({alpha:+.5f}, {beta:+.5f}, {gamma_q:+.6f}), "
        f"signs at exponents ({', '.join(f'{e:.3g}' for e, _ in terms)}) {signs}; "
        f"x^p is exponent {rank} of 0..3, so the rank rule gives the last sign {lead}"
    )
print()

print("=== Each regime's bracket of q fixes the density gap's last sign ===")
t = 0.5
for p in (-0.5, 0.5, 2.0, 3.5):
    baseline, (lo, hi), last_sign = _decomposition_regime(p, find_p0())
    q = _tie(baseline, t, lo, hi, family_scale)
    rank = sorted((0.0, 1.0, p, q)).index(p)
    # for p in (0, 1) the product must be nonpositive, which flips the sign
    lead = "+" if ((3 - rank) % 2 == 0) != (0.0 < p < 1.0) else "-"
    print(
        f"p = {p:4.1f}: baseline t = {baseline:.0f}, q = {q:.8f} in ({lo:.6f}, {hi:.6f}); "
        f"the rank rule at q{', flipped,' if 0.0 < p < 1.0 else ''} gives {lead}, the regime's last sign is {last_sign}"
    )
print()

print("=== Regime-by-regime nonnegativity checks ===")
for t in (0.25, 0.5, 0.75):
    verdicts = {p: nonneg_decomposition_check(t, p) for p in (-0.5, 2.0, 3.5, 20.0)}
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
