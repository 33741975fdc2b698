"""Validate the closed-form moment and density routes by seeded sampling.

All estimators are deterministic given the seed (counter-based chunked
generation), so each line below reproduces exactly.
"""

import math

from lcmoments import (
    McConfig,
    TwoSidedExpParams,
    WeightVector,
    density_at_zero,
    estimate_density_at_zero,
    estimate_xab_moments,
    family_scale,
    moment_et,
)

SAMPLES = 1_000_000
print(f"=== Moments of the two-sided exponential family ({SAMPLES:.0e} samples) ===")
cases = [
    ("symmetric, E|X|^2", TwoSidedExpParams(1.0, 1.0), 2.0, moment_et(2.0, 1.0)),
    ("a=1 b=0.5, E|X|", TwoSidedExpParams(1.0, 0.5), 1.0, moment_et(1.0, 0.5)),
    ("a=1 b=0.7, E|X|^2", TwoSidedExpParams(1.0, 0.7), 2.0, 1.0 + 0.49),
    ("one-sided, E|X|^4", TwoSidedExpParams(1.0, 0.0), 4.0, 9.0),
    ("a=1 b=0.5, E|X|^-0.5", TwoSidedExpParams(1.0, 0.5), -0.5, moment_et(-0.5, 0.5)),
]
# one pass over the shared seed-101 draws serves all five cases
estimates = estimate_xab_moments([(params, p) for _, params, p, _ in cases],
                                 McConfig(seed=101, samples=SAMPLES))
for (label, params, p, target), est in zip(cases, estimates):
    sigmas = abs(est.estimate - target) / est.standard_error
    print(f"{label:24s} estimate {est.estimate:10.6f} +- {est.standard_error:.2e}"
          f"   target {target:10.6f}   ({sigmas:.2f} se away)")
print()

print("=== The normalized third moment near its recorded value ===")
t = 0.2
s = family_scale(t)
# Ebar_t = E_t / s is the member with branch scales (1/s, t/s)
[est] = estimate_xab_moments([(TwoSidedExpParams(1.0 / s, t / s), 3.0)], McConfig(seed=202, samples=SAMPLES))
target = moment_et(3.0, t) / s**3
print(f"E|Ebar_t|^3 at t = {t}: estimate {est.estimate:.5f} +- {est.standard_error:.1e}, "
      f"closed form {target:.5f}")
print()

print("=== Window estimates of the weighted-sum density at zero ===")
for raw in ([1.0, -1.0], [1.0, 0.0, -1.0], [2.0, -1.0, -1.0]):
    w = WeightVector.from_raw(raw, project=True)
    est = estimate_density_at_zero(w, McConfig(seed=303, samples=SAMPLES))
    target = density_at_zero(w)
    sigmas = abs(est.estimate - target) / est.standard_error
    print(f"weights {raw}: estimate {est.estimate:.6f} +- {est.standard_error:.1e}"
          f"   inversion {target:.6f}   ({sigmas:.2f} se away)")
print()
print(f"equality cases sit at 2^(-1/2) = {1.0 / math.sqrt(2.0):.6f}")
print()

print("=== Determinism: the same seed reproduces an estimate bit for bit ===")
w = WeightVector.from_raw([1.0, -1.0], project=True)
first = estimate_density_at_zero(w, McConfig(seed=9, samples=200_000))
second = estimate_density_at_zero(w, McConfig(seed=9, samples=200_000))
print(f"first:  {first.estimate!r}")
print(f"second: {second.estimate!r}")
print(f"bit-identical: {first == second}")
