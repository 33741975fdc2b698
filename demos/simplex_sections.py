"""Central sections of the regular simplex via exponential densities.

The volume of a central hyperplane section equals sqrt(n+1)/(n-1)! times
the density at zero of the correspondingly weighted sum of i.i.d. standard
exponentials.  That density is a B-spline in the weights (Curry and
Schoenberg), evaluated by de Boor's recurrence; it is checked against a
direct polytope-slicing oracle in low dimension and maximised over normals:
the optimum is always 2^(-1/2), on hyperplanes through all but two vertices.
"""

import math

import numpy as np

from lcmoments import (
    WeightVector,
    density_at_zero,
    geometry_oracle_volume,
    maximize_section,
    section_volume,
)

print("=== Density at zero of weighted exponential sums ===")
many = [1.0] * 190 + [-1.0] * 11
for raw in ([1.0, -1.0], [1.0, 0.0, -1.0], [2.0, -1.0, -1.0], [3.0, 1.0, -2.0, -2.0], many):
    w = WeightVector.from_raw(raw, project=True)
    label = raw if len(raw) <= 4 else "190 x 1, 11 x -1"
    print(f"weights {label}: f(0) = N(0; w) / (w_max - w_min) = {density_at_zero(w):.12f}")
print(f"the sharp ceiling is 2^(-1/2) = {1.0 / math.sqrt(2.0):.12f}")
print()

print("=== Section volumes against the direct geometry oracle ===")
for raw in ([1.0, -1.0, 0.0], [2.0, -0.7, -1.3], [1.0, -1.0, 0.0, 0.0], [2.0, -1.0, -1.0, 0.3]):
    n = len(raw) - 1
    w = WeightVector.from_raw(raw, project=True)
    formula = section_volume(w)
    sliced = geometry_oracle_volume(w, n)
    print(f"n = {n}, weights {raw}: formula {formula:.12f}, polytope slicing {sliced:.12f}")
print()

print("=== Maximising the section volume over unit zero-sum normals ===")
for n in (2, 3, 4):
    result = maximize_section(n, restarts=20, seed=7)
    ordered = np.sort(np.abs(result.a_star.a))[::-1]
    print(
        f"n = {n}: max density {result.value:.10f} "
        f"(gap to 2^(-1/2): {abs(result.value - 1.0 / math.sqrt(2.0)):.1e}), "
        f"support pattern {np.round(ordered, 6)}"
    )
print()
print("every optimum concentrates on two coordinates: a transposition normal")
