"""
Empirical disintegration along a functional
===========================================

Binning samples by their G-value yields conditional measures with weights
given by the empirical image measure.  The tower identity is exact on shared
samples, and a thin bin's conditional measure, scaled by the density value,
reproduces the surface measure.
"""

import numpy as np
from scipy import stats

from glset import (Coordinate, build_model, conditional_vs_surface,
                   disintegrate, support_check, verify_disintegration)
from glset import ExpressionFunctional

model = build_model(("iid_gaussian", 3))
n = 500_000
# one pass bins the samples and sums every weight per bin
phi = ExpressionFunctional("exp(-norm2())")
D = disintegrate(model, Coordinate(1), n, seed=51, bins=100,
                 phis=[phi, Coordinate(1)])
gauss_sums, xi1_sums = D.binned

print(f"disintegrated {n:,} samples into {D.bins} quantile bins")
print("weights sum to:", D.weights.sum(), "| empty bins:", len(D.empty_bins))
rec = support_check(D)
print("every bin's G-range within its width:", rec.contained)

# tower identity: weighted conditional means reassemble the plain mean
tower = verify_disintegration(D, gauss_sums)
print(f"\ntower identity: {tower.weighted_sum:.12f} vs {tower.plain_mean:.12f}"
      f" (rel err {tower.rel_error:.2e})")

# conditional means of xi_1 given xi_1 in a bin track the bin centers
mids = 0.5 * (D.edges[:-1] + D.edges[1:])
cond = D.conditional_means(xi1_sums)
picks = [10, 50, 90]
print("\nbin centers vs conditional means of xi_1:")
for j in picks:
    print(f"  bin {j}: center {mids[j]:+.3f}, conditional mean {cond[j]:+.3f}")

# the conditional measure at a thin bin around r, scaled by q1(r), matches
# the surface measure there; one more pass of D's stream gives every level
rec, = conditional_vs_surface(D, Coordinate(1), [1.0])
print(f"\nconditional route: q1 * E[xi_1 | bin] = {rec.product:.5f}")
print(f"surface route:     q_(xi_1)(1)         = {rec.surface_value:.5f}")
print(f"normal pdf at 1 (both should track it): "
      f"{stats.norm.pdf(1.0):.5f} | within band: {rec.within_band}")
