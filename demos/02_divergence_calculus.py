"""
H-gradients and the kernel field
================================

The Gaussian divergence div_mu Psi = sum_k (D_k psi_k - xi_k psi_k) has zero
mean under the model (the Stein identity).  Applied to the kernel field
psi = grad G/|grad G|^2 it generates densities of image measures, and the
engine evaluates it in closed form through KernelField.divergence.  Whether
that works for a given G is an integrability question: a density pass
estimates the tail of 1/|grad G| and flags the curves whose variance it
cannot trust instead of failing silently.
"""

import numpy as np

from glset import (Constant, Coordinate, DensityJob, KernelField, Norm2, build_model,
                   estimate_density, sample)

model = build_model(("iid_gaussian", 5))
xi = sample(model, 200_000, seed=11)

# the H-gradient of the squared norm is 2 xi
G = Norm2()
print("H-gradient of norm2 at (1,1,1,1,1):", G.gradient(np.ones((1, 5)))[0])

# kernel divergence of norm2 in closed form: (d-2)/(2S) - 1/2; rows whose
# gradient norm is below GRADIENT_FLOOR are excluded and counted
g = G.gradient(xi)
S = np.sum(xi * xi, axis=1)
kd, excluded = KernelField(G).divergence(xi, g, np.sum(g * g, axis=1))
print("kernel divergence matches (d-2)/(2S) - 1/2:",
      np.allclose(kd, 3 / (2 * S) - 0.5), "| excluded:", int(excluded.sum()))

# the Stein identity E[div_mu psi] = 0 on the engine's own field: at d=5,
# E[1/S] = 1/3 for S ~ chi-square(5), so the mean of (3/(2S) - 1/2) is 0
mean, se = kd.mean(), kd.std() / np.sqrt(len(kd))
print(f"mean kernel divergence over 2e5 samples: {mean:.2e} +- {se:.1e}",
      "| within 4 s.e.:", abs(mean) < 4 * se)

# the construction needs 1/|grad G| integrable.  For norm2 its tail index is
# d, so at d=2 the fourth moment diverges and the density pass flags its
# divergence curve: the flag is the only warning, the estimate is far off
# the chi-square(2) density exp(-r/2)/2.  coordinate(1) has a constant
# gradient, no tail and no flag, and matches the normal density
d2 = build_model(("iid_gaussian", 2))
print("\nd=2 divergence-route densities at r=1:")
for F, exact in ((Norm2(), np.exp(-0.5) / 2),
                 (Coordinate(1), np.exp(-0.5) / np.sqrt(2 * np.pi))):
    job = DensityJob(model=d2, G=F, phi=Constant(1.0), r_grid=(1.0,), n=200_000,
                     seed=13, estimator="divergence")
    curve = estimate_density(job)["divergence"]
    print(f"  {F.name:>13}: {curve.estimates[0]:.5f} +- {curve.stderrs[0]:.5f}"
          f" vs exact {exact:.5f} | flags: {', '.join(curve.flags) or '(none)'}")
