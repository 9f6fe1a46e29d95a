"""
H-gradients, the Gaussian divergence, and the kernel field
==========================================================

The Gaussian divergence div_mu Psi = sum_k (D_k psi_k - xi_k psi_k) has zero
mean under the model, and applied to the kernel field psi = grad G/|grad G|^2
it generates densities of image measures.  Whether that works for a given G
is an integrability question, and the hypothesis diagnostics make failures
visible instead of silent.
"""

import numpy as np

from glset import (ConstantField, IdentityField, KernelField, Norm2, build_model,
                   divergence_mu, hypothesis_diagnostics, sample)

model = build_model(("iid_gaussian", 5))
xi = sample(model, 200_000, seed=11)

# the H-gradient of the squared norm is 2 xi
G = Norm2()
print("H-gradient of norm2 at (1,1,1,1,1):", G.gradient(np.ones((1, 5)))[0])

# div_mu of a constant field v_1 is -xi_1; of the identity field, d - |xi|^2
const = divergence_mu(ConstantField([1, 0, 0, 0, 0]), xi[:5])
print("div_mu(v_1) vs -xi_1:", np.allclose(const, -xi[:5, 0]))

ident = divergence_mu(IdentityField(), xi)
print("mean div_mu(identity) over 2e5 samples:",
      round(float(ident.mean()), 5), "(zero-mean property)")

# kernel divergence of norm2 in closed form: (d-2)/(2S) - 1/2; rows whose
# gradient norm is below GRADIENT_FLOOR are excluded and counted
g = G.gradient(xi)
S = np.sum(xi * xi, axis=1)
kd, excluded = KernelField(G).divergence(xi, g, np.sum(g * g, axis=1))
print("kernel divergence matches (d-2)/(2S) - 1/2:",
      np.allclose(kd, 3 / (2 * S) - 0.5), "| excluded:", int(excluded.sum()))

# moment diagnostics: d=5 has integrable inverse gradient norms ...
rep5 = hypothesis_diagnostics(Norm2(), model, 500_000, seed=13)
print("\nd=5 diagnostics:", rep5.summary())
print("   E|grad|^-2 should be 1/12 =", round(1 / 12, 5))

# ... while d=2 does not: the tail index of 1/|grad| equals d, so inverse
# moments of order >= 2 diverge and the divergence estimator is untrustworthy
d2 = build_model(("iid_gaussian", 2))
rep2 = hypothesis_diagnostics(Norm2(), d2, 500_000, seed=13)
print("d=2 diagnostics:", rep2.summary())
print("   variance unreliable:", rep2.variance_unreliable)
