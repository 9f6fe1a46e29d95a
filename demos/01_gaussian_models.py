"""
Gaussian models and whitened sampling
=====================================

Every model lives in whitened coordinates: sampling returns standard normal
rows, and the covariance spectrum only enters when a point is rendered back
into its ambient space.
"""

import numpy as np

from glset import build_model, render_path, sample, vhat

# an i.i.d. model is just a standard Gaussian in d dimensions
iid = build_model(("iid_gaussian", 3))
batch = sample(iid, 100_000, seed=7)
print(f"{iid.label}: sample shape {batch.shape}")
print("coordinate means:", np.round(batch.mean(axis=0), 4))
print("coordinate vars: ", np.round(batch.var(axis=0), 4))

# sampling is counter-based: the same (seed, n) always gives the same batch,
# chunk by chunk
again = sample(iid, 100_000, seed=7)
print("bit-identical resample:", np.array_equal(batch, again))

# vhat_k is the k-th whitened coordinate, whatever the spectrum is
p = np.array([0.5, -1.0, 2.0])
print("vhat_1, vhat_3 at (0.5, -1, 2):", vhat(iid, 1, p), vhat(iid, 3, p))

# a Karhunen-Loeve truncation of Brownian motion: eigenvalues decay like
# 1/((k - 1/2)^2 pi^2) and points render as paths on [0, 1]
kl = build_model(("kl_brownian", 16))
print(f"\n{kl.label}: first eigenvalues", np.round(kl.spectrum[:4], 5))
print("truncated endpoint variance:", round(float(np.sum(2 * kl.spectrum)), 5),
      "(the full series sums to 1)")

xi = sample(kl, 3, seed=1)
times = np.linspace(0, 1, 9)
paths = render_path(kl, xi, times)
print("\nthree sampled paths on a coarse grid:")
for i, path in enumerate(paths):
    print(f"  path {i}:", np.round(path, 3))

# the endpoint variance is visible in a larger sample
big = sample(kl, 200_000, seed=2)
endpoint = render_path(kl, big, times=[1.0])[:, 0]
print("\nempirical var of B(1):", round(float(endpoint.var()), 4),
      "vs truncated", round(float(np.sum(2 * kl.spectrum)), 4))
