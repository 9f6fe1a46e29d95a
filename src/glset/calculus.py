"""H-differential calculus: the kernel field ``psi = D_H G / |D_H G|^2``
and the Hill tail check of ``1/|D_H G|``.

The H-gradient itself is :meth:`~glset.functionals.Functional.gradient`.

In whitened coordinates the Gaussian divergence of a field Psi is

    div_mu Psi = sum_k (D_k psi_k - xi_k psi_k),

the negative formal adjoint of the H-gradient.  For the kernel field of a
functional G the divergence expands, writing g = grad G, H = Hessian and
S = |g|^2, to the composite form

    div_mu psi = (lap G - xi.g) / S - 2 (g^T H g) / S^2,

which needs one fewer differentiation level than differentiating psi
directly and is what the density estimators evaluate, one batch at a time,
through :meth:`KernelField.divergence`.  The Hessian enters only through the
scalar ``g^T H g``, which it asks of G as ``G.hess(xi, g, g)``: a value-only
G pays 2 new values for it, the ray sides ``G(xi +- t g/|g|)``.  Rows with
``|D_H G| < GRADIENT_FLOOR`` are excluded from it and counted.

The construction asks that ``1/|D_H G|`` be integrable; the divergence
integrand, of order ``|D_H G|^-2``, has finite variance when the fourth
moment of ``1/|D_H G|`` is finite.  A density
pass keeps the :func:`hill_k` + 1 smallest gradient norms: each chunk's
worker folds the smallest of its own (:func:`smallest_norms`) into one tail
of that size as it finishes.  From that tail the pass estimates the tail
index of ``1/|D_H G|`` (:func:`hill_tail_index`) and flags its divergence
curves ``variance unreliable`` when that index says the fourth moment
diverges (:func:`moment_diverging`).
"""

from __future__ import annotations

import numpy as np

from .functionals import Functional, check_finite, rowsum

# Rows whose |D_H G| falls below this are excluded from every divergence pass.
GRADIENT_FLOOR = 1e-12


class KernelField:
    """The field ``psi = D_H G / |D_H G|^2`` with the gradient-norm floor.

    Rows where ``|D_H G| < GRADIENT_FLOOR`` cannot be evaluated stably; they
    are excluded and counted.  Every pass excludes by this rule.
    """

    def __init__(self, G: Functional):
        self.G = G

    @staticmethod
    def excluded(grad_norm2):
        """Rows whose squared gradient norm is below the squared floor."""
        return grad_norm2 < GRADIENT_FLOOR * GRADIENT_FLOOR

    def divergence(self, xi, g, s):
        """Composite-formula divergence over a batch, given the gradient ``g``
        of G at ``xi`` and its row-wise squared norm ``s``.

        Returns ``(values, excluded)``; excluded rows carry 0 and are counted
        by the caller.
        """
        excluded = self.excluded(s)
        lap = self.G.laplacian(xi)
        quad = self.G.hess(xi, g, g)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (lap - rowsum(xi * g)) / s - 2.0 * quad / (s * s)
        val = np.where(excluded, 0.0, val)
        check_finite(val[~excluded] if excluded.any() else val,
                     "kernel divergence", self.G.name)
        return val, excluded


# ----------------------------- tail diagnostics -----------------------------

def hill_tail_index(smallest_gnorms: np.ndarray) -> float:
    """Tail index of ``1/|D_H G|`` from the k+1 smallest gradient norms.

    Hill estimator on the upper order statistics of ``X = 1/|grad|``:
    ``alpha = k / sum_i log(X_(i) / X_(k+1))``.  ``inf`` means no detectable
    power tail (e.g. constant gradients); values <= q mean the q-th inverse
    moment diverges.
    """
    g = np.sort(np.asarray(smallest_gnorms, dtype=float))
    if len(g) < 3:
        return np.inf
    k = len(g) - 1
    if g[0] <= 0.0:
        return 0.0
    logs = np.log(g[k] / g[:k])
    s = float(np.sum(logs))
    if s <= 0.0:
        return np.inf
    return k / s


def smallest_norms(norms: np.ndarray, k: int) -> np.ndarray:
    """The k + 1 smallest (or all) of ``norms``: a chunk's or a pass's tail sample.

    The result owns its at most k + 1 values; a slice of the partitioned
    copy would keep the whole chunk-sized buffer alive with the tail.
    """
    keep = min(len(norms), k + 1)
    return np.partition(norms, keep - 1)[:keep].copy() if keep else norms.copy()


# Divergence is declared when the estimated tail index sits at or below the
# moment order, with a margin for estimator noise and boundary (log) cases.
HILL_MARGIN = 1.15


def hill_k(n: int) -> int:
    """Order statistics behind the tail index of an n-row density pass."""
    return max(100, min(2000, n // 100))


def moment_diverging(hill_alpha: float, q: float) -> bool:
    return hill_alpha <= HILL_MARGIN * q
