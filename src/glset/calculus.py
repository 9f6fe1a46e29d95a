"""H-differential calculus: the Gaussian divergence, the kernel field
``psi = D_H G / |D_H G|^2`` and the moment diagnostics of ``|D_H G|``.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functionals import Functional, VectorField, check_finite, rowsum
from .model import GaussianModel

# Rows whose |D_H G| falls below this are excluded from every divergence pass.
GRADIENT_FLOOR = 1e-12


def divergence_mu(field: VectorField, xi):
    """Gaussian divergence ``sum_k (D_k psi_k - xi_k psi_k)`` at a point or batch."""
    batch = np.atleast_2d(np.asarray(xi, dtype=float))
    comp = field.components(batch)
    diag = field.jacobian_diag(batch)
    div = rowsum(diag) - rowsum(batch * comp)
    return float(div[0]) if np.asarray(xi).ndim == 1 else div


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
    """The k + 1 smallest (or all) of ``norms``: a chunk's or a pass's tail sample."""
    keep = min(len(norms), k + 1)
    return np.partition(norms, keep - 1)[:keep] if keep else norms


# Divergence is declared when the estimated tail index sits at or below the
# moment order, with a margin for estimator noise and boundary (log) cases.
HILL_MARGIN = 1.15


def hill_k(n: int) -> int:
    """Order statistics behind the tail index of an n-row pass, in a density
    pass and in :func:`hypothesis_diagnostics` alike."""
    return max(100, min(2000, n // 100))


def moment_diverging(hill_alpha: float, q: float) -> bool:
    return hill_alpha <= HILL_MARGIN * q


@dataclass
class InverseMomentDiag:
    q: float
    estimate: float
    stderr: float
    diverging: bool


@dataclass
class HypothesisReport:
    """Monte Carlo moment diagnostics for the kernel-field hypothesis.

    The analytic sufficient condition asks for Sobolev regularity of G plus
    an integrable inverse gradient norm; neither has a finite-sample
    certificate, so this report estimates the configured moments of
    ``|D_H G|`` and flags inverse moments whose tail index says they do not
    exist.  ``variance_unreliable`` is the consumer-facing summary: the
    divergence-estimator integrand has infinite variance when the fourth
    inverse moment diverges.
    """

    g_name: str
    n: int
    seed: int
    pos_moments: dict = field(default_factory=dict)
    inv_moments: dict = field(default_factory=dict)
    hill_alpha: float = np.inf
    hill_k: int = 0
    floor_exclusions: int = 0

    @property
    def variance_unreliable(self) -> bool:
        diag = self.inv_moments.get(4)
        return diag.diverging if diag is not None else False

    def summary(self) -> str:
        parts = [f"G={self.g_name}", f"n={self.n}", f"hill_alpha={self.hill_alpha:.3g}"]
        for q, diag in sorted(self.inv_moments.items()):
            tag = "diverging" if diag.diverging else f"{diag.estimate:.6g}"
            parts.append(f"E|grad|^-{q}={tag}")
        if self.variance_unreliable:
            parts.append("variance unreliable")
        return "  ".join(parts)


# Inverse moment orders q of |D_H G|^-q that a hypothesis report estimates;
# the fourth decides ``variance_unreliable``.
INVERSE_ORDERS = (1, 2, 4)


def hypothesis_diagnostics(G: Functional, model: GaussianModel, n: int,
                           seed: int) -> HypothesisReport:
    """Estimate moments of ``|D_H G|`` and flag diverging inverse moments.

    One :func:`~glset.density.map_chunks` pass.  Each chunk returns its
    :class:`KernelField` floor exclusions, its sums of ``|D_H G|^a`` over all
    samples and of ``|D_H G|^-q`` (q in :data:`INVERSE_ORDERS`) and its
    square over the samples above the floor, and the :func:`hill_k` + 1
    smallest norms above the floor.  Chunk results are reduced in chunk
    order, so the report does not depend on ``GLSET_THREADS``.
    """
    from .density import map_chunks  # density imports this module

    pos_orders = (1, 2)
    k_hill = hill_k(n)

    def worker(index, pts):
        g = G.gradient(pts)
        s = rowsum(g * g)
        gnorm = np.sqrt(s)
        check_finite(gnorm, "gradient norm", G.name)
        excluded = KernelField.excluded(s)
        live = gnorm[~excluded] if excluded.any() else gnorm
        bottom = smallest_norms(live, k_hill)
        pos = {a: float(np.sum(gnorm ** float(a))) for a in pos_orders}
        inv = {}
        for q in INVERSE_ORDERS:
            with np.errstate(divide="ignore", over="ignore"):
                x = live ** (-float(q))
            inv[q] = (float(np.sum(x)), float(np.sum(x * x)))
        return int(np.count_nonzero(excluded)), len(live), bottom, pos, inv

    excl, live_counts, bottoms, pos, inv = zip(*map_chunks(model, n, seed, worker))
    alpha = hill_tail_index(smallest_norms(np.concatenate(bottoms), k_hill))
    pos_sums = dict.fromkeys(pos_orders, 0.0)
    for chunk_pos in pos:
        for a in pos_orders:
            pos_sums[a] += chunk_pos[a]
    n_live = sum(live_counts)
    inv_moments = {}
    for q in INVERSE_ORDERS:
        if n_live:
            est = float(np.sum([c[q][0] for c in inv])) / n_live
            var = float(np.sum([c[q][1] for c in inv])) / n_live - est * est
            se = np.sqrt(max(var, 0.0) / n_live)
        else:
            est = se = np.nan
        inv_moments[q] = InverseMomentDiag(q=q, estimate=est, stderr=se,
                                           diverging=moment_diverging(alpha, q))
    return HypothesisReport(
        g_name=G.name, n=n, seed=seed,
        pos_moments={a: pos_sums[a] / n for a in pos_orders},
        inv_moments=inv_moments, hill_alpha=alpha, hill_k=k_hill,
        floor_exclusions=sum(excl))
