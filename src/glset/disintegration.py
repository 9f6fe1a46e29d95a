"""Empirical disintegration of the Gaussian measure along a functional.

Binning samples by their G-value gives a particle representation of the
conditional measures: bin j carries the samples with G in ``[edge_j,
edge_{j+1})`` and weight ``count_j / n``, an empirical version of the
image-measure mass of the bin.  The tower identity (total mean = weighted
sum of conditional means) holds to reduction-order accuracy with shared
samples; the conditional measure of a thin bin around r, scaled by the
density value, approximates the surface measure there.

Empty bins are retained with zero weight and flagged, never interpolated:
conditional measures are only defined where the image measure puts mass.

Binning takes one pass over the stream for the G values;
:meth:`EmpiricalDisintegration.bin_sums` takes one more for the per-bin sums
of any number of weights, and every conditional quantity, including the
conditional side of :func:`conditional_vs_surface`, is read off those sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import map_chunks
from .functionals import Constant, Functional, check_finite, stable_argsort
from .model import CHUNK_SIZE, GaussianModel
from .surface import SurfaceMeasureHandle, surface_integrals


@dataclass
class BinSums:
    """Per-bin sums of a weight phi and of phi^2, and the total of phi over
    the batch.  Per-chunk sums are reduced in chunk order, so the sums do not
    depend on how many workers ran the chunks."""

    phi_name: str
    sums: np.ndarray
    sumsq: np.ndarray
    total: float


@dataclass
class EmpiricalDisintegration:
    """Particle representation of the conditional measures of mu along G.

    ``order`` sorts samples by G-value and ``start`` delimits bins inside
    it, so bin j's particle indices are ``order[start[j]:start[j+1]]``.
    Weights sum to one exactly and every sample lies in exactly one bin.
    """

    model: GaussianModel
    g_name: str
    edges: np.ndarray
    order: np.ndarray
    start: np.ndarray
    counts: np.ndarray
    g_values: np.ndarray
    n: int
    seed: int
    scheme: str

    @property
    def bins(self) -> int:
        return len(self.edges) - 1

    @property
    def weights(self) -> np.ndarray:
        return self.counts / self.n

    @property
    def empty_bins(self) -> np.ndarray:
        return np.flatnonzero(self.counts == 0)

    def bin_of(self, r: float) -> int:
        if r < self.edges[0] or r > self.edges[-1]:
            raise ValueError(f"level {r} outside the binned range")
        j = int(np.searchsorted(self.edges, r, side="right") - 1)
        return min(j, self.bins - 1)  # the top edge belongs to the last bin

    def bin_indices(self, j: int) -> np.ndarray:
        return self.order[self.start[j]:self.start[j + 1]]

    def bin_sums(self, phis) -> list[BinSums]:
        """:class:`BinSums` of every phi from one pass over the shared stream.

        Samples are assigned to bins by their stored G values, so G is not
        evaluated again.
        """
        inner = self.edges[1:-1]

        def worker(index, pts):
            start = index * CHUNK_SIZE
            bin_index = np.searchsorted(inner, self.g_values[start:start + len(pts)],
                                        side="right")
            out = []
            for phi in phis:
                pv = check_finite(np.broadcast_to(phi.value(pts), (len(pts),)),
                                  "phi", phi.name)
                out.append((np.bincount(bin_index, weights=pv, minlength=self.bins),
                            np.bincount(bin_index, weights=pv * pv,
                                        minlength=self.bins),
                            float(np.sum(pv))))
            return out

        chunks = map_chunks(self.model, self.n, self.seed, worker)
        return [BinSums(phi_name=phi.name,
                        sums=np.sum([c[i][0] for c in chunks], axis=0),
                        sumsq=np.sum([c[i][1] for c in chunks], axis=0),
                        total=float(np.sum([c[i][2] for c in chunks])))
                for i, phi in enumerate(phis)]

    def conditional_means(self, binned: BinSums) -> np.ndarray:
        """Per-bin means; NaN on empty bins (no conditional measure there)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.counts > 0, binned.sums / self.counts, np.nan)


def disintegrate(model: GaussianModel, G: Functional, n: int, seed: int,
                 bins: int, scheme: str = "quantile") -> EmpiricalDisintegration:
    """Bin n samples by G-value into conditional measures.

    ``quantile`` bins (the default) hold near-equal counts; ``fixed`` bins
    split the empirical range evenly.
    """
    if bins < 2:
        raise ValueError("need at least two bins")
    if n < bins:
        raise ValueError("need at least one sample per bin")
    if scheme not in ("quantile", "fixed"):
        raise ValueError(f"unknown binning scheme {scheme!r}")
    g_values = np.concatenate(map_chunks(model, n, seed, lambda i, pts: G.value(pts)))
    check_finite(g_values, "G", G.name)

    order = stable_argsort(g_values)
    g_sorted = g_values[order]
    if scheme == "quantile":
        # np.quantile reads order statistics, which sorting keeps, and is
        # faster on sorted input; but which of -0.0 and +0.0 lands on a rank
        # depends on the input order, so mixed zero signs take the unsorted
        # values
        zeros = np.signbit(g_sorted[np.searchsorted(g_sorted, 0.0, side="left"):
                                    np.searchsorted(g_sorted, 0.0, side="right")])
        mixed_zeros = zeros.any() and not zeros.all()
        edges = np.quantile(g_values if mixed_zeros else g_sorted,
                            np.linspace(0.0, 1.0, bins + 1))
    else:
        edges = np.linspace(g_values.min(), g_values.max(), bins + 1)
    # interior edges split [edge_j, edge_{j+1}); the top bin keeps the max
    start = np.empty(bins + 1, dtype=np.intp)
    start[0] = 0
    start[-1] = n
    start[1:-1] = np.searchsorted(g_sorted, edges[1:-1], side="left")
    counts = np.diff(start)
    return EmpiricalDisintegration(model=model, g_name=G.name, edges=edges,
                                   order=order, start=start, counts=counts,
                                   g_values=g_values, n=n, seed=seed,
                                   scheme=scheme)


@dataclass
class TowerRecord:
    """Weighted conditional means against the plain mean, shared samples."""

    phi_name: str
    weighted_sum: float
    plain_mean: float

    @property
    def abs_error(self) -> float:
        return abs(self.weighted_sum - self.plain_mean)

    @property
    def rel_error(self) -> float:
        return self.abs_error / max(1.0, abs(self.plain_mean))


def verify_disintegration(D: EmpiricalDisintegration, binned: BinSums) -> TowerRecord:
    """Check ``E[phi] = sum_j weight_j E[phi | bin j]`` on shared samples,
    from the sums of one :meth:`EmpiricalDisintegration.bin_sums` pass."""
    cond = D.conditional_means(binned)
    occupied = D.counts > 0
    weighted = float(np.sum(D.weights[occupied] * cond[occupied]))
    return TowerRecord(phi_name=binned.phi_name, weighted_sum=weighted,
                       plain_mean=binned.total / D.n)


@dataclass
class SupportRecord:
    """In-bin spread of G per bin, against the bin widths."""

    widths: np.ndarray
    in_bin_range: np.ndarray
    max_excess: float

    @property
    def contained(self) -> bool:
        return self.max_excess <= 0.0


def support_check(D: EmpiricalDisintegration) -> SupportRecord:
    """The particles of each bin span at most the bin width (by construction)."""
    g_sorted = D.g_values[D.order]
    widths = np.diff(D.edges)
    spans = np.zeros(D.bins)
    for j in range(D.bins):
        lo, hi = D.start[j], D.start[j + 1]
        if hi > lo:
            spans[j] = g_sorted[hi - 1] - g_sorted[lo]
    excess = float(np.max(spans - widths)) if D.bins else 0.0
    return SupportRecord(widths=widths, in_bin_range=spans, max_excess=excess)


@dataclass
class ConditionalSurfaceRecord:
    """Conditional-measure route against the surface-measure route at level r.

    ``q1 * E[phi | G in bin(r)]`` should match the surface integral of phi
    up to Monte Carlo error plus an O(bin width) discretization allowance.
    ``unresolved`` marks an empty bin: no conditional measure to compare.
    """

    phi_name: str
    r: float
    bin_index: int
    bin_width: float
    conditional_mean: float
    q1: float
    product: float
    surface_value: float
    band: float
    unresolved: bool = False

    @property
    def difference(self) -> float:
        return self.product - self.surface_value

    @property
    def within_band(self) -> bool:
        return self.unresolved or abs(self.difference) <= self.band


def conditional_vs_surface(D: EmpiricalDisintegration, h: SurfaceMeasureHandle,
                           phi: Functional, binned: BinSums) -> ConditionalSurfaceRecord:
    """Compare ``q1(r) E[phi | G in bin(r)]`` with the surface integral of phi.

    The conditional side is read off ``binned``, the :class:`BinSums` of phi
    from :meth:`EmpiricalDisintegration.bin_sums`, so the bin sums of one
    pass serve every level; the surface side (``q1`` and the integral of
    phi) is one pass of the handle.
    """
    if binned.phi_name != phi.name:
        raise ValueError(f"bin sums are of {binned.phi_name!r}, not of {phi.name!r}")
    j = D.bin_of(h.r)
    width = float(D.edges[j + 1] - D.edges[j])
    cond = D.conditional_means(binned)
    (q1, q1_se), (surf, surf_se) = surface_integrals(h, [Constant(1.0), phi])
    if D.counts[j] == 0:
        return ConditionalSurfaceRecord(
            phi_name=phi.name, r=h.r, bin_index=j, bin_width=width,
            conditional_mean=np.nan, q1=q1, product=np.nan, surface_value=surf,
            band=np.nan, unresolved=True)
    cm = float(cond[j])
    # population variance of phi in the bin, as np.std computes it
    var = max(float(binned.sumsq[j]) / D.counts[j] - cm * cm, 0.0)
    cm_se = float(np.sqrt(var / D.counts[j]))
    # discretization allowance: local slope of the conditional mean times
    # the half width, from neighboring occupied bins
    lo, hi = max(j - 1, 0), min(j + 1, D.bins - 1)
    slope = 0.0
    if hi > lo and D.counts[lo] > 0 and D.counts[hi] > 0:
        mids = 0.5 * (D.edges[:-1] + D.edges[1:])
        denom = mids[hi] - mids[lo]
        if denom > 0 and np.isfinite(cond[hi]) and np.isfinite(cond[lo]):
            slope = (cond[hi] - cond[lo]) / denom
    allowance = abs(slope) * width / 2.0 * max(q1, 0.0)
    product_se = np.hypot(q1 * cm_se, cm * q1_se)
    band = 4.0 * float(np.hypot(product_se, surf_se)) + allowance
    return ConditionalSurfaceRecord(
        phi_name=phi.name, r=h.r, bin_index=j, bin_width=width,
        conditional_mean=cm, q1=q1, product=q1 * cm, surface_value=surf,
        band=band)
