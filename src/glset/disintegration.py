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

:func:`disintegrate` makes one pass, its :func:`disintegrate_plan` run
alone: each chunk keeps its G values and the values of every bin weight
that is not a constant (8 bytes per row each); edges and per-bin sums
follow the pass.  :func:`conditional_vs_surface` reads those sums and adds
one pass of the same stream for the surface side of all of its levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import Plan, Query, stream_pass
from .functionals import Constant, Functional, check_finite, stable_argsort
from .model import GaussianModel, chunk_layout


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
    ``binned`` holds the :class:`BinSums` of every weight, in order.
    """

    model: GaussianModel
    G: Functional
    edges: np.ndarray
    order: np.ndarray
    start: np.ndarray
    counts: np.ndarray
    g_values: np.ndarray
    n: int
    seed: int
    scheme: str
    binned: list[BinSums]

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

    def conditional_means(self, binned: BinSums) -> np.ndarray:
        """Per-bin means; NaN on empty bins (no conditional measure there)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.counts > 0, binned.sums / self.counts, np.nan)


def disintegrate(model: GaussianModel, G: Functional, n: int, seed: int,
                 bins: int, phis=(), scheme: str = "quantile") -> EmpiricalDisintegration:
    """Bin n samples by G-value into conditional measures, with the
    :class:`BinSums` of every weight in ``phis``, from one pass.

    ``quantile`` bins (the default) hold near-equal counts; ``fixed`` bins
    split the empirical range evenly.  Weights must have distinct names,
    which key their sums.
    """
    return disintegrate_plan(model, G, n, seed, bins, phis, scheme).run()


def disintegrate_plan(model: GaussianModel, G: Functional, n: int, seed: int,
                      bins: int, phis=(), scheme: str = "quantile") -> Plan:
    """The :class:`~glset.density.Plan` of :func:`disintegrate`; its
    arguments are checked when the plan is made."""
    if bins < 2:
        raise ValueError("need at least two bins")
    if n < bins:
        raise ValueError("need at least one sample per bin")
    if scheme not in ("quantile", "fixed"):
        raise ValueError(f"unknown binning scheme {scheme!r}")
    if len({phi.name for phi in phis}) < len(phis):
        raise ValueError("bin weights must have distinct names")
    # chunks write into arrays of the whole pass: kept chunk blocks fragment the
    # heap; a constant weight's values are made per chunk after the pass
    bounds = np.cumsum([0] + [size for _, size in chunk_layout(n)])
    held = [phi for phi in phis if not isinstance(phi, Constant)]
    g_values, values = np.empty(n), np.empty((len(held), n))

    def worker(index, pts):
        rows = slice(bounds[index], bounds[index + 1])
        g_values[rows] = check_finite(G.value(pts), "G", G.name)
        for phi, out in zip(held, values):
            out[rows] = check_finite(phi.value(pts), "phi", phi.name)

    def finish(_):
        # the edges and per-bin sums, from the values the workers wrote
        order, g_sorted = stable_argsort(g_values)
        if scheme == "quantile":
            # np.quantile is faster on sorted values, but which of -0.0 and +0.0
            # lands on a rank depends on the input order, so zeros of both signs
            # take the values in stream order
            q = np.linspace(0.0, 1.0, bins + 1)
            signs = np.signbit(g_values[g_values == 0.0])
            if signs.any() and not signs.all():
                edges = np.quantile(g_values, q)
            else:
                # a copy for np.quantile would be a fifth n-row array at once,
                # so it partitions the sorted values, and they are gathered
                # back in place (mode="clip" is unbuffered; order is a
                # permutation)
                edges = np.quantile(g_sorted, q, overwrite_input=True)
                np.take(g_values, order, out=g_sorted, mode="clip")
        else:
            edges = np.linspace(g_values.min(), g_values.max(), bins + 1)
        # interior edges split [edge_j, edge_{j+1}); the top bin keeps the max
        start = np.searchsorted(g_sorted, edges, side="left")
        start[-1] = n
        del g_sorted  # freed before the bin index takes its place
        # each sample's bin, in stream order, from its place in the sort
        bin_index = np.empty(n, dtype=np.intp)
        for j in range(bins):
            bin_index[order[start[j]:start[j + 1]]] = j
        binned, columns = [], iter(values)
        for phi in phis:
            pv = None if isinstance(phi, Constant) else next(columns)
            sums, sumsq, totals = [], [], []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                v = (check_finite(np.full(hi - lo, phi.c), "phi", phi.name) if pv is None
                     else pv[lo:hi])
                sums.append(np.bincount(bin_index[lo:hi], weights=v, minlength=bins))
                sumsq.append(np.bincount(bin_index[lo:hi], weights=v * v, minlength=bins))
                totals.append(float(np.sum(v)))
            binned.append(BinSums(phi_name=phi.name, sums=np.sum(sums, axis=0),
                                  sumsq=np.sum(sumsq, axis=0), total=float(np.sum(totals))))
        return EmpiricalDisintegration(model=model, G=G, edges=edges, order=order,
                                       start=start, counts=np.diff(start),
                                       g_values=g_values, n=n, seed=seed,
                                       scheme=scheme, binned=binned)

    return Plan(model, n, seed, worker, finish)


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
    from the :class:`BinSums` of phi."""
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
    occupied = D.counts > 0
    spans = np.zeros(D.bins)
    spans[occupied] = g_sorted[D.start[1:][occupied] - 1] - g_sorted[D.start[:-1][occupied]]
    excess = float(np.max(spans - widths)) if D.bins else 0.0
    return SupportRecord(widths=widths, in_bin_range=spans, max_excess=excess)


@dataclass
class ConditionalSurfaceRecord:
    """Conditional-measure route against the surface-measure route at level r.

    ``q1 * E[phi | G in bin(r)]`` should match the surface integral of phi
    up to Monte Carlo error plus an O(bin width) discretization allowance.
    ``unresolved`` marks an empty bin, with no conditional measure to
    compare, or a band that is not finite (one chunk gives NaN stderrs); an
    unresolved record never fails the band.
    ``flags`` are those of the ``q1`` and surface curves it reads.
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
    flags: tuple[str, ...] = ()

    @property
    def difference(self) -> float:
        return self.product - self.surface_value

    @property
    def within_band(self) -> bool:
        return self.unresolved or abs(self.difference) <= self.band


def conditional_vs_surface(D: EmpiricalDisintegration, phi: Functional, r_grid,
                           estimator: str = "divergence",
                           epsilon: float | None = None) -> list[ConditionalSurfaceRecord]:
    """Compare ``q1(r) E[phi | G in bin(r)]`` with the surface integral of phi
    at every level r of ``r_grid``, one record per level.

    The conditional side is read off phi's :class:`BinSums` in ``D.binned``;
    the surface side (``q1`` and the integral of phi, by ``estimator``) is
    one pass of D's ``(model, G, n, seed)`` stream for all the levels.
    """
    if estimator not in ("divergence", "mollified"):
        raise ValueError(f"estimator must be divergence or mollified, got {estimator!r}")
    binned = next((b for b in D.binned if b.phi_name == phi.name), None)
    if binned is None:
        raise ValueError(f"{phi.name!r} is not a bin weight of the disintegration")
    levels = [(float(r), D.bin_of(r)) for r in r_grid]
    q1s, surfs = stream_pass(D.model, D.G, D.n, D.seed, r_grid,
                             [Query(Constant(1.0), estimator), Query(phi, estimator)],
                             epsilon=epsilon).results
    flags = tuple(dict.fromkeys(q1s.flags + surfs.flags))
    cond = D.conditional_means(binned)
    mids = 0.5 * (D.edges[:-1] + D.edges[1:])
    records = []
    for (r, j), q1, q1_se, surf, surf_se in zip(
            levels, q1s.estimates.tolist(), q1s.stderrs.tolist(),
            surfs.estimates.tolist(), surfs.stderrs.tolist()):
        width = float(D.edges[j + 1] - D.edges[j])
        level = dict(phi_name=phi.name, r=r, bin_index=j, bin_width=width, q1=q1,
                     surface_value=surf, flags=flags)
        if D.counts[j] == 0:
            records.append(ConditionalSurfaceRecord(
                **level, conditional_mean=np.nan, product=np.nan, band=np.nan,
                unresolved=True))
            continue
        cm = float(cond[j])
        # population variance of phi in the bin, as np.std computes it
        var = max(float(binned.sumsq[j]) / D.counts[j] - cm * cm, 0.0)
        cm_se = float(np.sqrt(var / D.counts[j]))
        # discretization allowance: local slope of the conditional mean times
        # the half width, from neighboring occupied bins
        lo, hi = max(j - 1, 0), min(j + 1, D.bins - 1)
        slope = 0.0
        if hi > lo and D.counts[lo] > 0 and D.counts[hi] > 0:
            denom = mids[hi] - mids[lo]
            if denom > 0 and np.isfinite(cond[hi]) and np.isfinite(cond[lo]):
                slope = (cond[hi] - cond[lo]) / denom
        allowance = abs(slope) * width / 2.0 * max(q1, 0.0)
        product_se = np.hypot(q1 * cm_se, cm * q1_se)
        band = 4.0 * float(np.hypot(product_se, surf_se)) + allowance
        records.append(ConditionalSurfaceRecord(
            **level, conditional_mean=cm, product=q1 * cm, band=band,
            unresolved=not np.isfinite(band)))
    return records
