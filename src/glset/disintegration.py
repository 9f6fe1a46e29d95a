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
alone: each chunk keeps its G values, the values of every bin weight that
is not a constant (8 bytes per row each) and the stable sort of its G
values (2 bytes per row).  After the pass the edges come from a values-only
sort, and each chunk's rows are binned through its own sort, so no n-row
sort order is built; :attr:`EmpiricalDisintegration.order` makes one when
asked.  :func:`conditional_vs_surface` reads the bin sums and adds one pass
of the same stream, :func:`surface_side_plan`, for the surface side of all
of its levels; that plan can share its pass with the disintegration's
(:func:`~glset.density.run_plans`), and :func:`compare_with_surface` reads
the two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .density import PassResult, Plan, Query, density_route, stream_plan
from .functionals import Constant, Functional, check_finite, stable_argsort
from .model import CHUNK_ROW, GaussianModel, chunk_layout


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

    ``start`` delimits bins in the samples sorted by G-value, so bin j's
    particle indices are ``order[start[j]:start[j+1]]``.  Weights sum to one
    exactly and every sample lies in exactly one bin.  ``binned`` holds the
    :class:`BinSums` of every weight, in order.
    """

    model: GaussianModel
    G: Functional
    edges: np.ndarray
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

    @functools.cached_property
    def order(self) -> np.ndarray:
        """The stable sort of the samples by G-value, made on first use."""
        return stable_argsort(self.g_values)[0]

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
    local = np.empty(n, dtype=CHUNK_ROW)  # each chunk's stable sort of its G values

    def worker(index, pts):
        rows = slice(bounds[index], bounds[index + 1])
        g = check_finite(G.value(pts), "G", G.name)
        g_values[rows] = g
        local[rows] = stable_argsort(g)[0]
        for phi, out in zip(held, values):
            out[rows] = check_finite(phi.value(pts), "phi", phi.name)

    def finish(_):
        # the edges, then each chunk's bins through its own sort: a bin starts
        # after the values below its lower edge, counted per chunk
        edges = _edges(g_values, bins, scheme)
        start = np.zeros(bins + 1, dtype=np.intp)
        parts = [[] for _ in phis]  # per weight, per chunk: (sums, sumsq, total)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pos, labels = _chunk_bins(g_values[lo:hi], local[lo:hi], edges)
            start += pos
            columns = iter(values)
            for phi, out in zip(phis, parts):
                v = (check_finite(np.full(hi - lo, phi.c), "phi", phi.name)
                     if isinstance(phi, Constant) else next(columns)[lo:hi])
                out.append((np.bincount(labels, weights=v, minlength=bins),
                            np.bincount(labels, weights=v * v, minlength=bins),
                            float(np.sum(v))))
        start[-1] = n  # the top bin keeps the max
        return EmpiricalDisintegration(model=model, G=G, edges=edges, start=start,
                                       counts=np.diff(start), g_values=g_values, n=n,
                                       seed=seed, scheme=scheme,
                                       binned=[_reduce(phi.name, out)
                                               for phi, out in zip(phis, parts)])

    return Plan(model, n, seed, worker, finish)


def _edges(g_values: np.ndarray, bins: int, scheme: str) -> np.ndarray:
    """The ``bins + 1`` edges of ``scheme`` for the values in stream order."""
    if scheme == "fixed":
        return np.linspace(g_values.min(), g_values.max(), bins + 1)
    q = np.linspace(0.0, 1.0, bins + 1)
    # np.quantile is faster on sorted values, but which of -0.0 and +0.0 lands
    # on a rank depends on the input order, so zeros of both signs take the
    # values in stream order
    signs = np.signbit(g_values[g_values == 0.0])
    if signs.any() and not signs.all():
        return np.quantile(g_values, q)
    # a values-only sort, which np.quantile partitions in place
    return np.quantile(np.sort(g_values), q, overwrite_input=True)


def _chunk_bins(g: np.ndarray, order: np.ndarray, edges: np.ndarray):
    """``(pos, labels)`` of one chunk, from its G values ``g`` and their
    stable sort ``order``: ``pos[j]`` counts the values below ``edges[j]``,
    and ``labels`` is the bin of each value, the top bin taking the values
    at the top edge."""
    order = order.astype(np.intp)  # one conversion for the gather and the scatter
    pos = np.searchsorted(g[order], edges, side="left")
    sizes = np.diff(pos)
    sizes[-1] = len(g) - pos[-2]
    labels = np.empty(len(g), dtype=np.intp)
    labels[order[pos[0]:]] = np.repeat(np.arange(len(sizes)), sizes)
    return pos, labels


def _reduce(phi_name: str, parts) -> BinSums:
    """The :class:`BinSums` of per-chunk ``(sums, sumsq, total)``, reduced in
    chunk order."""
    sums, sumsq, totals = zip(*parts)
    return BinSums(phi_name=phi_name, sums=np.sum(sums, axis=0),
                   sumsq=np.sum(sumsq, axis=0), total=float(np.sum(totals)))


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
    g_sorted = np.sort(D.g_values)
    widths = np.diff(D.edges)
    occupied = np.flatnonzero(D.counts > 0)
    lo, hi = g_sorted[D.start[occupied]], g_sorted[D.start[occupied + 1] - 1]
    spans = np.zeros(D.bins)
    spans[occupied] = hi - lo
    # all zeros share one bin; when it holds nothing else, its particles in
    # stable order run from the first zero of the stream to the last, and
    # their signs give the sign of the span
    only_zeros = (lo == 0.0) & (hi == 0.0)
    if only_zeros.any():
        zeros = D.g_values[D.g_values == 0.0]
        spans[occupied[only_zeros]] = zeros[-1] - zeros[0]
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


def surface_side_plan(model: GaussianModel, G: Functional, n: int, seed: int,
                      phi: Functional, r_grid, estimator: str = "divergence",
                      epsilon: float | None = None) -> Plan:
    """The surface side of :func:`conditional_vs_surface` as a
    :class:`~glset.density.Plan` of the ``(model, G, n, seed)`` stream:
    ``q1`` and the surface integral of phi, by ``estimator``, at every level
    of ``r_grid``.  It finishes as a :class:`~glset.density.PassResult`, and
    it can share its pass with the :func:`disintegrate_plan` of the same
    stream."""
    route = density_route(estimator)
    return stream_plan(model, G, n, seed, r_grid,
                       [Query(Constant(1.0), route), Query(phi, route)], epsilon=epsilon)


def conditional_vs_surface(D: EmpiricalDisintegration, phi: Functional, r_grid,
                           estimator: str = "divergence",
                           epsilon: float | None = None) -> list[ConditionalSurfaceRecord]:
    """Compare ``q1(r) E[phi | G in bin(r)]`` with the surface integral of phi
    at every level r of ``r_grid``, one record per level.

    The conditional side is read off phi's :class:`BinSums` in ``D.binned``;
    the surface side is the :func:`surface_side_plan` of D's
    ``(model, G, n, seed)`` stream, run alone after the levels are checked.
    """
    plan = surface_side_plan(D.model, D.G, D.n, D.seed, phi, r_grid, estimator, epsilon)
    _levels(D, phi, r_grid)
    return compare_with_surface(D, phi, r_grid, plan.run())


def _levels(D: EmpiricalDisintegration, phi: Functional, r_grid):
    """phi's :class:`BinSums` and ``(r, bin of r)`` for every level."""
    binned = next((b for b in D.binned if b.phi_name == phi.name), None)
    if binned is None:
        raise ValueError(f"{phi.name!r} is not a bin weight of the disintegration")
    return binned, [(float(r), D.bin_of(r)) for r in r_grid]


def compare_with_surface(D: EmpiricalDisintegration, phi: Functional, r_grid,
                         surface: PassResult) -> list[ConditionalSurfaceRecord]:
    """The records of :func:`conditional_vs_surface` from D and the finished
    :func:`surface_side_plan` of phi at ``r_grid`` on D's stream."""
    binned, levels = _levels(D, phi, r_grid)
    q1s, surfs = surface.results
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
