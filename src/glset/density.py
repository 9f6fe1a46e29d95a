"""Monte Carlo estimation of sublevel integrals and image-measure densities.

For a functional G and weight phi, the engine estimates

* ``F_phi(r) = E[phi 1_{G<r}]`` (the weighted sublevel CDF), and
* the density ``q_phi(r)`` of the signed measure ``phi mu o G^-1`` by two
  independent routes:

  divergence route
      ``q_phi(r) = E[ 1_{G<r} (phi * div_mu psi + <grad phi, psi>) ]`` with
      ``psi = grad G / |grad G|^2``; exact in expectation, needs first and
      second derivatives of G.

  mollified route
      symmetric difference quotient ``(F_phi(r+eps) - F_phi(r-eps)) / 2 eps``
      on shared samples; needs only values, carries an O(eps^2) smoothing
      bias.

One sample stream is reused for every grid point, estimator and weight
(common random numbers): :func:`stream_pass` answers a list of
:class:`Query` columns (divergence, mollified or the sublevel integral
``F_phi``) in a single pass, which makes monotonicity in r and linearity in
phi hold sample-exactly; :func:`estimate_density` runs the estimators of a
:class:`DensityJob` as such a pass.  Per-chunk partial sums are collected
into arrays indexed by chunk and reduced in fixed order, so results do not
depend on how many workers ran the chunks.  Standard errors come from batch
means over chunks.

Every pass of the library is a :class:`Plan`: its row count n, a worker per
chunk and a finish on the workers' results.  :func:`run_plans` makes one
pass of the ``(model, seed)`` stream for one or several plans, as long as
the largest, and hands each plan the first rows of every chunk it reads,
which are the rows its own pass would draw; ``plan.run()`` is that pass for
the plan alone.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .calculus import KernelField, hill_k, hill_tail_index, moment_diverging, smallest_norms
from .functionals import (Constant, Functional, buffer_pool, check_finite, chunk_scope,
                          keep_buffers, rowsum, stable_argsort)
from .model import GaussianModel, chunk_layout, draw_chunk

VARIANCE_UNRELIABLE = "variance unreliable"
INSUFFICIENT_BATCHES = "insufficient-batches"


def thread_count() -> int:
    """Chunk workers per pass: ``GLSET_THREADS``, a positive integer, default 1."""
    text = os.environ.get("GLSET_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"GLSET_THREADS must be a positive integer, got {text!r}")
    return workers


def map_chunks(model: GaussianModel, n: int, seed: int, worker):
    """Run ``worker(index, points)`` over every chunk; results in index order.

    GLSET_THREADS caps concurrent workers; the result list is identical for
    any worker count because chunks are generated from per-index substreams
    and stored by index.  Each thread reuses its finite-difference
    perturbation buffers across the chunks it runs
    (:func:`~glset.functionals.buffer_pool`) and drops them when the pass
    ends.  No chunk memo is opened here: :func:`run_plans` opens each one
    (:func:`~glset.functionals.chunk_scope`)."""
    layout = chunk_layout(n)

    def job(item):
        index, size = item
        return worker(index, draw_chunk(model, seed, index, size))

    workers = thread_count()
    if workers == 1 or len(layout) == 1:
        with buffer_pool():
            return [job(item) for item in layout]
    # a pool thread keeps its buffers until it ends, with the pass
    with ThreadPoolExecutor(max_workers=workers, initializer=keep_buffers) as pool:
        return list(pool.map(job, layout))


@dataclass(frozen=True)
class Plan:
    """One stream pass as data: ``n`` rows of the ``(model, seed)`` stream,
    ``worker(index, points)`` per chunk and ``finish(results)`` on the
    workers' results in chunk order."""

    model: GaussianModel
    n: int
    seed: int
    worker: Callable
    finish: Callable

    def run(self):
        """The pass alone: :func:`run_plans` of this plan only."""
        return run_plans([self])[0]()

    def then(self, after: Callable) -> Plan:
        """The same pass, finished by ``after(finish(results))``."""
        return dataclasses.replace(self, finish=lambda results: after(self.finish(results)))


def run_plans(plans) -> list:
    """One pass for plans that share a ``(model, seed)`` stream.

    A :func:`map_chunks` over the largest n hands each plan, for every
    ``(i, size)`` of its own :func:`~glset.model.chunk_layout`, the first
    ``size`` rows of chunk i: a chunk's rows are a prefix of any longer
    chunk of the same index, so each plan sees the rows, and gives the bits,
    of its own pass.  Each plan's worker runs in a
    :func:`~glset.functionals.chunk_scope` of exactly the array it gets, the
    only chunk memo the library opens, so its memo hits on a partial last
    chunk and is never another plan's.

    Returns one function per plan, in order, that gives ``plan.finish`` of
    its results or raises the error of its first failing chunk; a failing
    plan skips its later chunks and the other plans go on, and the pass
    stops at a chunk that no plan reads.  An error of the pass itself fails
    every plan.
    """
    model, seed = plans[0].model, plans[0].seed
    if any(plan.model != model or plan.seed != seed for plan in plans):
        raise ValueError("plans of one pass must share the model and the seed")
    layouts = [chunk_layout(plan.n) for plan in plans]
    results = [[None] * len(layout) for layout in layouts]
    failed = [None] * len(plans)  # (chunk index, error) of the first failing chunk
    lock = threading.Lock()

    def failed_before(j, index):
        return failed[j] is not None and failed[j][0] < index

    def worker(index, pts):
        if all(failed_before(j, index) for j in range(len(plans))):
            raise _Abandoned  # and so would every later chunk
        for j, (plan, layout) in enumerate(zip(plans, layouts)):
            if index >= len(layout) or failed_before(j, index):
                continue
            rows = _prefix(pts, layout[index][1])
            try:
                with chunk_scope(rows):
                    results[j][index] = plan.worker(index, rows)
            except Exception as e:
                with lock:
                    if failed[j] is None or index < failed[j][0]:
                        failed[j] = (index, e)

    try:
        map_chunks(model, max(plan.n for plan in plans), seed, worker)
    except _Abandoned:
        pass
    except Exception as e:
        failed = [(-1, e)] * len(plans)
    return [functools.partial(_finish, plan, res, fail)
            for plan, res, fail in zip(plans, results, failed)]


def _prefix(pts: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` rows of a chunk: those of a pass of ``size`` rows there."""
    return pts if size == pts.shape[0] else pts[:size]


class _Abandoned(Exception):
    """Ends a pass once every plan has failed at an earlier chunk."""


def _finish(plan: Plan, results: list, failed):
    if failed is not None:
        raise failed[1]
    return plan.finish(results)


def batch_mean_stderr(sums: np.ndarray, counts: np.ndarray):
    """Mean and batch-means standard error from (J, R) per-chunk sums.

    The estimate is total/n and the error comes from the spread of chunk
    means, which stays usable when the integrand is heavy tailed.  With a
    single chunk the stderr is NaN.
    """
    sums = np.asarray(sums, dtype=float)
    counts = np.asarray(counts, dtype=float)[:, None]
    n = counts.sum()
    J = len(counts)
    mean = sums.sum(axis=0) / n
    if J < 2:
        return mean, np.full_like(mean, np.nan)
    dev = sums / counts - mean
    sigma2 = np.sum(counts * dev * dev, axis=0) / (J - 1)
    return mean, np.sqrt(sigma2 / n)


def _grid(r_grid) -> np.ndarray:
    r = np.asarray(r_grid, dtype=float)
    if r.size == 0:
        raise ValueError("r_grid must be nonempty")
    if not np.all(np.isfinite(r)):
        raise ValueError("r_grid must be finite")
    if np.any(np.diff(r) <= 0):
        raise ValueError("r_grid must be strictly increasing")
    return r


@dataclass(frozen=True)
class DensityJob:
    """One density-curve estimation task (model, G, phi, grid, budget)."""

    model: GaussianModel
    G: Functional
    phi: Functional
    r_grid: tuple[float, ...]
    n: int
    seed: int
    epsilon: float | None = None
    estimator: str = "both"

    def __post_init__(self):
        _grid(self.r_grid)
        if self.epsilon is not None and not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.estimator not in ("divergence", "mollified", "both"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass
class DensityCurve:
    """Estimated density values on a grid, with uncertainty and provenance."""

    r: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    estimator: str
    excluded_fraction: float
    n: int
    seed: int
    epsilon: float | None = None
    window_counts: np.ndarray | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.estimates) != len(self.r):
            raise ValueError("curve length must equal grid length")

    @property
    def unresolved(self) -> np.ndarray:
        """Mollified grid points whose window caught no samples."""
        if self.window_counts is None:
            return np.zeros(len(self.r), dtype=bool)
        return self.window_counts == 0


def default_bandwidth(model: GaussianModel, G: Functional, n: int, seed: int) -> float:
    """Mollification width ``max(0.01, 2 IQR(G) n^(-1/3))``.

    The IQR is taken over the first sample chunk (enough for a bandwidth);
    the n^(-1/3) factor uses the full job size.
    """
    pts = draw_chunk(model, seed, *chunk_layout(n)[0])
    gv = check_finite(G.value(pts), "G", G.name)
    q25, q75 = np.quantile(gv, [0.25, 0.75])
    return float(max(0.01, 2.0 * (q75 - q25) * n ** (-1.0 / 3.0)))


ROUTES = ("divergence", "mollified", "cdf")


@dataclass(frozen=True)
class Query:
    """One weight column of a stream pass: ``phi`` reduced along ``route``.

    ``divergence`` and ``mollified`` give the :class:`DensityCurve` of
    ``phi mu o G^-1`` on the pass grid; ``cdf`` gives the sublevel integrals
    ``E[phi 1_{G<r}]`` as ``(estimates, stderrs)``.
    """

    phi: Functional
    route: str

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown query route {self.route!r}")


@dataclass
class PassResult:
    """What one stream pass measured: query results in query order, plus the
    sample range of G."""

    results: list
    g_min: float
    g_max: float


@dataclass
class _ChunkStats:
    """Per-chunk partial sums of one stream pass, one column per query."""

    count: int
    g_min: float
    g_max: float
    columns: list = field(default_factory=list)
    moll_counts: np.ndarray | None = None
    excl: int = 0


def _prefix_sums(weights):
    """``[0, w_0, w_0 + w_1, ...]``; indexed by ``searchsorted`` positions in
    the sorted values this gives sums over ``{values < edge}``, exactly
    monotone in the edge when weights are nonnegative."""
    return np.concatenate([[0.0], np.cumsum(weights)])


def stream_pass(model: GaussianModel, G: Functional, n: int, seed: int, r_grid,
                queries, epsilon: float | None = None) -> PassResult:
    """Answer every query from one pass over the ``(model, n, seed)`` stream:
    the :func:`stream_plan` run alone."""
    return stream_plan(model, G, n, seed, r_grid, queries, epsilon).run()


def stream_plan(model: GaussianModel, G: Functional, n: int, seed: int, r_grid,
                queries, epsilon: float | None = None) -> Plan:
    """The :class:`Plan` of :func:`stream_pass`; it finishes as a
    :class:`PassResult`.

    Per chunk the work that depends on G alone is done once: its values and
    their stable sort, and when a divergence query is present the gradient,
    the kernel divergence with its exclusion mask and the Hill tail sample.
    Each worker folds the ``hill_k(n) + 1`` smallest norms of its chunk into
    the pass's one tail of that size under a lock; the tail is the same
    multiset in any fold order, so no chunk keeps norms past its worker.
    Each distinct weight is evaluated once per chunk, and a divergence
    query's cross term ``grad phi . grad G`` is ``phi.jvp(pts, grad)``.  For
    an integration-by-parts weight, ``Product(phi, D_k G)``, the product
    rule asks ``G.hess(pts, k - 1, grad)``, the one Hessian entry it needs: a
    value-only G reads the ray sides the kernel's ``g^T H g`` kept and adds
    2 values per distinct k (``2d + 3 + 2m`` calls per chunk for m distinct
    k, ``2d + 3`` without a weight of that kind).  Each query then builds
    its own integrand and prefix sums, and its own ``(chunks, grid)`` array
    is reduced by :func:`batch_mean_stderr`, so a query gives the same bits
    alone or alongside others.  Mollified queries use ``epsilon``, by default
    :func:`default_bandwidth`.
    """
    r = _grid(r_grid)
    routes = {q.route for q in queries}
    want_div = "divergence" in routes
    if epsilon is not None and not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    if "mollified" in routes and epsilon is None:
        epsilon = default_bandwidth(model, G, n, seed)
    kernel = KernelField(G) if want_div else None
    tail_k = hill_k(n)
    tail = np.empty(0)
    tail_lock = threading.Lock()

    def worker(index, pts):
        nonlocal tail
        gv = check_finite(G.value(pts), "G", G.name)
        order, gs = stable_argsort(gv)
        st = _ChunkStats(pts.shape[0], float(gs[0]), float(gs[-1]))
        idx = np.searchsorted(gs, r, side="left")
        if "mollified" in routes:
            lo_idx = np.searchsorted(gs, r - epsilon, side="left")
            hi_idx = np.searchsorted(gs, r + epsilon, side="left")
            st.moll_counts = hi_idx - lo_idx
        if want_div:
            grad = G.gradient(pts)
            s = rowsum(grad * grad)
            kd, excluded = kernel.divergence(pts, grad, s)
            st.excl = int(np.count_nonzero(excluded))
            norms = smallest_norms(np.sqrt(s)[~excluded], tail_k)
            with tail_lock:
                tail = smallest_norms(np.concatenate([tail, norms]), tail_k)
        values = {}
        for q in queries:
            phi = q.phi
            if id(phi) not in values:
                values[id(phi)] = check_finite(
                    np.broadcast_to(phi.value(pts), (pts.shape[0],)), "phi", phi.name)
            pv = values[id(phi)]
            if q.route == "divergence":
                integ = pv * kd
                if not isinstance(phi, Constant):
                    with np.errstate(divide="ignore", invalid="ignore"):
                        cross = phi.jvp(pts, grad) / s
                    integ = integ + np.where(excluded, 0.0, cross)
                integ = np.where(excluded, 0.0, integ)
                check_finite(integ, "divergence integrand", G.name)
                st.columns.append(_prefix_sums(integ[order])[idx])
            else:
                cs = _prefix_sums(pv[order])
                if q.route == "cdf":
                    st.columns.append(cs[idx])
                else:
                    st.columns.append((cs[hi_idx] - cs[lo_idx]) / (2.0 * epsilon))
        return st

    def finish(stats):
        counts = np.array([st.count for st in stats], dtype=float)
        if want_div:
            excluded_fraction = int(np.sum([st.excl for st in stats])) / n
            unreliable = moment_diverging(hill_tail_index(tail), 4)
        if "mollified" in routes:
            window_counts = np.sum([st.moll_counts for st in stats], axis=0)
        # batch means need two chunks; with one the stderrs are NaN
        batch_flags = [INSUFFICIENT_BATCHES] if len(stats) < 2 else []
        results = []
        for i, q in enumerate(queries):
            est, se = batch_mean_stderr(np.array([st.columns[i] for st in stats]), counts)
            if q.route == "divergence":
                flags = list(batch_flags)
                if not (G.analytic_gradient and q.phi.analytic_gradient):
                    flags.append("approximate-gradient")
                if unreliable:
                    flags.append(VARIANCE_UNRELIABLE)
                if excluded_fraction == 1.0:  # the estimates are empty sums
                    flags.append("all-excluded")
                results.append(DensityCurve(
                    r=r, estimates=est, stderrs=se, estimator="divergence",
                    excluded_fraction=excluded_fraction, n=n, seed=seed,
                    flags=tuple(flags)))
            elif q.route == "mollified":
                unresolved = ["unresolved-bins"] if np.any(window_counts == 0) else []
                results.append(DensityCurve(
                    r=r, estimates=est, stderrs=se, estimator="mollified",
                    excluded_fraction=0.0, n=n, seed=seed, epsilon=epsilon,
                    window_counts=window_counts, flags=tuple(batch_flags + unresolved)))
            else:
                results.append((est, se))
        return PassResult(results=results, g_min=min(st.g_min for st in stats),
                          g_max=max(st.g_max for st in stats))

    return Plan(model, n, seed, worker, finish)


def estimate_density(job: DensityJob) -> dict[str, DensityCurve]:
    """The job's curves keyed by estimator (``divergence``, ``mollified`` or
    both), from one shared sample stream: the :func:`density_plan` run
    alone."""
    return density_plan(job).run()


def density_plan(job: DensityJob) -> Plan:
    """The :class:`Plan` of :func:`estimate_density`."""
    routes = [route for route in ("divergence", "mollified")
              if job.estimator in (route, "both")]
    plan = stream_plan(job.model, job.G, job.n, job.seed, job.r_grid,
                       [Query(job.phi, route) for route in routes], epsilon=job.epsilon)
    return plan.then(lambda res: dict(zip(routes, res.results)))
