"""Surface measures on level sets, realized through the density functional.

The surface measure at level r is never materialized as points: integrating
a test function phi against it IS evaluating the density ``q_phi(r)``, so a
:class:`SurfaceMeasureHandle` is just (G, r) plus the estimator
configuration, and every surface operation reduces to density estimates plus
deterministic oracles.  Each operation is a set of weight columns of one
:func:`~glset.density.stream_pass`, so every entry point below draws the
``(model, G, n, seed)`` stream once, and :func:`surface_report` answers all
of its queries from a single pass:

* integration-by-parts residuals compare the sublevel integral of
  ``D_k phi - xi_k phi`` with the surface integral of ``phi D_k G``,
* traces of continuous test functions are realized as restrictions, checked
  through a clamped approximating sequence,
* on spheres and hyperplanes the measure has a closed geometric form
  (Gaussian-weighted Hausdorff measure over ``|D_H G|``), evaluated here by
  Gauss-Legendre / Gauss-Hermite product quadrature as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import DensityCurve, PassResult, Query, stream_pass
from .functionals import (Constant, Functional, Linear, Norm2, Product,
                          ProductWithPartial, RadialClamp)
from .model import GaussianModel

QUAD_NODES = 64
TRACE_LEVELS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class SurfaceMeasureHandle:
    """Access to the surface measure of G at level r through an estimator.

    All integrals computed through one handle share the sample stream, so
    ``integral(1)`` equals the total mass estimate exactly.  The stream is
    drawn once per :meth:`stream_pass`, whatever the number of weights.
    """

    model: GaussianModel
    G: Functional
    r: float
    n: int
    seed: int
    estimator: str = "divergence"
    epsilon: float | None = None

    def __post_init__(self):
        if self.estimator not in ("divergence", "mollified"):
            raise ValueError(f"handle estimator must be divergence or mollified, "
                             f"got {self.estimator!r}")

    def stream_pass(self, queries) -> PassResult:
        """Answer every query at level r from one pass over the stream."""
        return stream_pass(self.model, self.G, self.n, self.seed, (float(self.r),),
                           queries, epsilon=self.epsilon)


def surface_integral_curve(h: SurfaceMeasureHandle, phi: Functional) -> DensityCurve:
    return h.stream_pass([Query(phi, h.estimator)]).results[0]


def _value(curve: DensityCurve):
    return float(curve.estimates[0]), float(curve.stderrs[0])


def surface_integral(h: SurfaceMeasureHandle, phi: Functional):
    """``integral of phi d sigma_r = q_phi(r)``; returns (value, stderr)."""
    return _value(surface_integral_curve(h, phi))


# ----------------------------- integration by parts -----------------------------

@dataclass
class IbpRecord:
    """Both sides of the level-r integration-by-parts identity for (phi, k)."""

    phi_name: str
    k: int
    r: float
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs

    @property
    def combined_stderr(self) -> float:
        return float(np.hypot(self.lhs_stderr, self.rhs_stderr))

    @property
    def band(self) -> float:
        """Four combined standard errors; the acceptance envelope."""
        return 4.0 * self.combined_stderr

    @property
    def within_band(self) -> bool:
        return abs(self.residual) <= self.band


class _IbpSublevel(Functional):
    """``D_k phi - xi_k phi``: the sublevel-side integrand of the
    integration-by-parts identity for (phi, k)."""

    def __init__(self, phi: Functional, k: int):
        self.phi = phi
        self.k = k
        self.name = f"D{k}({phi.name}) - xi({k})*({phi.name})"

    def value(self, xi):
        return (self.phi.gradient(xi)[:, self.k - 1]
                - xi[:, self.k - 1] * self.phi.value(xi))


def _ibp_columns(model, G, pairs, route) -> list[Query]:
    """Both sides of every (phi, k) identity as columns of one pass."""
    for _, k in pairs:
        if k < 1 or k > model.dim:
            raise IndexError(f"direction {k} out of range 1..{model.dim}")
    return [q for phi, k in pairs for q in (Query(_IbpSublevel(phi, k), "cdf"),
                                            Query(ProductWithPartial(phi, G, k), route))]


def _ibp_records(pairs, results) -> list[IbpRecord]:
    """Records of the :func:`_ibp_columns` of ``pairs``, read two at a time off
    the ``results`` iterator, which is left at the first result after them."""
    return [IbpRecord(phi_name=phi.name, k=k, r=float(r), lhs=float(l),
                      lhs_stderr=float(ls), rhs=float(rv), rhs_stderr=float(rs))
            for (phi, k), (lhs, lhs_se), rhs in zip(pairs, results, results)
            for r, l, ls, rv, rs in zip(rhs.r, lhs, lhs_se, rhs.estimates, rhs.stderrs)]


def ibp_battery(model: GaussianModel, G: Functional, phis, k_list, r_grid, n: int,
                seed: int, estimator: str = "divergence",
                epsilon: float | None = None) -> list[IbpRecord]:
    """Residuals of ``E[1_{G<r}(D_k phi - xi_k phi)] = int phi D_kG d sigma_r``
    for every phi, k and grid level, in that order, all from one pass."""
    pairs = [(phi, k) for phi in phis for k in k_list]
    res = stream_pass(model, G, n, seed, r_grid,
                      _ibp_columns(model, G, pairs, estimator), epsilon=epsilon)
    return _ibp_records(pairs, iter(res.results))


def ibp_residuals(model: GaussianModel, G: Functional, phi: Functional, k: int,
                  r_grid, n: int, seed: int, estimator: str = "divergence",
                  epsilon: float | None = None) -> list[IbpRecord]:
    """:func:`ibp_battery` of the one pair (phi, k)."""
    return ibp_battery(model, G, [phi], [k], r_grid, n, seed, estimator, epsilon)


def ibp_residual(h: SurfaceMeasureHandle, phi: Functional, k: int) -> IbpRecord:
    """Single-level integration-by-parts residual through a handle."""
    return ibp_battery(h.model, h.G, [phi], [k], (h.r,), h.n, h.seed, h.estimator,
                       h.epsilon)[0]


# ----------------------------- traces -----------------------------

@dataclass
class TraceReport:
    """Convergence of clamped truncations ``phi_m = phi * clamp_m`` to phi.

    Continuous test functions trace to their restriction on the level set,
    so the surface integrals of the truncations must approach the surface
    integral of phi itself; once the clamp saturates on every sample the
    difference is sample-exactly zero.
    """

    phi_name: str
    r: float
    target: float
    target_stderr: float
    levels: tuple[float, ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    diffs: tuple[float, ...]

    @property
    def converged(self) -> bool:
        band = 4.0 * float(np.hypot(self.target_stderr, self.stderrs[-1]))
        return abs(self.diffs[-1]) <= band

    @property
    def exact_tail(self) -> bool:
        return self.diffs[-1] == 0.0


def _trace_queries(phi: Functional, route) -> list[Query]:
    return [Query(Product(phi, RadialClamp(m)), route) for m in TRACE_LEVELS]


def _trace_report(h, phi, target: DensityCurve, clamped) -> TraceReport:
    target, target_se = _value(target)
    values = [_value(c) for c in clamped]
    return TraceReport(phi_name=phi.name, r=h.r, target=target,
                       target_stderr=target_se, levels=TRACE_LEVELS,
                       estimates=tuple(est for est, _ in values),
                       stderrs=tuple(se for _, se in values),
                       diffs=tuple(abs(est - target) for est, _ in values))


def trace_eval(h: SurfaceMeasureHandle, phi: Functional) -> TraceReport:
    target, *clamped = h.stream_pass(
        [Query(phi, h.estimator)] + _trace_queries(phi, h.estimator)).results
    return _trace_report(h, phi, target, clamped)


# ----------------------------- positivity interval -----------------------------

@dataclass
class PositivityReport:
    """Where the total-mass density is detectably positive along a grid.

    The density of the image measure is positive exactly strictly between
    the essential bounds of G; the report flags interior grid points that
    are not detectably positive and exterior points that are.
    """

    r: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    g_min: float
    g_max: float
    interior_not_positive: tuple[float, ...]
    exterior_positive: tuple[float, ...]
    estimator: str

    @property
    def consistent(self) -> bool:
        return not self.interior_not_positive and not self.exterior_positive


def positivity_scan(model: GaussianModel, G: Functional, r_grid, n: int, seed: int,
                    estimator: str = "divergence",
                    epsilon: float | None = None) -> PositivityReport:
    res = stream_pass(model, G, n, seed, r_grid, [Query(Constant(1.0), estimator)],
                      epsilon=epsilon)
    curve, g_min, g_max = res.results[0], res.g_min, res.g_max

    interior_bad, exterior_bad = [], []
    for r, est, se in zip(curve.r, curve.estimates, curve.stderrs):
        positive = est > 4.0 * se
        if g_min < r < g_max and not positive:
            interior_bad.append(float(r))
        elif (r <= g_min or r >= g_max) and positive:
            exterior_bad.append(float(r))
    return PositivityReport(r=curve.r, estimates=curve.estimates,
                            stderrs=curve.stderrs, g_min=g_min, g_max=g_max,
                            interior_not_positive=tuple(interior_bad),
                            exterior_positive=tuple(exterior_bad),
                            estimator=estimator)


# ----------------------------- Hausdorff oracle -----------------------------

def _gl_nodes(a: float, b: float, m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def unit_sphere_grid(d: int, nodes: int = QUAD_NODES):
    """Product quadrature grid on the unit sphere in R^d.

    Returns (points, weights) with ``sum(weights)`` the sphere area.  The
    grid has ``2`` points for d=1 and ``nodes^(d-1)`` otherwise; callers
    wanting d > 4 should iterate :func:`sphere_blocks` instead of holding
    the product in memory.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        th, w = _gl_nodes(0.0, 2.0 * np.pi, nodes)
        return np.stack([np.cos(th), np.sin(th)], axis=1), w
    sub_pts, sub_w = unit_sphere_grid(d - 1, nodes)
    th, w = _gl_nodes(0.0, np.pi, nodes)
    m = len(sub_w)
    pts = np.empty((nodes * m, d))
    pts[:, 0] = np.repeat(np.cos(th), m)
    pts[:, 1:] = np.repeat(np.sin(th), m)[:, None] * np.tile(sub_pts, (nodes, 1))
    weights = np.repeat(w * np.sin(th) ** (d - 2), m) * np.tile(sub_w, nodes)
    return pts, weights


def sphere_blocks(d: int, nodes: int = QUAD_NODES):
    """Yield (points, weights) blocks covering the unit sphere in R^d.

    The grid on the sphere in R^min(d, 4) is built once; each outer angle
    beyond it scales that one block.
    """
    yield from _lifted_blocks(d, nodes, unit_sphere_grid(min(d, 4), nodes))


def _lifted_blocks(d, nodes, base):
    if d <= 4:
        yield base
        return
    th, w = _gl_nodes(0.0, np.pi, nodes)
    for i in range(nodes):
        for sub_pts, sub_w in _lifted_blocks(d - 1, nodes, base):
            pts = np.empty((len(sub_w), d))
            pts[:, 0] = np.cos(th[i])
            pts[:, 1:] = np.sin(th[i]) * sub_pts
            yield pts, w[i] * np.sin(th[i]) ** (d - 2) * sub_w


def sphere_quadrature(phi: Functional, d: int, r: float,
                      nodes: int = QUAD_NODES) -> float:
    """Surface integral of phi against sigma_r for ``G = norm2``.

    On the sphere of radius sqrt(r) the measure is the Gaussian-weighted
    Hausdorff measure divided by ``|D_H G| = 2 sqrt(r)``, all constant:
    ``(2 pi)^(-d/2) exp(-r/2) / (2 sqrt(r)) * surface integral of phi``.
    """
    if r <= 0:
        raise ValueError("sphere level must be positive")
    R = np.sqrt(r)
    const = (2.0 * np.pi) ** (-d / 2.0) * np.exp(-r / 2.0) / (2.0 * R)
    total = 0.0
    for pts, w in sphere_blocks(d, nodes):
        total += float(np.sum(w * phi.value(R * pts)))
    return const * R ** (d - 1) * total


def _householder_complement(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the unit vector u."""
    d = len(u)
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = e1 - u
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.eye(d)[:, 1:]
    v /= nv
    H = np.eye(d) - 2.0 * np.outer(v, v)
    return H[:, 1:]


def hyperplane_blocks(dim_free: int, nodes: int = QUAD_NODES):
    """Yield (y, w) blocks for the standard Gaussian integral over R^dim_free.

    Gauss-Hermite with the probabilists' substitution: sum of
    ``w * f(y)`` approximates ``integral f(y) (2 pi)^(-k/2) e^(-|y|^2/2) dy``.
    """
    t, wt = np.polynomial.hermite.hermgauss(nodes)
    y1 = np.sqrt(2.0) * t
    w1 = wt / np.sqrt(np.pi)
    if dim_free == 0:
        yield np.zeros((1, 0)), np.ones(1)
        return
    inner = min(dim_free, 3)
    grids = np.meshgrid(*([y1] * inner), indexing="ij")
    pts_inner = np.stack([g.ravel() for g in grids], axis=1)
    w_inner = np.prod(np.stack(np.meshgrid(*([w1] * inner), indexing="ij"), axis=0),
                      axis=0).ravel()
    outer = dim_free - inner
    if outer == 0:
        yield pts_inner, w_inner
        return
    for idx in np.ndindex(*(nodes,) * outer):
        y_out = np.array([y1[i] for i in idx])
        w_out = float(np.prod([w1[i] for i in idx]))
        pts = np.empty((len(w_inner), dim_free))
        pts[:, :outer] = y_out
        pts[:, outer:] = pts_inner
        yield pts, w_out * w_inner


def hyperplane_quadrature(phi: Functional, weights: np.ndarray, d: int, r: float,
                          nodes: int = QUAD_NODES) -> float:
    """Surface integral of phi against sigma_r for linear ``G = w . xi``.

    The level set is the hyperplane ``{w . xi = r}``; the measure is the
    (d-1)-dimensional Gaussian there, scaled by the normal-direction density
    and divided by the constant gradient norm ``|w|``.
    """
    w = np.zeros(d)
    w[: len(weights)] = weights
    wn = np.linalg.norm(w)
    if wn == 0.0:
        raise ValueError("hyperplane quadrature needs a nonzero linear functional")
    u = w / wn
    base = (r / wn) * u
    U = _householder_complement(u)
    normal_density = np.exp(-0.5 * (r / wn) ** 2) / np.sqrt(2.0 * np.pi)
    total = 0.0
    for y, wq in hyperplane_blocks(d - 1, nodes):
        pts = base[None, :] + y @ U.T
        total += float(np.sum(wq * phi.value(pts)))
    return normal_density / wn * total


@dataclass
class HausdorffRecord:
    """Monte Carlo surface integral against its deterministic quadrature value."""

    g_name: str
    phi_name: str
    r: float
    geometry: str
    mc_value: float
    mc_stderr: float
    quad_value: float
    nodes: int

    @property
    def abs_error(self) -> float:
        return abs(self.mc_value - self.quad_value)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.quad_value), 1e-300)
        return self.abs_error / scale

    @property
    def within_tolerance(self) -> bool:
        """Relative error within max(1%, 4 relative standard errors)."""
        scale = max(abs(self.quad_value), 1e-300)
        return self.rel_error <= max(0.01, 4.0 * self.mc_stderr / scale)


def quadrature_issue(G: Functional, d: int) -> str | None:
    """Why the quadrature oracle cannot take the level sets of G in dimension
    d, or None: it knows spheres (norm2) and hyperplanes (nonzero linear G)."""
    if d > 6:
        return f"quadrature oracle supports dim <= 6, model has {d}"
    if not (isinstance(G, Norm2) or isinstance(G, Linear) and G.weights.any()):
        return (f"no quadrature oracle for G={G.name!r}; G must be norm2 | "
                "bm_endpoint | coordinate(k) | linear(...) with a nonzero weight")
    return None


def _quadrature(h: SurfaceMeasureHandle, phi: Functional, nodes: int):
    """(geometry, value) of the weighted Hausdorff form of the handle's level
    set."""
    d = h.model.dim
    issue = quadrature_issue(h.G, d)
    if issue:
        raise ValueError(issue)
    if isinstance(h.G, Norm2):
        return "sphere", sphere_quadrature(phi, d, h.r, nodes)
    return "hyperplane", hyperplane_quadrature(phi, h.G.weights, d, h.r, nodes)


def _hausdorff_record(h, phi, nodes, quadrature, curve: DensityCurve) -> HausdorffRecord:
    geometry, quad = quadrature
    mc, mc_se = _value(curve)
    return HausdorffRecord(g_name=h.G.name, phi_name=phi.name, r=h.r,
                           geometry=geometry, mc_value=mc, mc_stderr=mc_se,
                           quad_value=quad, nodes=nodes)


def hausdorff_compare(h: SurfaceMeasureHandle, phi: Functional,
                      nodes: int = QUAD_NODES) -> HausdorffRecord:
    """Compare a surface integral with exact quadrature of the weighted
    Hausdorff form; only spheres (norm2) and hyperplanes (linear G)."""
    quadrature = _quadrature(h, phi, nodes)
    return _hausdorff_record(h, phi, nodes, quadrature, surface_integral_curve(h, phi))


# ----------------------------- aggregate report -----------------------------

@dataclass
class SurfaceReport:
    """Everything measured about one surface measure handle."""

    r: float
    g_name: str
    n: int
    seed: int
    estimator: str
    total_mass: float
    total_mass_stderr: float
    excluded_fraction: float
    integrals: dict = field(default_factory=dict)
    ibp: list = field(default_factory=list)
    trace: TraceReport | None = None
    hausdorff: HausdorffRecord | None = None
    flags: tuple[str, ...] = ()


def surface_report(h: SurfaceMeasureHandle, phis: list[Functional],
                   k_list=(), with_trace=False, with_hausdorff=False) -> SurfaceReport:
    """Total mass, the integral of every phi, the IBP residual of every
    (phi, k), the trace of the first phi and the Hausdorff comparison of the
    first phi (or of 1), all from one pass over the handle's stream."""
    route = h.estimator
    mass = Constant(1.0)
    first = phis[0] if phis else mass
    quadrature = _quadrature(h, first, QUAD_NODES) if with_hausdorff else None
    pairs = [(phi, k) for phi in phis for k in k_list]
    traced = with_trace and bool(phis)
    queries = [Query(phi, route) for phi in [mass, *phis]]
    queries += _ibp_columns(h.model, h.G, pairs, route)
    if traced:
        queries += _trace_queries(first, route)

    results = iter(h.stream_pass(queries).results)
    mass_curve = next(results)
    curves = [next(results) for _ in phis]
    total_mass, total_mass_stderr = _value(mass_curve)
    report = SurfaceReport(
        r=h.r, g_name=h.G.name, n=h.n, seed=h.seed, estimator=route,
        total_mass=total_mass, total_mass_stderr=total_mass_stderr,
        excluded_fraction=mass_curve.excluded_fraction, flags=mass_curve.flags)
    for phi, curve in zip(phis, curves):
        report.integrals[phi.name] = _value(curve)
    report.ibp = _ibp_records(pairs, results)
    first_curve = curves[0] if phis else mass_curve
    if traced:
        report.trace = _trace_report(h, first, first_curve, list(results))
    if with_hausdorff:
        report.hausdorff = _hausdorff_record(h, first, QUAD_NODES, quadrature,
                                             first_curve)
    return report
