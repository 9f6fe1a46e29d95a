"""Surface measures on level sets, realized through the density functional.

The surface measure at level r is never materialized as points: integrating
a test function phi against it IS evaluating the density ``q_phi(r)``, so a
:class:`SurfaceMeasureHandle` is just (G, r) plus the estimator
configuration, and every surface operation reduces to density estimates plus
deterministic oracles.  Each operation is a set of weight columns of one
:func:`~glset.density.stream_pass`: :func:`surface_report` answers every
question about one level from a single pass, :func:`ibp_battery` every
(phi, k, level) identity and :func:`positivity_scan` a whole grid.  The
first two are their :class:`~glset.density.Plan` (:func:`report_plan`,
:func:`ibp_plan`) run alone:

* integration-by-parts residuals compare the sublevel integral of
  ``D_k phi - xi_k phi`` with the surface integral of ``phi D_k G``, the
  weight ``Product(phi, _Partial(G, k))``,
* traces of continuous test functions are realized as restrictions, checked
  through a clamped approximating sequence,
* on spheres and hyperplanes the measure has a closed geometric form
  (Gaussian-weighted Hausdorff measure over ``|D_H G|``), evaluated here by
  Gauss-Legendre / Gauss-Hermite product quadrature (:func:`tensor_blocks`)
  as an independent oracle.  :func:`sphere_quadrature` and
  :func:`hyperplane_quadrature` are fixed-node rules; the oracle doubles
  their nodes per angle from 8 up to ``QUAD_NODES`` and stops at the first
  ``m`` with ``|Q_m - Q_{m/2}| <= 1e-12 A_m``, ``A_m`` the same rule applied
  to ``|phi|`` (an odd phi integrates to rounding, so ``|Q_m|`` alone is no
  scale).  The record keeps the nodes used and that last difference; a rule
  still apart at the cap is flagged ``quadrature-not-converged``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import DensityCurve, Plan, Query, density_route, stream_pass, stream_plan
from .functionals import (Constant, Functional, Linear, Norm2, Product,
                          RadialClamp)
from .model import GaussianModel

QUAD_NODES = 64
QUAD_TOL = 1e-12
QUADRATURE_NOT_CONVERGED = "quadrature-not-converged"
TRACE_LEVELS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class SurfaceMeasureHandle:
    """Access to the surface measure of G at level r through an estimator.

    All integrals of one :func:`surface_report` share the sample stream, so
    the integral of 1 equals the total mass estimate exactly.
    """

    model: GaussianModel
    G: Functional
    r: float
    n: int
    seed: int
    estimator: str = "divergence"
    epsilon: float | None = None

    def __post_init__(self):
        density_route(self.estimator)


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
    flags: tuple[str, ...]

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
    def unresolved(self) -> bool:
        """The band is not finite (a single-chunk pass gives NaN standard
        errors), so the record can neither pass nor fail it."""
        return not np.isfinite(self.band)

    @property
    def within_band(self) -> bool:
        """The residual lies in the band; an unresolved record never fails
        it, as a :class:`~glset.disintegration.ConditionalSurfaceRecord`."""
        return self.unresolved or abs(self.residual) <= self.band


class _IbpSublevel(Functional):
    """``D_k phi - xi_k phi``: the sublevel-side integrand of the
    integration-by-parts identity for (phi, k)."""

    def __init__(self, phi: Functional, k: int):
        self.phi = phi
        self.k = k
        self.name = f"D{k}({phi.name}) - xi({k})*({phi.name})"

    def value(self, xi):
        return self.phi.jvp(xi, self.k - 1) - xi[:, self.k - 1] * self.phi.value(xi)


class _Partial(Functional):
    """``D_k G``: the factor of the surface-side weight ``phi D_k G`` of the
    integration-by-parts identity for (phi, k).

    Its value is ``G.jvp(xi, k - 1)`` and its gradient the Hessian row
    ``D(D_k G)``, read entry by entry from ``G.hess(xi, k - 1, i)``.  Along
    a direction u the symmetry of the Hessian gives ``D(D_k G) . u =
    e_k^T (D^2 G) u``, so :meth:`jvp` asks ``G.hess(xi, k - 1, u)``; along
    the gradient of G a finite-difference G reuses the ray sides the kernel
    divergence took for ``g^T H g``.
    """

    def __init__(self, G: Functional, k: int):
        self.G = G
        self.k = k
        self.analytic_gradient = G.analytic_gradient
        self.min_dim = max(G.min_dim, k)
        self.name = f"D{k}({G.name})"

    def value(self, xi):
        return self.G.jvp(xi, self.k - 1)

    def gradient(self, xi):
        out = np.empty_like(xi)
        for i in range(xi.shape[1]):
            out[:, i] = self.G.hess(xi, self.k - 1, i)
        return out

    def jvp(self, xi, u):
        return self.G.hess(xi, self.k - 1, u)


def _ibp_columns(model, G, pairs, route) -> list[Query]:
    """Both sides of every (phi, k) identity as columns of one pass."""
    for _, k in pairs:
        if k < 1 or k > model.dim:
            raise IndexError(f"direction {k} out of range 1..{model.dim}")
    return [q for phi, k in pairs for q in (Query(_IbpSublevel(phi, k), "cdf"),
                                            Query(Product(phi, _Partial(G, k)), route))]


def _ibp_records(pairs, results) -> list[IbpRecord]:
    """Records of the :func:`_ibp_columns` of ``pairs``, read two at a time off
    the ``results`` iterator, which is left at the first result after them;
    each record carries the flags of its surface-side curve."""
    return [IbpRecord(phi_name=phi.name, k=k, r=float(r), lhs=float(l),
                      lhs_stderr=float(ls), rhs=float(rv), rhs_stderr=float(rs),
                      flags=rhs.flags)
            for (phi, k), (lhs, lhs_se), rhs in zip(pairs, results, results)
            for r, l, ls, rv, rs in zip(rhs.r, lhs, lhs_se, rhs.estimates, rhs.stderrs)]


def ibp_battery(model: GaussianModel, G: Functional, phis, k_list, r_grid, n: int,
                seed: int, estimator: str = "divergence",
                epsilon: float | None = None) -> list[IbpRecord]:
    """Residuals of ``E[1_{G<r}(D_k phi - xi_k phi)] = int phi D_kG d sigma_r``
    for every phi, k and grid level, in that order, all from one pass."""
    return ibp_plan(model, G, phis, k_list, r_grid, n, seed, estimator, epsilon).run()


def ibp_plan(model: GaussianModel, G: Functional, phis, k_list, r_grid, n: int,
             seed: int, estimator: str = "divergence",
             epsilon: float | None = None) -> Plan:
    """The :class:`~glset.density.Plan` of :func:`ibp_battery`."""
    pairs = [(phi, k) for phi in phis for k in k_list]
    plan = stream_plan(model, G, n, seed, r_grid,
                       _ibp_columns(model, G, pairs, density_route(estimator)),
                       epsilon=epsilon)
    return plan.then(lambda res: _ibp_records(pairs, iter(res.results)))


def ibp_residuals(model: GaussianModel, G: Functional, phi: Functional, k: int,
                  r_grid, n: int, seed: int, estimator: str = "divergence",
                  epsilon: float | None = None) -> list[IbpRecord]:
    """:func:`ibp_battery` of the one pair (phi, k)."""
    return ibp_battery(model, G, [phi], [k], r_grid, n, seed, estimator, epsilon)


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
    def band(self) -> float:
        return 4.0 * float(np.hypot(self.target_stderr, self.stderrs[-1]))

    @property
    def unresolved(self) -> bool:
        """The band is not finite (one chunk gives NaN standard errors)."""
        return not np.isfinite(self.band)

    @property
    def converged(self) -> bool:
        """Within the band, or unresolved, as an :class:`IbpRecord`."""
        return self.unresolved or abs(self.diffs[-1]) <= self.band

    @property
    def exact_tail(self) -> bool:
        return self.diffs[-1] == 0.0


# ----------------------------- positivity interval -----------------------------

@dataclass
class PositivityReport:
    """Where the total-mass density is detectably positive along a grid.

    The density of the image measure is positive exactly strictly between
    the essential bounds of G; the report flags interior grid points that
    are not detectably positive and exterior points that are.  A level
    whose stderr is not finite cannot be judged either way: it is listed in
    ``unresolved`` and never counts against :attr:`consistent`.  ``flags``
    are those of the curve it reads, which say why its stderrs may not
    bound the estimates (``insufficient-batches`` makes them NaN).
    """

    r: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    g_min: float
    g_max: float
    interior_not_positive: tuple[float, ...]
    exterior_positive: tuple[float, ...]
    estimator: str
    unresolved: tuple[float, ...] = ()
    flags: tuple[str, ...] = ()

    @property
    def consistent(self) -> bool:
        return not self.interior_not_positive and not self.exterior_positive


def positivity_scan(model: GaussianModel, G: Functional, r_grid, n: int, seed: int,
                    estimator: str = "divergence",
                    epsilon: float | None = None) -> PositivityReport:
    res = stream_pass(model, G, n, seed, r_grid,
                      [Query(Constant(1.0), density_route(estimator))], epsilon=epsilon)
    curve, g_min, g_max = res.results[0], res.g_min, res.g_max

    interior_bad, exterior_bad, unresolved = [], [], []
    for r, est, se in zip(curve.r, curve.estimates, curve.stderrs):
        if not np.isfinite(se):
            unresolved.append(float(r))
            continue
        positive = est > 4.0 * se
        if g_min < r < g_max and not positive:
            interior_bad.append(float(r))
        elif (r <= g_min or r >= g_max) and positive:
            exterior_bad.append(float(r))
    return PositivityReport(r=curve.r, estimates=curve.estimates,
                            stderrs=curve.stderrs, g_min=g_min, g_max=g_max,
                            interior_not_positive=tuple(interior_bad),
                            exterior_positive=tuple(exterior_bad),
                            estimator=estimator, unresolved=tuple(unresolved),
                            flags=curve.flags)


# ----------------------------- Hausdorff oracle -----------------------------

def _gl_nodes(a: float, b: float, m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def tensor_blocks(rules, base, lift):
    """Yield the tensor product of the 1-D rules ``(x_j, w_j)``, j = 1..k, in
    blocks of (points, weights).

    A rule's nodes extend the points of the rules after it: ``lift(x,
    pts)`` gives the points of node ``x`` (a scalar, or one node per row)
    over ``pts``, and ``base`` is the one point below the last rule.  The
    block of the last ``min(k, 3)`` rules is built once, so memory stays at
    three rules' worth of points whatever k; each block yielded lifts it by
    one combination of the leading rules' nodes, the first rule slowest.
    Point weights are ``w_1 (w_2 (... (w_{k-1} w_k)))``.
    """
    split = len(rules) - min(len(rules), 3)
    pts, w = base[None, :], np.ones(1)
    for xj, wj in reversed(rules[split:]):
        pts = lift(np.repeat(xj, len(w)), np.tile(pts, (len(xj), 1)))
        w = np.multiply.outer(wj, w).ravel()
    for idx in np.ndindex(*(len(xj) for xj, _ in rules[:split])):
        block_pts, block_w = pts, w
        for (xj, wj), i in reversed(list(zip(rules, idx))):
            block_pts, block_w = lift(xj[i], block_pts), wj[i] * block_w
        yield block_pts, block_w


def sphere_rules(d: int, nodes: int = QUAD_NODES):
    """The 1-D rules of the d - 1 angles of the unit sphere in R^d, d >= 2:
    the polar angles on [0, pi] with Jacobians ``sin^(d-2), ..., sin``, then
    the azimuth on [0, 2 pi]."""
    th, w = _gl_nodes(0.0, np.pi, nodes)
    # one scalar power per node: numpy's vectorised pow can differ from it
    # in the last bit
    polar = [(th, np.array([wi * si ** p for wi, si in zip(w, np.sin(th))]))
             for p in range(d - 2, 0, -1)]
    return polar + [_gl_nodes(0.0, 2.0 * np.pi, nodes)]


def _sphere_lift(theta, sub):
    """``(cos theta, sin theta * sub)``: sphere points one dimension up.  The
    azimuth lifts the point ``(1,)`` to the circle, each polar angle the
    sphere below it."""
    pts = np.empty((len(sub), sub.shape[1] + 1))
    pts[:, 0] = np.cos(theta)
    pts[:, 1:] = np.sin(theta)[..., None] * sub
    return pts


class _RuleValue(float):
    """The value ``const * sum w phi`` of a product rule, carrying the same
    rule's absolute mass ``const * sum w |phi|`` as ``mass``: the scale of
    its rounding error, which ``|value|`` is not when phi changes sign."""

    def __new__(cls, value: float, mass: float):
        out = super().__new__(cls, value)
        out.mass = mass
        return out


def _weighted_sums(phi: Functional, blocks):
    """``(sum w phi, sum w |phi|)`` over the ``(points, weights)`` blocks."""
    total = mass = 0.0
    for pts, w in blocks:
        v = phi.value(pts)
        total += float(np.sum(w * v))
        mass += float(np.sum(w * np.abs(v)))
    return total, mass


def sphere_quadrature(phi: Functional, d: int, r: float,
                      nodes: int = QUAD_NODES) -> float:
    """Surface integral of phi against sigma_r for ``G = norm2``, by the
    product rule of ``nodes`` nodes per angle; the value's ``mass`` is the
    same rule applied to ``|phi|``.

    On the sphere of radius sqrt(r) the measure is the Gaussian-weighted
    Hausdorff measure divided by ``|D_H G| = 2 sqrt(r)``, all constant:
    ``(2 pi)^(-d/2) exp(-r/2) / (2 sqrt(r)) * surface integral of phi``.
    """
    if not 0 < r < np.inf:
        raise ValueError("sphere level must be positive and finite")
    R = np.sqrt(r)
    const = (2.0 * np.pi) ** (-d / 2.0) * np.exp(-r / 2.0) / (2.0 * R)
    if d == 1:  # the sphere {1, -1}
        blocks = [(np.array([[R], [-R]]), 1.0)]
    else:
        const *= R ** (d - 1)
        blocks = ((R * pts, w) for pts, w in
                  tensor_blocks(sphere_rules(d, nodes), np.ones(1), _sphere_lift))
    total, mass = _weighted_sums(phi, blocks)
    return _RuleValue(const * total, const * mass)


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


def _prepend(y, sub):
    """The coordinate ``y`` in front of the points ``sub``."""
    return np.column_stack([np.broadcast_to(y, len(sub)), sub])


def hyperplane_quadrature(phi: Functional, weights: np.ndarray, d: int, r: float,
                          nodes: int = QUAD_NODES) -> float:
    """Surface integral of phi against sigma_r for linear ``G = w . xi``, by
    the product rule of ``nodes`` Gauss-Hermite nodes per direction; the
    value's ``mass`` is the same rule applied to ``|phi|``.

    The level set is the hyperplane ``{w . xi = r}``; the measure is the
    (d-1)-dimensional Gaussian there, scaled by the normal-direction density
    and divided by the constant gradient norm ``|w|``.  The Gaussian is
    integrated by Gauss-Hermite with the probabilists' substitution: the sum
    of ``w f(y)`` approximates ``integral f(y) (2 pi)^(-1/2) e^(-y^2/2) dy``.
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
    t, wt = np.polynomial.hermite.hermgauss(nodes)
    rules = [(np.sqrt(2.0) * t, wt / np.sqrt(np.pi))] * (d - 1)
    total, mass = _weighted_sums(phi, ((base[None, :] + y @ U.T, wq) for y, wq in
                                       tensor_blocks(rules, np.zeros(0), _prepend)))
    const = normal_density / wn
    return _RuleValue(const * total, const * mass)


@dataclass
class HausdorffRecord:
    """Monte Carlo surface integral against its deterministic quadrature value.

    ``flags`` are the flags of the Monte Carlo curve it reads, then
    ``quadrature-not-converged`` when the rule was still apart at
    ``QUAD_NODES`` nodes.  ``unresolved`` is a property, not a field, so the
    record's fields are those of the artifacts that hold it."""

    g_name: str
    phi_name: str
    r: float
    geometry: str
    mc_value: float
    mc_stderr: float
    quad_value: float
    nodes: int
    quad_error: float
    flags: tuple[str, ...] = ()

    @property
    def abs_error(self) -> float:
        return abs(self.mc_value - self.quad_value)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.quad_value), 1e-300)
        return self.abs_error / scale

    @property
    def tolerance(self) -> float:
        """4 standard errors plus the quadrature's last difference, relative
        to the quadrature value."""
        scale = max(abs(self.quad_value), 1e-300)
        return (4.0 * self.mc_stderr + self.quad_error) / scale

    @property
    def unresolved(self) -> bool:
        """The tolerance is not finite (a single-chunk pass gives a NaN
        standard error), so the record can neither pass nor fail."""
        return not np.isfinite(self.tolerance)

    @property
    def within_tolerance(self) -> bool:
        """Relative error within max(1%, the tolerance); an unresolved record
        never fails."""
        return self.unresolved or self.rel_error <= max(0.01, self.tolerance)


def quadrature_issue(G: Functional, d: int) -> str | None:
    """Why the quadrature oracle cannot take the level sets of G in dimension
    d, or None: it knows spheres (norm2) and hyperplanes (nonzero linear G)."""
    if d > 6:
        return f"quadrature oracle supports dim <= 6, model has {d}"
    if not (isinstance(G, Norm2) or isinstance(G, Linear) and G.weights.any()):
        return (f"no quadrature oracle for G={G.name!r}; G must be norm2 | "
                "bm_endpoint | coordinate(k) | linear(...) with a nonzero weight")
    return None


def _converge(rule):
    """``(value, nodes, difference, converged)`` of the fixed-node ``rule``
    doubled from 8 nodes: the first ``m`` whose value ``Q_m`` is within
    ``QUAD_TOL`` times its absolute mass of ``Q_{m/2}``, or ``QUAD_NODES``
    if none is; ``difference`` is the last ``|Q_m - Q_{m/2}|``."""
    nodes, prev = 8, rule(8)
    while True:
        nodes *= 2
        q = rule(nodes)
        diff = abs(q - prev)
        converged = diff <= QUAD_TOL * q.mass
        if converged or nodes >= QUAD_NODES:
            return float(q), nodes, float(diff), converged
        prev = q


def _quadrature(h: SurfaceMeasureHandle, phi: Functional) -> dict:
    """The :class:`HausdorffRecord` fields of the weighted Hausdorff form of
    the handle's level set: geometry, converged value, nodes per angle, last
    difference and flags."""
    d = h.model.dim
    issue = quadrature_issue(h.G, d)
    if issue:
        raise ValueError(issue)
    if isinstance(h.G, Norm2):
        geometry, rule = "sphere", lambda m: sphere_quadrature(phi, d, h.r, m)
    else:
        geometry = "hyperplane"
        rule = lambda m: hyperplane_quadrature(phi, h.G.weights, d, h.r, m)
    value, nodes, diff, converged = _converge(rule)
    return dict(geometry=geometry, quad_value=value, nodes=nodes, quad_error=diff,
                flags=() if converged else (QUADRATURE_NOT_CONVERGED,))


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


def _value(curve: DensityCurve):
    """(value, stderr) of a one-level curve."""
    return float(curve.estimates[0]), float(curve.stderrs[0])


def surface_report(h: SurfaceMeasureHandle, phis: list[Functional],
                   k_list=(), with_trace=False, with_hausdorff=False) -> SurfaceReport:
    """Total mass, the integral of every phi, the IBP residual of every
    (phi, k), the trace of the first phi and the Hausdorff comparison of the
    first phi (or of 1), all from one pass over the handle's stream.

    Weights must have distinct names, which key ``integrals``.  A level set
    without a quadrature oracle raises ``ValueError`` before the pass when
    ``with_hausdorff`` is set; a quadrature that has not converged at
    ``QUAD_NODES`` nodes adds its flag to the report's.
    """
    return report_plan(h, phis, k_list, with_trace, with_hausdorff).run()


def report_plan(h: SurfaceMeasureHandle, phis: list[Functional], k_list=(),
                with_trace=False, with_hausdorff=False) -> Plan:
    """The :class:`~glset.density.Plan` of :func:`surface_report`; the
    checks and the quadrature oracle run when the plan is made."""
    if len({phi.name for phi in phis}) < len(phis):
        raise ValueError("surface weights must have distinct names")
    route = h.estimator
    mass = Constant(1.0)
    first = phis[0] if phis else mass
    quadrature = _quadrature(h, first) if with_hausdorff else None
    quad_flags = quadrature.pop("flags") if with_hausdorff else ()
    pairs = [(phi, k) for phi in phis for k in k_list]
    traced = with_trace and bool(phis)
    queries = [Query(phi, route) for phi in [mass, *phis]]
    queries += _ibp_columns(h.model, h.G, pairs, route)
    if traced:
        queries += [Query(Product(first, RadialClamp(m)), route) for m in TRACE_LEVELS]

    def finish(res) -> SurfaceReport:
        results = iter(res.results)
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
        value, stderr = _value(first_curve)
        if traced:
            clamped = [_value(c) for c in results]
            report.trace = TraceReport(
                phi_name=first.name, r=h.r, target=value, target_stderr=stderr,
                levels=TRACE_LEVELS, estimates=tuple(est for est, _ in clamped),
                stderrs=tuple(se for _, se in clamped),
                diffs=tuple(abs(est - value) for est, _ in clamped))
        if with_hausdorff:
            report.hausdorff = HausdorffRecord(
                g_name=h.G.name, phi_name=first.name, r=h.r, mc_value=value,
                mc_stderr=stderr, flags=first_curve.flags + quad_flags, **quadrature)
            report.flags += quad_flags
        return report

    return stream_plan(h.model, h.G, h.n, h.seed, (float(h.r),), queries,
                       epsilon=h.epsilon).then(finish)
