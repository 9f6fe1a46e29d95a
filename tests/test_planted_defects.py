"""Planted defects: each test breaks one piece of the program and asserts
that a named check catches it.

The first check is a nonzero closed form of the integration-by-parts identity.
For G = norm2 on iid d = 5, phi = xi_1 and k = 1 the sublevel side is

    E[(D_1 phi - xi_1 phi) 1{G < r}] = E[(1 - xi_1^2) 1{G < r}] = F_5(r) - F_7(r),

with F_d the chi-square(d) CDF, and the surface side ``int phi D_1 G dsigma_r``
has the same value.  An identity that reads 0 = 0 by symmetry cannot see a
defect that scales one side; this one can.  Over seeds 1-8 at n = 10^6 the
clean sides lie within 2 s.e. of the closed form, a 5 % scale on
``Norm2.hvp`` moves the surface side by -5.1 to -9.1 s.e. and a dropped
Hessian term by more than -160 s.e.

The second check compares Hessian-vector products along two directions,
taken inside a chunk where the memo keeps them, with the same products
outside any chunk.  A stream pass asks ``hvp`` of G along one direction
only, the gradient of G, so no end-to-end number sees a memo that mixes up
directions; this check does.

The third check holds the finite-difference ``hvp`` of a value-only
functional to the analytic product on a chunk of 16384 points
(``tests/test_functionals.py``), and the kernel divergence of a value-only
norm2 to that of ``Norm2``.  A mixed stencil that drops its ``2 f(xi)``
centre term is off by ``|u| f(xi) / (h FD_STEP)``, some 1e10 for norm2, in
every column; the same defect inside and outside a chunk leaves the second
check green.

The fourth check holds the converged sphere quadrature to its closed form:
on the sphere ``|xi|^2 = r`` the weight ``exp(-a norm2())`` is the constant
``e^(-a r)``, so the oracle's value is ``e^(-a r)`` times the chi-square(d)
density at r, to rounding.  At d = 5, r = 5 a rule stuck at 4 nodes per angle
is off by 1.3e-2 relative; at d = 3 and r = 1 (criterion 5) by only 8e-6,
far inside that criterion's 1 % band.
"""

import numpy as np
import pytest
from scipy import stats

from glset import (Coordinate, Norm2, ProductWithPartial, SurfaceMeasureHandle,
                   UserFunctional, build_model, ibp_residuals, surface_report)
from glset import functionals, surface
from glset.density import map_chunks
from glset.expressions import ExpressionFunctional
from test_calculus import kernel_div
from test_functionals import HVP, fd_hvp_misses

R = 3.0
N = 10 ** 6
SEED = 1
CLOSED_FORM = float(stats.chi2.cdf(R, 5) - stats.chi2.cdf(R, 7))


def closed_form_misses(model):
    """The sides of the (xi_1, k = 1) identity at level R that lie more than
    4 s.e. from the closed form."""
    [rec] = ibp_residuals(model, Norm2(), Coordinate(1), 1, (R,), N, SEED)
    out = []
    for side, value, se in (("lhs", rec.lhs, rec.lhs_stderr),
                            ("rhs", rec.rhs, rec.rhs_stderr)):
        if not abs(value - CLOSED_FORM) <= 4.0 * se:
            out.append(f"{side} {value:.6g}: {(value - CLOSED_FORM) / se:+.1f} s.e. "
                       f"from {CLOSED_FORM:.6g}")
    return out


def test_closed_form_value():
    assert CLOSED_FORM == pytest.approx(0.18502, abs=1e-5)


def test_ibp_sides_match_closed_form(iid5):
    assert closed_form_misses(iid5) == []


def test_scaled_hessian_vector_product_is_caught(iid5, monkeypatch):
    hvp = Norm2.hvp
    monkeypatch.setattr(Norm2, "hvp", lambda self, xi, u: 1.05 * hvp(self, xi, u))
    assert [m[:3] for m in closed_form_misses(iid5)] == ["rhs"]


def test_dropped_hessian_term_is_caught(iid5, monkeypatch):
    def jvp(self, xi, u):
        # the product rule without its phi (D^2 G u)_k term
        return self.G.gradient(xi)[:, self.k - 1] * self.phi.jvp(xi, u)

    monkeypatch.setattr(ProductWithPartial, "jvp", jvp)
    assert [m[:3] for m in closed_form_misses(iid5)] == ["rhs"]


def kept_hvp_misses(model):
    """Names of the functionals whose ``hvp`` at the points of a chunk, along
    ``e_1`` and then along the points, differs from the same product outside
    the chunk: a value-only callback (finite differences) and an expression."""
    fs = [UserFunctional(lambda xi: np.sum(xi * xi, axis=1) + np.sin(xi[:, 0]) * xi[:, -1],
                         name="fd"),
          ExpressionFunctional("exp(-norm2())*xi(1)")]

    def worker(index, pts):
        e_1 = np.zeros_like(pts)
        e_1[:, 0] = 1.0
        directions = (e_1, pts.copy())
        return pts.copy(), directions, [[f.hvp(pts, u) for u in directions] for f in fs]

    misses = []
    for pts, directions, kept in map_chunks(model, 2000, 3, worker):
        for f, products in zip(fs, kept):
            if any(got.tobytes() != f.hvp(pts, u).tobytes()
                   for u, got in zip(directions, products)):
                misses.append(f.name)
    return misses


def test_kept_hvp_matches_a_fresh_product(iid5):
    assert kept_hvp_misses(iid5) == []


def test_hvp_memo_keyed_without_direction_is_caught(iid5, monkeypatch):
    def kept(self, quantity, xi, u, compute):
        # the chunk memo with a key that leaves out the direction u
        memo = functionals._chunk_memo(xi)
        if memo is None:
            return compute()
        key = (quantity, id(self))
        if key not in memo:
            memo[key] = (self, u, compute())
        return memo[key][2].copy()

    monkeypatch.setattr(functionals.Functional, "_kept", kept)
    assert kept_hvp_misses(iid5) == ["fd", "exp(-norm2())*xi(1)"]


def test_fd_hvp_without_centre_term_is_caught(iid5, monkeypatch):
    hvp = functionals.Functional.hvp

    def without_centre(self, xi, u):
        # the mixed stencil without its 2 f(xi) term, which is
        # |u| 2 f(xi) / (2 h_k FD_STEP) of column k
        h = functionals.FD_STEP * (1.0 + np.abs(xi))
        norm = np.sqrt(np.sum(u * u, axis=1))
        return hvp(self, xi, u) - (norm * self.value(xi))[:, None] / (h * functionals.FD_STEP)

    monkeypatch.setattr(functionals.Functional, "hvp", without_centre)
    assert fd_hvp_misses(HVP) == [f.name for f in HVP]
    xi = np.random.default_rng(3).standard_normal((20, 3))
    analytic, _ = kernel_div(Norm2(), xi)
    fd, _ = kernel_div(UserFunctional(eval=lambda xi: np.sum(xi ** 2, axis=1)), xi)
    assert not np.allclose(analytic, fd, rtol=1e-3, atol=1e-4)
    # the same defect inside and outside a chunk: the memo check cannot see it
    assert kept_hvp_misses(iid5) == []


def sphere_oracle_misses(dims, r=5.0):
    """``(d, a)`` cases whose converged sphere quadrature of ``exp(-a norm2())``
    at level r is not ``e^(-a r) chi2_d(r)`` to 1e-12 relative, or needed more
    than 32 nodes per angle."""
    misses = []
    for d in dims:
        h = SurfaceMeasureHandle(model=build_model(("iid_gaussian", d)), G=Norm2(), r=r,
                                 n=1000, seed=SEED)
        for a in (0.0, 0.5):
            phi = ExpressionFunctional(f"exp(-{a}*norm2())")
            rec = surface_report(h, [phi], with_hausdorff=True).hausdorff
            exact = float(np.exp(-a * r) * stats.chi2.pdf(r, d))
            if not (abs(rec.quad_value - exact) <= 1e-12 * exact and rec.nodes <= 32):
                misses.append((d, a))
    return misses


def test_converged_sphere_quadrature_matches_closed_form():
    assert sphere_oracle_misses(range(2, 7)) == []


def test_quadrature_stuck_at_four_nodes_is_caught(monkeypatch):
    monkeypatch.setattr(surface, "_converge",
                        lambda rule: (float(rule(4)), 4, 0.0, True))
    assert sphere_oracle_misses([5]) == [(5, 0.0), (5, 0.5)]
