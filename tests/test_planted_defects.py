"""Planted defects: each test breaks one piece of the program and asserts
that a named check catches it.

The first check is a nonzero closed form of the integration-by-parts identity.
For G = norm2 on iid d = 5, phi = xi_1 and k = 1 the sublevel side is

    E[(D_1 phi - xi_1 phi) 1{G < r}] = E[(1 - xi_1^2) 1{G < r}] = F_5(r) - F_7(r),

with F_d the chi-square(d) CDF, and the surface side ``int phi D_1 G dsigma_r``
has the same value.  An identity that reads 0 = 0 by symmetry cannot see a
defect that scales one side; this one can.  Over seeds 1-8 at n = 10^6 the
clean sides lie within 2 s.e. of the closed form, a 5 % scale on
``Norm2.hess`` moves the surface side by -5.1 to -9.1 s.e. and a dropped
Hessian term by more than -160 s.e.

The second check compares the Hessian's bilinear form along three pairs
of directions, taken inside a chunk where the memo keeps them, with the same
forms outside any chunk.  A stream pass asks ``hess`` of G along the
gradient of G and the axes only, so no end-to-end number sees a memo that
mixes up directions; this check does.

The third check holds the finite-difference ``hess`` of a value-only
functional to the analytic form on a chunk of 16384 points
(``tests/test_functionals.py``), and the kernel divergence of a value-only
norm2 to that of ``Norm2`` (or, for the mixed difference, which the kernel
does not read, the cross term of a value-only ``phi D_k G`` to that of
``Norm2``).  Three planted stencil defects are each off by orders of
magnitude: the mixed difference without its ``2 f(xi)`` centre term (by
``|u| |v| f(xi) / (a b)``, some 1e10 for norm2), the second difference
along u without it (by ``2 |u|^2 f(xi) / a^2``), and the second difference
scaled by ``|u|`` instead of ``|u|^2`` (by a factor ``|u|``; a zero Hessian
stays rounding, so constant and linear functionals pass).  The same defect
inside and outside a chunk leaves the second check green.

The fourth check holds the converged sphere quadrature to its closed form:
on the sphere ``|xi|^2 = r`` the weight ``exp(-a norm2())`` is the constant
``e^(-a r)``, so the oracle's value is ``e^(-a r)`` times the chi-square(d)
density at r, to rounding.  At d = 5, r = 5 a rule stuck at 4 nodes per angle
is off by 1.3e-2 relative; at d = 3 and r = 1 (criterion 5) by only 8e-6,
far inside that criterion's 1 % band.

Five checks plant defects in the pass and its reductions.  A
disintegration's bin sums and counts are held to ``np.bincount`` of each
chunk of the sample summed in chunk order (``tests/test_disintegration.py``):
a chunk's sort order written over the next chunk's rows moves the counts and
sums, and a reduction in reverse chunk order moves the sums of a weight that
is not a constant, and its total (``(a + b) + c`` against ``(c + b) + a``
over 3 chunks).
A pass whose layout drops its last chunk no longer streams the batch
``sample`` returns (``tests/test_density.py``), and ``run_plans`` handing a
plan the last rows of a longer chunk instead of the first gives it other
estimates than its own pass (``tests/test_stream_pass.py``).  A stream
pass's estimates and stderrs are held, bit for bit, to a batch-means
reduction of its per-chunk sums in chunk order written in the test
(``tests/test_stream_pass.py``); ``batch_mean_stderr`` reading the chunks
back to front moves them.

A value-only functional's value and derivatives inside the chunks of a
3-chunk pass are held, bit for bit, to the same quantities outside any chunk
(``chunk_misses`` in ``tests/test_fd_stencil.py``).  A pooled centre buffer
filled only when it is first allocated hands the second and third chunks
the first chunk's points: the value and every derivative that reads the
centre move, and the gradient, which reads only axis sides, does not.
The check asks ``D_3`` before the gradient, so the gradient adds four axes
to the kept sides.  A ``_stencil`` that keeps each new side under its
position in the list of missing axes instead of under its axis keeps the
sides of ``D_3`` under axis 0: the check cannot read them back and fails
with a KeyError.  (Such a plant cannot give wrong bits: the last missing
axis becomes a key only when the missing axes are 0, 1, ..., m, where
position and axis agree.)

The divergence route of ``exp(-a norm2())`` on ``norm2`` at d = 5 is held
to its closed form ``e^(-a r)`` times the chi-square(5) density, within
``max(2 %, 4 s.e.)`` at r = 2, 5 and 8 (n = 2e5).  Dropping the cross term
``<grad phi, psi>`` of ``div(phi psi)`` biases it by ``a`` times the
sublevel integral of phi at r, many standard errors.

The closed form and this oracle also catch a 5 % scale on the values of
``KernelField.divergence``: the closed form flags only its surface side
(``rhs``, +6.4 s.e. at n = 10^6, seed 1), and the oracle all of r = 2, 5
and 8.  A 3 % bias on the IBP sublevel integrand ``_IbpSublevel.value``
moves only the closed form's ``lhs``, by +15.1 s.e.

Every plan worker of a pass runs on a pool thread, never on the calling
thread, at one worker too (``chunk_threads`` in ``tests/test_fd_stencil.py``).
A ``map_chunks`` that runs the chunks inline on the calling thread when
there is one worker, as it once did, puts every chunk on that thread.

The last check holds a sublevel integral at an atom of G.  On iid d = 5,
``G = min(norm2(), 6)`` puts mass ``P(chi2_5 >= 6) = 0.306`` at 6, and
``E[1{G < r}]`` is the chi-square(5) CDF at r = 5.5 and at r = 6, held
within 4 s.e. at n = 2e5 (``atom_oracle_misses``).  A pass whose level search
takes the right side counts ``{G <= r}``: the level 6 reads 1.0, and 5.5,
where G has no atom, does not move.
"""

import threading

import numpy as np
import pytest
from scipy import stats

from glset import (Constant, Coordinate, DensityJob, Norm2, Product, SurfaceMeasureHandle,
                   UserFunctional, build_model, estimate_density, ibp_residuals,
                   surface_report)
from glset import calculus, density, disintegration, functionals, surface
from glset.expressions import ExpressionFunctional
from glset.model import CHUNK_SIZE
from test_calculus import kernel_div
from test_density import chunk_stream_misses
from test_disintegration import bin_sum_misses
from test_fd_stencil import chunk_misses, chunk_threads, plan_chunks
from test_functionals import GAUSS, HESS, fd_hess_misses
from test_stream_pass import reduction_misses, shared_pass_misses

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
    hess = Norm2.hess
    monkeypatch.setattr(Norm2, "hess", lambda self, xi, u, v: 1.05 * hess(self, xi, u, v))
    assert [m[:3] for m in closed_form_misses(iid5)] == ["rhs"]


def test_scaled_kernel_divergence_is_caught(iid5, monkeypatch):
    divergence = calculus.KernelField.divergence

    def scaled(self, xi, g, s):
        values, excluded = divergence(self, xi, g, s)
        return 1.05 * values, excluded

    monkeypatch.setattr(calculus.KernelField, "divergence", scaled)
    assert [m[:3] for m in closed_form_misses(iid5)] == ["rhs"]
    assert exp_weight_oracle_misses(iid5) == [2.0, 5.0, 8.0]


def test_biased_ibp_sublevel_side_is_caught(iid5, monkeypatch):
    value = surface._IbpSublevel.value
    monkeypatch.setattr(surface._IbpSublevel, "value",
                        lambda self, xi: 1.03 * value(self, xi))
    assert [m[:3] for m in closed_form_misses(iid5)] == ["lhs"]


def test_dropped_hessian_term_is_caught(iid5, monkeypatch):
    def jvp(self, xi, u):
        # D(D_k G) . u as 0: the product rule for phi D_k G without its
        # phi e_k^T (D^2 G) u term
        return np.zeros(xi.shape[0])

    monkeypatch.setattr(surface._Partial, "jvp", jvp)
    assert [m[:3] for m in closed_form_misses(iid5)] == ["rhs"]


def kept_hess_misses(model):
    """Names of the functionals whose ``hess`` at the points of a chunk,
    along ``(u, u)``, ``(e_1, u)`` and ``(e_1, e_2)`` with u the points,
    differs from the same form outside the chunk: a value-only callback
    (finite differences) and an expression."""
    fs = [UserFunctional(lambda xi: np.sum(xi * xi, axis=1) + np.sin(xi[:, 0]) * xi[:, -1],
                         name="fd"),
          ExpressionFunctional("exp(-norm2())*xi(1)")]

    def worker(index, pts):
        u = pts.copy()
        pairs = ((u, u), (0, u), (0, 1))
        return pts.copy(), pairs, [[f.hess(pts, a, b) for a, b in pairs] for f in fs]

    misses = []
    for pts, pairs, kept in plan_chunks(model, 2000, 3, worker):
        for f, forms in zip(fs, kept):
            if any(got.tobytes() != f.hess(pts, a, b).tobytes()
                   for (a, b), got in zip(pairs, forms)):
                misses.append(f.name)
    return misses


def test_kept_hvp_matches_a_fresh_product(iid5):
    assert kept_hess_misses(iid5) == []


def test_hvp_memo_keyed_without_direction_is_caught(iid5, monkeypatch):
    def kept(self, quantity, xi, directions, compute):
        # the chunk memo with a key that leaves out the directions
        memo = functionals._chunk_memo(xi)
        if memo is None:
            return compute()
        key = (quantity, id(self))
        if key not in memo:
            memo[key] = (self, directions, compute())
        return memo[key][2]

    monkeypatch.setattr(functionals.Functional, "_kept", kept)
    assert kept_hess_misses(iid5) == ["fd", "exp(-norm2())*xi(1)"]


def value_only_misses():
    """What a value-only norm2 gets wrong against ``Norm2`` on 20 points:
    its kernel divergence, and the cross term of ``phi D_k G`` along the
    gradient for k = 1..3."""
    xi = np.random.default_rng(3).standard_normal((20, 3))
    fd = UserFunctional(eval=lambda xi: np.sum(xi ** 2, axis=1))
    misses = []
    if not np.allclose(kernel_div(Norm2(), xi)[0], kernel_div(fd, xi)[0],
                       rtol=1e-3, atol=1e-4):
        misses.append("kernel divergence")
    for k in (1, 2, 3):
        exact = Product(GAUSS, surface._Partial(Norm2(), k)).jvp(xi, 2.0 * xi)
        got = Product(GAUSS, surface._Partial(fd, k)).jvp(xi, 2.0 * xi)
        if not np.max(np.abs(got - exact)) <= 1e-5 * np.max(np.abs(exact)):
            misses.append(f"D{k} cross term")
    return misses


def test_value_only_norm2_matches_norm2():
    assert value_only_misses() == []


def test_fd_hvp_without_centre_term_is_caught(iid5, monkeypatch):
    hess = functionals.Functional.hess

    def without_centre(self, xi, u, v):
        # the mixed stencil without its 2 f(xi) term, which is
        # |u| |v| 2 f(xi) / (2 a b)
        if u is v:
            return hess(self, xi, u, v)
        nu, a, *_ = self._sides(xi, u)
        nv, b, *_ = self._sides(xi, v)
        return hess(self, xi, u, v) - self.value(xi) * (nu * nv / (a * b))

    monkeypatch.setattr(functionals.Functional, "hess", without_centre)
    assert fd_hess_misses(HESS) == [f.name for f in HESS]
    assert value_only_misses() == ["D1 cross term", "D2 cross term", "D3 cross term"]
    # the same defect inside and outside a chunk: the memo check cannot see it
    assert kept_hess_misses(iid5) == []


NONZERO_HESSIAN = [f.name for f in HESS[2:]]


def test_second_difference_without_centre_term_is_caught(monkeypatch):
    hess = functionals.Functional.hess

    def without_centre(self, xi, u, v):
        # |u|^2 [f(xi + s) + f(xi - s)] / a^2: the 2 f(xi) term left out
        if u is not v:
            return hess(self, xi, u, v)
        nu, a, _, hi, lo = self._sides(xi, u)
        return (hi + lo) * (nu / a) ** 2

    monkeypatch.setattr(functionals.Functional, "hess", without_centre)
    assert fd_hess_misses(HESS) == [f.name for f in HESS]
    assert value_only_misses() == ["kernel divergence"]


def test_second_difference_scaled_by_norm_is_caught(monkeypatch):
    hess = functionals.Functional.hess

    def scaled_by_norm(self, xi, u, v):
        # |u| [f(xi + s) - 2 f(xi) + f(xi - s)] / a^2 where |u|^2 belongs
        if u is not v:
            return hess(self, xi, u, v)
        nu, a, _, hi, lo = self._sides(xi, u)
        return (hi - 2.0 * self.value(xi) + lo) * nu / (a * a)

    monkeypatch.setattr(functionals.Functional, "hess", scaled_by_norm)
    assert fd_hess_misses(HESS) == NONZERO_HESSIAN
    assert value_only_misses() == ["kernel divergence"]


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


def exp_weight_oracle_misses(model, a=0.5, levels=(2.0, 5.0, 8.0)):
    """The levels r at which the divergence route of ``exp(-a norm2())`` on
    norm2 (n = 2e5) lies farther than ``max(2 %, 4 s.e.)`` from
    ``e^(-a r)`` times the chi-square(d) density at r."""
    phi = ExpressionFunctional(f"exp(-{a}*norm2())")
    [curve] = estimate_density(DensityJob(model=model, G=Norm2(), phi=phi, r_grid=levels,
                                          n=200_000, seed=SEED,
                                          estimator="divergence")).values()
    misses = []
    for r, est, se in zip(levels, curve.estimates, curve.stderrs):
        want = np.exp(-a * r) * stats.chi2.pdf(r, model.dim)
        if not abs(est - want) <= max(0.02 * want, 4.0 * se):
            misses.append(r)
    return misses


def test_exp_weight_divergence_matches_closed_form(iid5):
    assert exp_weight_oracle_misses(iid5) == []


def test_dropped_cross_term_is_caught(iid5, monkeypatch):
    # phi's directional derivative read as 0: div(phi psi) loses <grad phi, psi>
    monkeypatch.setattr(ExpressionFunctional, "jvp",
                        lambda self, xi, u: np.zeros(xi.shape[0]))
    assert exp_weight_oracle_misses(iid5) == [2.0, 5.0, 8.0]


def test_chunk_order_over_the_next_chunks_rows_is_caught(iid5, monkeypatch):
    # at one thread the chunks are sorted in order: each full chunk's rows get
    # the order of the chunk before, and the first chunk keeps its own
    monkeypatch.setenv("GLSET_THREADS", "1")
    sort, before = disintegration.stable_argsort, []

    def shifted(v):
        order, values = sort(v)
        if len(v) != CHUNK_SIZE:
            return order, values
        before.append(order)
        return before[-2] if len(before) > 1 else order, values

    monkeypatch.setattr(disintegration, "stable_argsort", shifted)
    assert bin_sum_misses(iid5, Norm2()) == ["1.0 sums", "1.0 sumsq", "exp(-norm2()) sums",
                                             "exp(-norm2()) sumsq", "counts"]


def test_reduction_in_reverse_chunk_order_is_caught(iid5, monkeypatch):
    reduce = disintegration._reduce
    monkeypatch.setattr(disintegration, "_reduce",
                        lambda name, parts: reduce(name, parts[::-1]))
    assert bin_sum_misses(iid5, Norm2()) == ["exp(-norm2()) sums", "exp(-norm2()) sumsq",
                                             "exp(-norm2()) total"]


def test_dropped_last_chunk_is_caught(iid5, monkeypatch):
    layout = density.chunk_layout
    monkeypatch.setattr(density, "chunk_layout", lambda n: layout(n)[:-1] or layout(n))
    assert chunk_stream_misses(iid5) == ["chunks"]


def test_plan_fed_the_last_rows_of_a_chunk_is_caught(iid5, monkeypatch):
    monkeypatch.setattr(density, "_prefix", lambda pts, size: pts[len(pts) - size:])
    assert shared_pass_misses(iid5) == ["estimates", "stderrs"]


def test_batch_means_in_reverse_chunk_order_is_caught(iid5, monkeypatch):
    reduce = density.batch_mean_stderr
    monkeypatch.setattr(density, "batch_mean_stderr",
                        lambda sums, counts: reduce(sums[::-1], counts[::-1]))
    # the cdf column's chunk sums are counts, whose total is exact in any order
    assert reduction_misses(iid5) == ["cdf stderrs", "divergence estimates",
                                      "divergence stderrs"]


def test_centre_buffer_filled_only_when_new_is_caught(iid5, monkeypatch):
    monkeypatch.setenv("GLSET_THREADS", "1")
    filled = []

    def stale_centre(self, xi):
        # a reused centre buffer keeps the points of the chunk it last served
        with functionals._perturbation("centre", xi) as buf:
            if not any(buf.base is base for base in filled):
                filled.append(buf.base)
                np.copyto(buf, xi)
            return functionals._own(self._call(buf), buf)

    monkeypatch.setattr(UserFunctional, "_centre", stale_centre)
    assert chunk_misses(iid5) == ["value", "laplacian", "hess(g, g)", "hess(e_1, g)"]


def test_sides_kept_by_position_are_caught(iid5, monkeypatch):
    def stencil(self, xi, coords=None):
        # the sides of missing[i] kept under i instead of under their axis
        coords = range(xi.shape[1]) if coords is None else coords
        sides = self._kept("sides", xi, (), dict)
        missing = [k for k in coords if k not in sides]
        if missing:
            sides.update(enumerate(functionals.fd_sides(self.value, xi, functionals.FD_STEP,
                                                        missing)))
        return [sides[k] for k in coords]

    monkeypatch.setattr(functionals.Functional, "_stencil", stencil)
    # D_3 keeps the sides along e_3 under axis 0, and reads axis 2 back
    with pytest.raises(KeyError):
        chunk_misses(iid5)


def test_inline_pass_at_one_worker_is_caught(iid5, monkeypatch):
    monkeypatch.setenv("GLSET_THREADS", "1")
    pooled = density.map_chunks

    def inline(model, n, seed, worker):
        # one worker: the chunks on the calling thread, which keeps its
        # buffers until the pass ends
        if density.thread_count() > 1:
            return pooled(model, n, seed, worker)
        outer, functionals._worker.free = functionals._worker.free, {}
        try:
            return [worker(index, density.draw_chunk(model, seed, index, size))
                    for index, size in density.chunk_layout(n)]
        finally:
            functionals._worker.free = outer

    assert threading.get_ident() not in chunk_threads(iid5)
    monkeypatch.setattr(density, "map_chunks", inline)
    assert chunk_threads(iid5) == [threading.get_ident()] * 3


ATOM = 6.0


def atom_oracle_misses(model, levels=(5.5, ATOM)):
    """The levels r at which the sublevel integral of 1 for
    ``G = min(norm2(), 6)`` (n = 2e5) lies more than 4 s.e. from the
    chi-square(d) CDF at r.  G has an atom of mass ``P(chi2_d >= 6)`` at 6,
    which ``{G < 6}`` leaves out."""
    G = ExpressionFunctional(f"min(norm2(), {ATOM})")
    [(est, se)] = density.stream_pass(model, G, 200_000, SEED, levels,
                                      [density.Query(Constant(1.0), "cdf")]).results
    want = stats.chi2.cdf(levels, model.dim)
    return [r for r, e, s, w in zip(levels, est, se, want) if not abs(e - w) <= 4.0 * s]


def test_sublevel_integral_at_an_atom_matches_closed_form(iid5):
    assert stats.chi2.sf(ATOM, 5) == pytest.approx(0.306, abs=1e-3)
    assert atom_oracle_misses(iid5) == []


class _SearchRight:
    """numpy as ``glset.density`` sees it, with every ``searchsorted`` on the
    right side."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def searchsorted(a, v, side="left", sorter=None):
        return np.searchsorted(a, v, side="right", sorter=sorter)


def test_level_search_on_the_right_side_is_caught(iid5, monkeypatch):
    # {G <= r} instead of {G < r}: the level at the atom counts its mass
    monkeypatch.setattr(density, "np", _SearchRight())
    assert atom_oracle_misses(iid5) == [ATOM]
