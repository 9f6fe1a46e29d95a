"""Finite-difference stencils: one evaluation per functional per chunk.

A functional's derivatives are ``gradient``, ``laplacian``, ``jvp`` and
``hess``.  Without analytic ones they come from kept sides: the axis sides
``f(xi +- h_k e_k)`` of the coordinate stencil, ``h_k = FD_STEP (1 + |xi_k|)``,
give the gradient, ``D_k f = jvp(xi, k - 1)`` from its own two sides, and
with the centre value the Laplacian; the ray sides ``f(xi +- t u/|u|)``,
``t = FD_STEP (1 + |xi|)``, give ``hess(xi, u, u)`` (2 values), and
``hess(xi, k - 1, u)`` adds the 2 values at ``xi +- (h_k e_k + t u/|u|)``.
Inside a chunk of a pass, the memo that ``run_plans`` opens keeps what
costs a callback or a tree walk: a callback's value, axis sides, ray sides
and mixed-difference corners, each evaluated once per functional and
directions, and an expression's value, gradient and Hessian products; the
derivatives of a callback are recomputed from its kept evaluations, and
everywhere the results keep the bits they have outside a chunk.  A bare
``map_chunks`` worker gets no memo.
"""

import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from glset import (Constant, DensityJob, Norm2, RadialClamp, SurfaceMeasureHandle,
                   UserFunctional, build_model, estimate_density, ibp_battery,
                   ibp_residuals, surface_report)
from glset import expressions, functionals
from glset.density import Plan, map_chunks
from glset.expressions import ExpressionFunctional
from glset.functionals import FD_STEP, chunk_scope, fd_gradient
from glset.surface import ibp_plan


class Counted:
    """A value-only callback that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, xi):
        self.calls += 1
        return np.sum(xi * xi, axis=1) + np.sin(xi[:, 0]) * xi[:, -1]


def fd_functional():
    return UserFunctional(Counted(), name="fd")


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def plan_chunks(model, n, seed, worker):
    """``worker(index, points)`` over every chunk of a pass, each call inside
    the chunk memo that ``run_plans`` opens; the results in chunk order."""
    return Plan(model, n, seed, worker, list).run()


def chunk_misses(model):
    """The derivatives of a value-only functional that differ in any bit
    inside the chunks of a 3-chunk pass (16384 + 16384 + 7232 rows) from the
    same derivatives outside any chunk.  Inside, a thread's pooled buffers,
    the centre's included, serve every chunk it runs; outside, each
    evaluation takes a new one.  ``D_3`` comes first, so the gradient adds
    the other four axes to the kept sides."""
    G = fd_functional()

    def derivatives(pts):
        d3 = G.jvp(pts, 2)
        g = G.gradient(pts)
        return {"value": G.value(pts), "D_3": d3, "gradient": g, "laplacian": G.laplacian(pts),
                "hess(g, g)": G.hess(pts, g, g), "hess(e_1, g)": G.hess(pts, 0, g)}

    chunks = plan_chunks(model, 40_000, 3, lambda index, pts: (pts.copy(), derivatives(pts)))
    outside = [derivatives(pts) for pts, _ in chunks]
    return [name for name in outside[0]
            if any(not same_bits(inside[name], out[name])
                   for (_, inside), out in zip(chunks, outside))]


class TestValueCalls:
    # one chunk; an explicit epsilon leaves out the bandwidth chunk
    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_density_pass(self, d):
        G = fd_functional()
        estimate_density(DensityJob(model=build_model(("iid_gaussian", d)), G=G,
                                    phi=Constant(1.0), r_grid=(1.0, 3.0), n=2000,
                                    seed=1, epsilon=0.1, estimator="both"))
        # value + 2d axis sides + 2 ray sides for g^T H g; the Laplacian's
        # and the second difference's centre is the kept value
        assert G._eval.calls == 2 * d + 3

    def test_ibp_pass(self, iid5):
        G = fd_functional()
        ibp_residuals(iid5, G, Constant(1.0), 1, (3.0,), 2000, 1)
        # value + 2d axis sides + 2 ray sides + 2 for e_1^T H g: the D_1 G of
        # the weight reads the kept axis sides, its cross term the kept ray
        # sides of g
        assert G._eval.calls == 15

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_ibp_battery(self, d):
        G = fd_functional()
        ibp_battery(build_model(("iid_gaussian", d)), G, [Constant(1.0), Norm2()],
                    (1, 2, 3), (3.0,), 2000, 1)
        # value + 2d axis sides + 2 ray sides + 2 per distinct k: every phi
        # reads the kept e_k^T H g of its k
        assert G._eval.calls == 2 * d + 9

    @pytest.mark.parametrize("k", [1, 5])
    def test_mollified_ibp_pass(self, iid5, k):
        G = fd_functional()
        ibp_residuals(iid5, G, Constant(1.0), k, (3.0,), 2000, 1,
                      estimator="mollified", epsilon=0.1)
        # value + the 2 sides along e_k for D_k G
        assert G._eval.calls == 3


class TestChunkScope:
    def test_inside_a_chunk_equals_outside(self, iid5):
        G = fd_functional()

        def worker(index, pts):
            # the Laplacian first, then the gradient
            return (pts.copy(), G.laplacian(pts), G.gradient(pts), G._eval.calls)

        for pts, lap, grad, calls in plan_chunks(iid5, 3000, 5, worker):
            assert calls == 11  # one 2d + 1 stencil for both
            assert same_bits(lap, G.laplacian(pts))
            assert same_bits(grad, G.gradient(pts))
            assert same_bits(grad, fd_gradient(G.value, pts, FD_STEP))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_pooled_chunks_equal_outside(self, iid5, monkeypatch, threads):
        monkeypatch.setenv("GLSET_THREADS", threads)
        assert chunk_misses(iid5) == []

    def test_other_points_are_not_shared(self, iid5):
        G = fd_functional()

        def worker(index, pts):
            G.gradient(pts)
            before = G._eval.calls
            G.gradient(pts.copy())
            return G._eval.calls - before

        assert plan_chunks(iid5, 1000, 5, worker) == [10]

    def test_memo_ends_with_the_chunk(self, iid5):
        G = fd_functional()
        [pts] = plan_chunks(iid5, 1000, 5, lambda index, pts: (G.gradient(pts), pts)[1])
        before = G._eval.calls
        G.gradient(pts)
        assert G._eval.calls - before == 10

    def test_returned_arrays_do_not_alias_the_memo(self, iid5):
        G = fd_functional()

        def worker(index, pts):
            first = (G.gradient(pts), G.laplacian(pts))
            kept = [a.copy() for a in first]
            for a in first:
                a += 1.0
            again = (G.gradient(pts), G.laplacian(pts))
            return all(same_bits(a, b) for a, b in zip(kept, again))

        assert plan_chunks(iid5, 1000, 5, worker) == [True]

    def test_view_returning_callback(self, iid5):
        # a side that is a view of the buffer it was evaluated on is copied
        # before the buffer is written again: the axis sides, the kept ray
        # sides of two directions and the corners of the mixed differences
        view = UserFunctional(lambda xi: xi[:, 0], name="view")
        copied = UserFunctional(lambda xi: xi[:, 0].copy(), name="copied")

        def derivatives(f, pts):
            u, w = np.cos(pts), pts[:, ::-1].copy()
            return (f.gradient(pts), f.laplacian(pts), f.hess(pts, u, u),
                    f.hess(pts, w, w), f.hess(pts, 0, u), f.hess(pts, u, 1),
                    f.hess(pts, u, w), f.hess(pts, 0, 2))

        def worker(index, pts):
            return pts.copy(), [derivatives(f, pts) for f in (view, copied)]

        # two chunks, the second short: every kind of buffer is reused
        for pts, (got, want) in plan_chunks(iid5, 20_000, 5, worker):
            outside = derivatives(copied, pts)
            for a, b, c in zip(got, want, outside):
                assert same_bits(a, b) and same_bits(a, c)
            grad, lap, *second = got
            assert np.allclose(grad[:, 0], 1.0) and np.all(grad[:, 1:] == 0.0)
            assert np.allclose(lap, 0.0, atol=1e-4)
            for h in second:
                assert np.allclose(h, 0.0, atol=1e-4)
        pts = np.random.default_rng(3).standard_normal((200, 5))
        assert np.allclose(view.gradient(pts)[:, 0], 1.0)


class TestMemoRule:
    def test_value_only_memo_keeps_evaluations_only(self, iid5):
        # one chunk of a divergence plus IBP pass, two weights and k = 1, 2:
        # the memo holds G's value, its sides along the 5 axes, the ray
        # sides of its gradient and the 2 corners of each e_k^T H g, and
        # nothing derived
        G = fd_functional()
        plan = ibp_plan(iid5, G, [Constant(1.0), Norm2()], (1, 2), (3.0,), 2000, 1)

        def worker(index, pts):
            plan.worker(index, pts)
            memo = functionals._chunk_memo(pts)
            [sides] = [entry[2] for key, entry in memo.items() if key[0] == "sides"]
            return Counter((entry[0], key[0]) for key, entry in memo.items()), sorted(sides)

        [(kept, axes)] = plan_chunks(iid5, 2000, 1, worker)
        assert kept == {(G, "value"): 1, (G, "sides"): 1, (G, "ray"): 1, (G, "corner"): 4}
        assert axes == [0, 1, 2, 3, 4]
        assert G._eval.calls == 2 * 5 + 3 + 2 * 2

    def test_kept_arrays_are_shared_read_only(self, iid5):
        # every read of a kept array gets the one view the memo holds: a
        # write to it raises, and the next read sees the unwritten value
        f = ExpressionFunctional("exp(-norm2())*xi(1)")
        reads = {"value": f.value, "gradient": f.gradient,
                 "radius": RadialClamp(2.0)._radius}

        def worker(index, pts):
            seen = {}
            for name, read in reads.items():
                kept = read(pts)
                try:
                    kept[...] = 7.0
                    refused = False
                except ValueError:
                    refused = True
                seen[name] = refused, read(pts) is kept, kept.copy()
            return pts.copy(), seen

        for pts, seen in plan_chunks(iid5, 20_000, 5, worker):
            for name, (refused, shared, got) in seen.items():
                assert refused and shared and same_bits(got, reads[name](pts)), name

    def test_only_a_plan_opens_a_chunk_memo(self, iid5):
        def has_memo(index, pts):
            return functionals._chunk_memo(pts) is not None

        assert map_chunks(iid5, 20_000, 5, has_memo) == [False, False]
        assert plan_chunks(iid5, 20_000, 5, has_memo) == [True, True]


def test_axis_steps_keep_the_bits_of_a_full_step():
    # an axis step writes h e_j without building it: the other columns take
    # op(x, 0.0), as the zeros of an (n, d) step would (-0.0 + 0.0 is +0.0)
    rng = np.random.default_rng(9)
    xi = rng.standard_normal((64, 4))
    xi[::3, 1] = -0.0
    xi[1::5, 2] = 0.0
    t = rng.standard_normal((64, 4))
    h = FD_STEP * (1.0 + np.abs(xi[:, 2]))
    full = np.zeros_like(xi)
    full[:, 2] = h
    for op in (np.add, np.subtract):
        out = np.empty_like(xi)
        functionals._step(op, xi, 2, h, out)
        assert same_bits(out, op(xi, full))
        # an array step, then the axis step in place: a corner of hess(xi, t, 2)
        functionals._step(op, xi, t, t, out)
        functionals._step(op, out, 2, h, out)
        assert same_bits(out, op(op(xi, t), full))


class TestPerturbationBuffers:
    """A callback's centre and its axis, ray and corner sides are evaluated
    on per-thread column-major buffers that serve every chunk of a pass and
    die with it."""

    @staticmethod
    def derivatives(G, pts):
        g = G.gradient(pts)
        return g, G.laplacian(pts), G.hess(pts, g, g), G.hess(pts, 0, g)

    def test_nested_fd_derivatives_keep_their_bits(self, iid5, monkeypatch):
        # a callback that takes FD derivatives of another value-only
        # functional at the points it is given, in the same thread: its
        # stencils take their own buffers, never the one its input lives in
        inner = UserFunctional(Counted(), name="inner")

        def outer_eval(xi):
            g = inner.gradient(xi)
            return np.sum(g * g, axis=1) + inner.hess(xi, g, g) + inner.hess(xi, 1, g)

        outer = UserFunctional(outer_eval, name="outer")

        def worker(index, pts):
            return pts.copy(), self.derivatives(outer, pts)

        for threads in ("1", "2"):
            monkeypatch.setenv("GLSET_THREADS", threads)
            chunks = plan_chunks(iid5, 20_000, 11, worker)
            assert len(chunks) == 2
            for pts, inside in chunks:
                for a, b in zip(inside, self.derivatives(outer, pts)):
                    assert same_bits(a, b)

    def test_perturbed_sides_share_pooled_buffers_across_chunks(self, iid5, monkeypatch):
        monkeypatch.setenv("GLSET_THREADS", "1")
        chunk = {}
        bases = Counter()

        def record(xi):
            # a float64 view of the first rows of a pooled column-major
            # buffer, the centre included; contiguous unless the chunk is short
            assert xi.base is not None and xi.base.flags.f_contiguous
            assert xi.dtype == np.float64 and xi.shape == chunk["points"].shape
            assert xi.flags.f_contiguous == (len(xi) == len(xi.base))
            pointer = xi.base.__array_interface__["data"][0]
            assert xi.__array_interface__["data"][0] == pointer
            bases[chunk["index"], pointer] += 1
            return np.sum(xi * xi, axis=1) + np.sin(xi[:, 0]) * xi[:, -1]

        G = UserFunctional(record, name="recorded")

        def worker(index, pts):
            chunk.update(index=index, points=pts)
            self.derivatives(G, pts)

        # 16384 + 16384 + 7232 rows: the short last chunk takes views too
        plan_chunks(iid5, 40_000, 3, worker)
        per_chunk = [{p for (i, p) in bases if i == index} for index in range(3)]
        # one buffer per kind (centre, axis, ray, corner), the same in every chunk
        assert len(per_chunk[0]) == 4
        assert per_chunk[1] == per_chunk[0] and per_chunk[2] == per_chunk[0]
        assert sum(bases.values()) == 3 * (1 + 2 * 5 + 2 + 2)

    def test_pooled_evaluations_keep_the_bits_of_c_ordered_ones(self, iid5):
        # at d = 5 a callback's row sums take the same bits on the
        # column-major buffers as on C-ordered points, so the stencils equal
        # the same differences written out here on C-ordered copies
        def f(xi):
            return np.sum(xi * xi, axis=1) + np.sin(xi[:, 0]) * xi[:, -1]

        def c_ordered(xi):
            centre = f(xi.copy())
            grad, lap = np.empty_like(xi), np.zeros(len(xi))
            for k in range(xi.shape[1]):
                h = FD_STEP * (1.0 + np.abs(xi[:, k]))
                hi_pts, lo_pts = xi.copy(), xi.copy()
                hi_pts[:, k] += h
                lo_pts[:, k] -= h
                hi, lo = f(hi_pts), f(lo_pts)
                grad[:, k] = (hi - lo) / (2.0 * h)
                lap += (hi - 2.0 * centre + lo) / (h * h)
            norm = np.sqrt(np.sum(grad * grad, axis=1))
            a = FD_STEP * (1.0 + np.sqrt(np.sum(xi * xi, axis=1)))
            s = grad * (a / np.where(norm > 0.0, norm, 1.0))[:, None]
            quad = (f(xi + s) - 2.0 * centre + f(xi - s)) * (norm / a) ** 2
            return grad, lap, quad

        G = UserFunctional(f, name="fd")

        def worker(index, pts):
            g = G.gradient(pts)
            return pts.copy(), (g, G.laplacian(pts), G.hess(pts, g, g))

        for pts, inside in plan_chunks(iid5, 20_000, 5, worker):
            for a, b in zip(inside, c_ordered(pts)):
                assert same_bits(a, b)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_pool_is_empty_after_the_pass(self, iid5, monkeypatch, threads):
        monkeypatch.setenv("GLSET_THREADS", threads)
        buffers = []

        def record(xi):
            if xi.base is not None:
                buffers.append(weakref.ref(xi.base))
            return np.sum(xi * xi, axis=1)

        G = UserFunctional(record, name="recorded")

        def worker(index, pts):
            self.derivatives(G, pts)

        plan_chunks(iid5, 40_000, 3, worker)
        assert buffers and all(ref() is None for ref in buffers)
        assert functionals._pool.free is None

        def failing(index, pts):
            G.gradient(pts)
            raise ValueError("chunk fault")

        with pytest.raises(ValueError):
            plan_chunks(iid5, 40_000, 3, failing)
        assert functionals._pool.free is None


def test_expression_evaluates_once_per_chunk_per_quantity(iid5, monkeypatch):
    # an ibp battery over k = 1..3 asks phi's value and gradient and G's
    # value, gradient and (D^2 G) grad G, for g^T H g and every
    # e_k^T H g, in every column of a chunk
    phi = ExpressionFunctional("exp(-norm2())*xi(1)", name="phi")
    G = ExpressionFunctional("norm2() + xi(1)^3", name="G")
    roots = {phi.ast: "phi", G.ast: "G"}
    calls = Counter()
    evaluate = expressions.evaluate

    def counted_evaluate(node, xi, memo=None):
        if node in roots:
            calls[roots[node], "value"] += 1
        return evaluate(node, xi, memo)

    def counted(quantity):
        method = getattr(ExpressionFunctional, "_" + quantity)

        def run(self, *args):
            calls[self.name, quantity] += 1
            return method(self, *args)
        return run

    monkeypatch.setattr(expressions, "evaluate", counted_evaluate)
    for quantity in ("gradient", "hessian_times"):
        monkeypatch.setattr(ExpressionFunctional, "_" + quantity, counted(quantity))
    ibp_battery(iid5, G, [phi], (1, 2, 3), (3.0,), 40_000, 1)
    chunks = 3
    assert calls == {("phi", "value"): chunks, ("phi", "gradient"): chunks,
                     ("G", "value"): chunks, ("G", "gradient"): chunks,
                     ("G", "hessian_times"): chunks}


def test_clamp_levels_share_one_radius_per_chunk(iid5, monkeypatch):
    # the 6 trace levels ask |xi| for the value and the jvp of every clamp
    kept = functionals.Functional._kept
    calls = []

    def counted(self, quantity, xi, directions, compute):
        def run():
            calls.append((quantity, len(xi)))
            return compute()
        return kept(self, quantity, xi, directions, run)

    monkeypatch.setattr(functionals.Functional, "_kept", counted)
    h = SurfaceMeasureHandle(model=iid5, G=Norm2(), r=3.0, n=40_000, seed=5)
    report = surface_report(h, [ExpressionFunctional("exp(-norm2())")], with_trace=True)
    radii = sorted(size for quantity, size in calls if quantity == "radius")
    assert radii == [40_000 - 2 * 16384, 16384, 16384]
    assert len(report.trace.levels) == 6

    pts = np.random.default_rng(3).standard_normal((500, 5)) * 3.0
    u = np.random.default_rng(4).standard_normal((500, 5))
    clamps = [RadialClamp(m) for m in (1.0, 2.0, 4.0)]
    outside = [(c.value(pts), c.jvp(pts, u), c.gradient(pts)) for c in clamps]
    with chunk_scope(pts):
        inside = [(c.value(pts), c.jvp(pts, u), c.gradient(pts)) for c in clamps]
    assert [[a.tobytes() for a in row] for row in inside] == \
        [[a.tobytes() for a in row] for row in outside]


def test_threads_do_not_change_fd_output(iid5, monkeypatch):
    # the memo is per thread; 4 workers on 5 chunks with a short switch
    # interval interleave the chunks of one pass
    def bodies():
        G = UserFunctional(lambda xi: np.sum(xi * xi, axis=1), name="norm2_fd")
        curves = estimate_density(DensityJob(model=iid5, G=G, phi=Constant(1.0),
                                             r_grid=(1.0, 3.0, 5.0), n=70_000,
                                             seed=7, estimator="both"))
        records = ibp_residuals(iid5, G, Constant(1.0), 1, (3.0, 5.0), 70_000, 7)
        # an expression weight whose cross term reads the kept ray sides of G
        battery = ibp_battery(iid5, G, [ExpressionFunctional("exp(-norm2())*xi(1)")],
                              (1, 2), (3.0, 5.0), 70_000, 7)
        return ([(c.estimates.tobytes(), c.stderrs.tobytes(), c.flags)
                 for c in curves.values()], records, battery)

    monkeypatch.setenv("GLSET_THREADS", "1")
    serial = bodies()
    monkeypatch.setenv("GLSET_THREADS", "2")
    assert bodies() == serial
    monkeypatch.setenv("GLSET_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert bodies() == serial
    finally:
        sys.setswitchinterval(interval)
