import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from glset import (BmEndpoint, Constant, Coordinate, DensityJob, Norm2, Query,
                   SurfaceMeasureHandle, build_model, density, estimate_density, sample,
                   sphere_quadrature, stream_pass, surface_report)
from glset.calculus import KernelField, hill_k, hill_tail_index, smallest_norms
from glset.density import (INSUFFICIENT_BATCHES, VARIANCE_UNRELIABLE, batch_mean_stderr,
                           thread_count)
from glset.expressions import ExpressionFunctional
from glset.functionals import rowsum
from glset.model import CHUNK_SIZE


ONE = Constant(1.0)


def sublevel_integral(model, G, phi, r, n, seed):
    """``F_phi(r) = E[phi 1_{G<r}]`` as (value, stderr)."""
    (value, se), = stream_pass(model, G, n, seed, (r,), [Query(phi, "cdf")]).results
    return float(value[0]), float(se[0])


class TestCdfEstimate:
    def test_total_mass(self, iid3):
        value, se = sublevel_integral(iid3, Coordinate(1), ONE, 1e9, 10 ** 5, seed=3)
        assert value == pytest.approx(1.0, abs=4 * max(se, 1e-12))
        assert value == 1.0  # every sample is below r

    def test_symmetry_at_zero(self, iid3):
        value, se = sublevel_integral(iid3, Coordinate(1), ONE, 0.0, 10 ** 5, seed=5)
        assert abs(value - 0.5) <= 4 * se

    def test_chi_square_cdf(self, iid5):
        # oracle: P(chi2_5 < 5) = 0.58412
        value, se = sublevel_integral(iid5, Norm2(), ONE, 5.0, 10 ** 6, seed=7)
        oracle = float(stats.chi2.cdf(5.0, df=5))
        assert oracle == pytest.approx(0.58412, abs=1e-5)
        assert abs(value - oracle) <= 4 * se


class TestDivergenceEstimator:
    def test_normal_density_at_zero(self, iid3):
        job = DensityJob(model=iid3, G=Coordinate(1), phi=ONE, r_grid=(0.0,),
                         n=10 ** 6, seed=11, estimator="divergence")
        curve = estimate_density(job)["divergence"]
        target = 1.0 / np.sqrt(2 * np.pi)
        assert curve.estimates[0] == pytest.approx(target, rel=0.01)
        assert abs(curve.estimates[0] - target) <= 4 * curve.stderrs[0]

    def test_chi5_density(self, iid5):
        job = DensityJob(model=iid5, G=Norm2(), phi=ONE, r_grid=(5.0,),
                         n=10 ** 6, seed=13, estimator="divergence")
        curve = estimate_density(job)["divergence"]
        oracle = float(stats.chi2.pdf(5.0, df=5))
        assert oracle == pytest.approx(0.12204, abs=1e-5)
        assert curve.estimates[0] == pytest.approx(oracle, rel=0.02)
        assert curve.excluded_fraction == 0.0

    def test_bm_endpoint_truncated_variance(self):
        m = build_model(("kl_brownian", 16))
        sigma2 = float(np.sum(2.0 * m.spectrum))
        assert sigma2 == pytest.approx(0.98734, abs=5e-6)
        job = DensityJob(model=m, G=BmEndpoint(m), phi=ONE, r_grid=(0.0,),
                         n=10 ** 6, seed=17, estimator="divergence")
        curve = estimate_density(job)["divergence"]
        oracle = float(stats.norm.pdf(0.0, scale=np.sqrt(sigma2)))
        assert oracle == pytest.approx(0.40149, abs=1e-5)
        assert curve.estimates[0] == pytest.approx(oracle, rel=0.01)

    def test_d2_carries_variance_flag(self):
        # 1/|grad norm2| has tail index d, so its fourth moment diverges at
        # d = 2 and 3; a constant gradient norm has no tail.  No d = 5 absence
        # is pinned: the fixed HILL_MARGIN flags d = 5 on about 1 seed in 20
        for d, G, flagged in ((2, Norm2(), True), (3, Norm2(), True),
                              (2, Coordinate(1), False)):
            m = build_model(("iid_gaussian", d))
            job = DensityJob(model=m, G=G, phi=ONE, r_grid=(1.0,),
                             n=2 * 10 ** 5, seed=19, estimator="divergence")
            curve = estimate_density(job)["divergence"]
            assert (VARIANCE_UNRELIABLE in curve.flags) == flagged, (d, G.name)

    def test_fd_gradient_flagged(self, iid3):
        from glset import UserFunctional

        G = UserFunctional(eval=lambda xi: xi[:, 0], name="xi1-cb")
        job = DensityJob(model=iid3, G=G, phi=ONE, r_grid=(0.0,),
                         n=10 ** 4, seed=23, estimator="divergence")
        assert "approximate-gradient" in estimate_density(job)["divergence"].flags

    def test_constant_G_is_all_excluded(self, iid3):
        # grad G = 0 at every sample: an empty sum reads 0 with stderr 0,
        # and only the flag says the curve holds no data
        job = DensityJob(model=iid3, G=Constant(1.0), phi=ONE, r_grid=(1.0, 2.0),
                         n=20000, seed=3, estimator="divergence")
        curve = estimate_density(job)["divergence"]
        assert curve.excluded_fraction == 1.0
        assert "all-excluded" in curve.flags
        job = DensityJob(model=iid3, G=Norm2(), phi=ONE, r_grid=(1.0, 2.0),
                         n=20000, seed=3, estimator="divergence")
        assert "all-excluded" not in estimate_density(job)["divergence"].flags


class TestMollifiedEstimator:
    def test_normal_density_at_one(self, iid3):
        job = DensityJob(model=iid3, G=Coordinate(1), phi=ONE, r_grid=(1.0,),
                         n=10 ** 6, seed=29, epsilon=0.05, estimator="mollified")
        curve = estimate_density(job)["mollified"]
        target = float(stats.norm.pdf(1.0))
        # O(eps^2) smoothing bias plus Monte Carlo noise
        tol = target * 0.05 ** 2 + 4 * curve.stderrs[0]
        assert abs(curve.estimates[0] - target) <= tol

    def test_odd_weight_vanishes(self, iid5):
        phi = Coordinate(2)
        job = DensityJob(model=iid5, G=Norm2(), phi=phi, r_grid=(3.0,),
                         n=10 ** 5, seed=31, estimator="mollified")
        curve = estimate_density(job)["mollified"]
        assert abs(curve.estimates[0]) <= 4 * curve.stderrs[0]

    def test_empty_sublevel_is_exactly_zero(self, iid5):
        job = DensityJob(model=iid5, G=Norm2(), phi=ONE, r_grid=(-1.0,),
                         n=10 ** 4, seed=37, epsilon=0.5, estimator="mollified")
        curve = estimate_density(job)["mollified"]
        assert curve.estimates[0] == 0.0
        assert curve.window_counts[0] == 0
        assert curve.unresolved[0]
        assert "unresolved-bins" in curve.flags

    def test_default_bandwidth_reported(self, iid3):
        job = DensityJob(model=iid3, G=Coordinate(1), phi=ONE, r_grid=(0.0,),
                         n=10 ** 5, seed=41, estimator="mollified")
        curve = estimate_density(job)["mollified"]
        assert curve.epsilon is not None and curve.epsilon > 0
        # bandwidth rule: max(0.01, 2 IQR n^(-1/3)); IQR of N(0,1) is 1.349
        assert curve.epsilon == pytest.approx(2 * 1.349 * (10 ** 5) ** (-1 / 3),
                                              rel=0.05)


class TestInvariants:
    def test_estimator_agreement_small(self, iid5):
        phi = ExpressionFunctional("exp(-norm2())")
        job = DensityJob(model=iid5, G=Norm2(), phi=phi,
                         r_grid=tuple(np.linspace(1, 9, 9)), n=2 * 10 ** 5,
                         seed=43, estimator="both")
        curves = estimate_density(job)
        div, moll = curves["divergence"], curves["mollified"]
        band = 4 * np.hypot(div.stderrs, moll.stderrs)
        assert np.all(np.abs(div.estimates - moll.estimates) <= band)

    def test_linearity_with_shared_samples(self, iid5):
        phi = ExpressionFunctional("exp(-norm2())")
        chi = Coordinate(1)
        combo = ExpressionFunctional("2*exp(-norm2()) - 3*xi(1)")
        grid = (2.0, 4.0, 6.0)
        kw = dict(model=iid5, G=Norm2(), r_grid=grid, n=10 ** 5, seed=47,
                  estimator="divergence")
        q_phi = estimate_density(DensityJob(phi=phi, **kw))["divergence"].estimates
        q_chi = estimate_density(DensityJob(phi=chi, **kw))["divergence"].estimates
        q_combo = estimate_density(DensityJob(phi=combo, **kw))["divergence"].estimates
        assert np.allclose(q_combo, 2.0 * q_phi - 3.0 * q_chi, rtol=1e-12,
                           atol=1e-15)

    def test_positivity_of_nonnegative_weights(self, iid5):
        phi = ExpressionFunctional("exp(-norm2())")
        job = DensityJob(model=iid5, G=Norm2(), phi=phi,
                         r_grid=(1.0, 3.0, 5.0), n=10 ** 5, seed=53,
                         estimator="both")
        curves = estimate_density(job)
        for curve in curves.values():
            assert np.all(curve.estimates >= -4 * curve.stderrs)

    def test_cdf_monotone_in_r_exactly(self, iid5):
        # nonnegative weight, shared samples: sorted prefix sums make the
        # weighted CDF exactly nondecreasing along the grid
        phi = ExpressionFunctional("exp(-norm2())")
        grid = np.linspace(0.1, 12.0, 40)
        values = [sublevel_integral(iid5, Norm2(), phi, r, 10 ** 5, seed=59)[0]
                  for r in grid]
        assert np.all(np.diff(values) >= 0.0)

    def test_bounded_density_stable_under_refinement(self, iid3):
        kw = dict(model=iid3, G=Coordinate(1), phi=ONE, n=2 * 10 ** 5, seed=61,
                  estimator="divergence")
        coarse = estimate_density(DensityJob(
            r_grid=tuple(np.linspace(-3, 3, 13)), **kw))["divergence"]
        fine = estimate_density(DensityJob(
            r_grid=tuple(np.linspace(-3, 3, 49)), **kw))["divergence"]
        assert np.max(np.abs(fine.estimates)) <= np.max(np.abs(coarse.estimates)) + 0.01
        assert np.isfinite(fine.estimates).all()

    def test_total_integral_near_one_divergence(self, iid3):
        grid = np.linspace(-5.0, 5.0, 101)
        job = DensityJob(model=iid3, G=Coordinate(1), phi=ONE,
                         r_grid=tuple(grid), n=10 ** 6, seed=67,
                         estimator="divergence")
        curve = estimate_density(job)["divergence"]
        assert np.trapezoid(curve.estimates, grid) == pytest.approx(1.0, abs=0.02)

    def test_total_integral_near_one_mollified(self, iid5):
        grid = np.linspace(0.0, 25.0, 126)
        job = DensityJob(model=iid5, G=Norm2(), phi=ONE, r_grid=tuple(grid),
                         n=2 * 10 ** 5, seed=67, estimator="mollified")
        curve = estimate_density(job)["mollified"]
        assert np.trapezoid(curve.estimates, grid) == pytest.approx(1.0, abs=0.02)


class TestDeterminism:
    def test_same_job_same_curve(self, iid5):
        job = DensityJob(model=iid5, G=Norm2(), phi=ONE, r_grid=(1.0, 3.0),
                         n=10 ** 5, seed=71, estimator="both")
        a = estimate_density(job)
        b = estimate_density(job)
        for key in a:
            assert np.array_equal(a[key].estimates, b[key].estimates)
            assert np.array_equal(a[key].stderrs, b[key].stderrs)

    def test_thread_count_does_not_change_results(self, iid5, monkeypatch):
        job = DensityJob(model=iid5, G=Norm2(), phi=ONE, r_grid=(1.0, 3.0),
                         n=10 ** 5, seed=73, estimator="both")
        monkeypatch.setenv("GLSET_THREADS", "1")
        a = estimate_density(job)
        monkeypatch.setenv("GLSET_THREADS", "4")
        b = estimate_density(job)
        for key in a:
            assert a[key].estimates.tobytes() == b[key].estimates.tobytes()
            assert a[key].stderrs.tobytes() == b[key].stderrs.tobytes()
            assert a[key].flags == b[key].flags
            assert a[key].excluded_fraction == b[key].excluded_fraction
            assert np.array_equal(a[key].window_counts, b[key].window_counts)

    @pytest.mark.parametrize("text", ["abc", "0", "-2", "1.5", ""])
    def test_thread_count_must_be_a_positive_integer(self, monkeypatch, text):
        monkeypatch.setenv("GLSET_THREADS", text)
        with pytest.raises(ValueError, match="GLSET_THREADS"):
            thread_count()


class TestHillTail:
    """The pass's Hill tail is the k + 1 smallest gradient norms of the whole
    stream, folded from owned per-chunk copies, never views into chunk buffers."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("text", ["norm2()", "min(norm2(), 6)"])
    @pytest.mark.parametrize("n", [10_000, 2 * CHUNK_SIZE, 39 * CHUNK_SIZE + 100])
    def test_tail_is_smallest_norms_of_the_stream(self, iid3, monkeypatch, threads, text, n):
        seen = []
        monkeypatch.setattr(density, "hill_tail_index",
                            lambda g: seen.append(np.array(g)) or hill_tail_index(g))
        monkeypatch.setenv("GLSET_THREADS", threads)
        G = ExpressionFunctional(text)
        estimate_density(DensityJob(model=iid3, G=G, phi=ONE, r_grid=(1.0,), n=n,
                                    seed=31, estimator="divergence"))
        grad = G.gradient(sample(iid3, n, 31))
        s = rowsum(grad * grad)
        norms = np.sqrt(s)[~KernelField.excluded(s)]
        if text.startswith("min"):
            assert len(norms) < n  # the flat region's rows are excluded
        want = np.sort(norms)[:hill_k(n) + 1]
        got, = seen
        assert np.sort(got).tobytes() == want.tobytes()

    def test_tail_fold_under_frequent_thread_switches(self, iid3, monkeypatch):
        # more workers than cores and a 1 us switch interval: a fold lost to
        # a race would drop a chunk's norms from the tail
        seen = []
        monkeypatch.setattr(density, "hill_tail_index",
                            lambda g: seen.append(np.array(g)) or hill_tail_index(g))
        monkeypatch.setenv("GLSET_THREADS", "8")
        n = 48 * CHUNK_SIZE
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            estimate_density(DensityJob(model=iid3, G=Norm2(), phi=ONE, r_grid=(1.0,), n=n,
                                        seed=37, estimator="divergence"))
        finally:
            sys.setswitchinterval(interval)
        grad = Norm2().gradient(sample(iid3, n, 37))
        want = np.sort(np.sqrt(rowsum(grad * grad)))[:hill_k(n) + 1]
        got, = seen
        assert np.sort(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [0, 5, 3000])
    def test_smallest_norms_owns_its_values(self, size):
        kept = smallest_norms(np.random.default_rng(3).random(size), 100)
        assert kept.base is None
        assert len(kept) == min(size, 101)


class TestPassMemory:
    """A pass holds per chunk its grid rows and window counts, and one tail of
    hill_k + 1 norms; the traced peak grows by well under 16 KB per chunk."""

    @staticmethod
    def peak_growth(run):
        peaks = []
        for chunks in (16, 64):
            tracemalloc.start()
            try:
                run(chunks * CHUNK_SIZE)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks[1] - peaks[0]

    def test_density_pass_peak_does_not_scale_with_chunk_buffers(self, iid5, monkeypatch):
        monkeypatch.setenv("GLSET_THREADS", "1")
        growth = self.peak_growth(lambda n: estimate_density(DensityJob(
            model=iid5, G=Norm2(), phi=ONE, r_grid=(1.0, 3.0, 5.0), n=n, seed=17,
            estimator="divergence")))
        assert growth <= 1.5e6

    def test_surface_report_peak_does_not_scale_with_chunk_buffers(self, iid5, monkeypatch):
        monkeypatch.setenv("GLSET_THREADS", "1")
        phi = ExpressionFunctional("exp(-norm2())")
        growth = self.peak_growth(lambda n: surface_report(
            SurfaceMeasureHandle(model=iid5, G=Norm2(), r=5.0, n=n, seed=19),
            [phi], k_list=(1,)))
        assert growth <= 1.5e6


class TestSmoothness:
    def test_fd_of_cdf_matches_divergence(self, iid3):
        # central differences of the CDF with step 0.05 (the mollified route)
        # against the divergence route, in combined standard errors
        div, fd = stream_pass(iid3, Coordinate(1), 2 * 10 ** 5, 79, np.linspace(-2, 2, 9),
                              [Query(ONE, "divergence"), Query(ONE, "mollified")],
                              epsilon=0.05).results
        band = np.hypot(div.stderrs, fd.stderrs)
        assert np.all(np.abs(fd.estimates - div.estimates) <= 4.0 * band)

    def test_lipschitz_weight_gives_continuous_curve(self, iid3):
        # conditioning on xi_1 makes the weighted density min(1,|r|) gamma(r)
        # in closed form; the estimate must track this continuous curve
        # pointwise, and its bin-to-bin increments must match the oracle's
        # increments within noise (bare increments are slope-dominated, so a
        # raw jump-size bound would trip on the deterministic trend)
        phi = ExpressionFunctional("min(1, abs(xi(1)))")
        grid = np.linspace(-2, 2, 81)
        oracle = np.minimum(1.0, np.abs(grid)) * stats.norm.pdf(grid)
        job = DensityJob(model=iid3, G=Coordinate(1), phi=phi,
                         r_grid=tuple(grid), n=2 * 10 ** 5, seed=83,
                         estimator="both")
        curves = estimate_density(job)
        lip = np.max(np.abs(np.diff(oracle))) / (grid[1] - grid[0])
        for curve in curves.values():
            assert np.all(np.isfinite(curve.estimates))
            tol = 5 * curve.stderrs
            if curve.estimator == "mollified":
                # the density itself is only Lipschitz (kink at 0), so the
                # window average carries an O(Lip * eps) smoothing bias
                tol = tol + 0.5 * lip * curve.epsilon
            assert np.all(np.abs(curve.estimates - oracle) <= tol)
            jump_err = np.abs(np.diff(curve.estimates) - np.diff(oracle))
            bands = 5 * np.hypot(curve.stderrs[1:], curve.stderrs[:-1])
            if curve.estimator == "mollified":
                bands = bands + 0.5 * lip * curve.epsilon
            assert np.all(jump_err <= bands)

    def test_zero_weight_identically_zero(self, iid3):
        zero = Constant(0.0)
        div, fd = stream_pass(iid3, Coordinate(1), 10 ** 4, 89, np.linspace(-1, 1, 5),
                              [Query(zero, "divergence"), Query(zero, "mollified")],
                              epsilon=0.05).results
        assert np.all(fd.estimates == 0.0)
        assert np.all(div.estimates == 0.0)


def chunk_stream_misses(model, n=40_000, seed=91):
    """Whether the chunks of a pass, in index order, are not the batch
    ``sample`` returns: ``["chunks"]`` or ``[]``."""
    chunks = density.map_chunks(model, n, seed, lambda i, pts: pts.copy())
    return [] if np.array_equal(np.concatenate(chunks), sample(model, n, seed)) else ["chunks"]


class TestChunkStreaming:
    def test_map_chunks_sees_the_sample_batch(self, iid3):
        # the streaming path regenerates exactly the points sample() returns
        assert chunk_stream_misses(iid3) == []


class TestBatchMeans:
    def test_equal_chunks_match_textbook_formula(self):
        sums = np.array([10.0, 12.0, 8.0, 11.0])
        counts = np.array([100.0] * 4)
        mean, se = batch_mean_stderr(sums[:, None], counts)
        m = sums / counts
        assert mean == pytest.approx(m.mean())
        assert se == pytest.approx(m.std(ddof=1) / 2.0)

    def test_single_chunk_gives_nan_stderr(self):
        mean, se = batch_mean_stderr(np.array([5.0])[:, None], np.array([10.0]))
        assert mean == 0.5 and np.isnan(se)

    def test_single_chunk_curves_say_why_stderrs_are_nan(self, iid3):
        job = DensityJob(model=iid3, G=Norm2(), phi=ONE, r_grid=(1.0, 2.0),
                         n=1000, seed=5, estimator="both")
        for curve in estimate_density(job).values():
            assert np.isnan(curve.stderrs).all()
            assert INSUFFICIENT_BATCHES in curve.flags
        two_chunks = dataclasses.replace(job, n=20000)
        for curve in estimate_density(two_chunks).values():
            assert np.isfinite(curve.stderrs).all()
            assert INSUFFICIENT_BATCHES not in curve.flags


class TestValidation:
    def test_empty_grid_rejected(self, iid3):
        with pytest.raises(ValueError):
            DensityJob(model=iid3, G=Norm2(), phi=ONE, r_grid=(), n=10, seed=1)

    def test_unsorted_grid_rejected(self, iid3):
        with pytest.raises(ValueError):
            DensityJob(model=iid3, G=Norm2(), phi=ONE, r_grid=(1.0, 1.0),
                       n=10, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["r_grid", "epsilon", "stream_pass", "sphere"])
    def test_nonfinite_level_or_bandwidth_rejected(self, iid3, where, bad):
        calls = {
            "r_grid": lambda: DensityJob(model=iid3, G=Norm2(), phi=ONE,
                                         r_grid=(1.0, bad), n=10, seed=1),
            "epsilon": lambda: DensityJob(model=iid3, G=Norm2(), phi=ONE,
                                          r_grid=(1.0,), n=10, seed=1, epsilon=bad),
            "stream_pass": lambda: stream_pass(iid3, Norm2(), 10, 1, (1.0,),
                                               [Query(ONE, "mollified")], epsilon=bad),
            "sphere": lambda: sphere_quadrature(ONE, 3, bad),
        }
        with pytest.raises(ValueError, match="finite|positive"):
            calls[where]()

    def test_nonfinite_values_fault(self, iid3):
        from glset import NumericalFault, UserFunctional

        bad = UserFunctional(eval=lambda xi: np.where(xi[:, 0] > 0, np.nan, 1.0),
                             name="bad")
        job = DensityJob(model=iid3, G=bad, phi=ONE, r_grid=(0.0,), n=100,
                         seed=1, estimator="mollified", epsilon=0.1)
        with pytest.raises(NumericalFault):
            estimate_density(job)["mollified"]
