import tracemalloc

import numpy as np
import pytest
from scipy import stats

from glset import (Constant, Coordinate, Norm2, UserFunctional,
                   conditional_vs_surface, density, disintegrate,
                   support_check, verify_disintegration)
from glset.density import INSUFFICIENT_BATCHES
from glset.expressions import ExpressionFunctional
from glset.model import chunk_layout, sample

ONE = Constant(1.0)

# a smooth G, one with an atom (ties) and one with zeros of both signs
TIE_GS = [
    Norm2(),
    ExpressionFunctional("min(norm2(), 6)"),
    # about a third of the values are zeros, of both signs
    UserFunctional(lambda xi: np.where(np.abs(xi[:, 0]) < 0.4, 0.0 * xi[:, 0],
                                       xi[:, 0]), name="signed-zeros"),
]


class TestDisintegrate:
    def test_equiprobable_bins(self, iid3):
        D = disintegrate(iid3, Coordinate(1), 10 ** 6, seed=7, bins=10)
        se = np.sqrt(0.1 * 0.9 / 10 ** 6)
        assert np.all(np.abs(D.weights - 0.1) < 4 * se)
        assert D.weights.sum() == 1.0

    @pytest.mark.parametrize("G", TIE_GS, ids=lambda G: G.name)
    @pytest.mark.parametrize("bins", [7, 200])
    def test_quantile_edges_are_numpys(self, iid5, G, bins):
        # the edges are read off the sorted values; they must keep the bits of
        # np.quantile over the values in stream order
        D = disintegrate(iid5, G, 40_000, seed=71, bins=bins)
        want = np.quantile(D.g_values, np.linspace(0.0, 1.0, bins + 1))
        assert D.edges.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", ["quantile", "fixed"])
    def test_bin_starts_on_many_ties(self, iid3, scheme):
        # a G with 12 values: most edges fall on a tie, where the starts need
        # the sorted values themselves, not the partition np.quantile leaves
        G = UserFunctional(lambda xi: np.floor(np.clip(2.0 * xi[:, 0], -6.0, 5.0)),
                           name="steps")
        D = disintegrate(iid3, G, 40_000, seed=73, bins=15, scheme=scheme)
        want = np.searchsorted(np.sort(D.g_values), D.edges, side="left")
        want[-1] = D.n
        assert D.start.tolist() == want.tolist()

    @pytest.mark.parametrize("G", TIE_GS, ids=lambda G: G.name)
    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_bin_sums_match_per_chunk_bincount(self, iid5, G, threads, monkeypatch):
        # reference: np.bincount of each chunk of the sample, summed in chunk
        # order; the pass must give its bits at any worker count
        monkeypatch.setenv("GLSET_THREADS", threads)
        n, bins = 40_000, 200
        phis = [ONE, ExpressionFunctional("exp(-norm2())")]
        D = disintegrate(iid5, G, n, seed=71, bins=bins, phis=phis)
        points = sample(iid5, n, seed=71)
        ends = np.cumsum([size for _, size in chunk_layout(n)])[:-1]
        chunks = [(np.searchsorted(D.edges[1:-1], G.value(pts), side="right"), pts)
                  for pts in np.split(points, ends)]
        for phi, got in zip(phis, D.binned):
            per_chunk = [np.broadcast_to(phi.value(pts), (len(pts),))
                         for _, pts in chunks]
            want = [np.sum([np.bincount(b, weights=w, minlength=bins)
                            for (b, _), w in zip(chunks, per_chunk)], axis=0),
                    np.sum([np.bincount(b, weights=w * w, minlength=bins)
                            for (b, _), w in zip(chunks, per_chunk)], axis=0)]
            assert got.phi_name == phi.name
            assert got.sums.tobytes() == want[0].tobytes()
            assert got.sumsq.tobytes() == want[1].tobytes()
            assert got.total == float(np.sum([float(np.sum(w)) for w in per_chunk]))
        assert np.array_equal(D.counts, np.sum([np.bincount(b, minlength=bins)
                                                for b, _ in chunks], axis=0))

    def test_constant_weight_holds_no_column(self, iid3):
        # a held column of the weight's values would add 8 n bytes to the peak
        n, peaks = 200_000, []
        for phis in ([], [ONE]):
            tracemalloc.start()
            try:
                disintegrate(iid3, Coordinate(1), n, seed=3, bins=20, phis=phis)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4 * n

    def test_duplicate_weight_names_rejected(self, iid3):
        with pytest.raises(ValueError, match="distinct names"):
            disintegrate(iid3, Coordinate(1), 1000, seed=1, bins=5,
                         phis=[ONE, Constant(1.0)])

    def test_fixed_bins_match_chi5_probabilities(self, iid5):
        n = 2 * 10 ** 5
        D = disintegrate(iid5, Norm2(), n, seed=11, bins=12, scheme="fixed")
        probs = np.diff(stats.chi2.cdf(D.edges, df=5))
        probs[-1] += 1.0 - stats.chi2.cdf(D.edges[-1], df=5)  # top bin holds the max
        se = np.sqrt(probs * (1 - probs) / n)
        # edges are sample min/max, so boundary mass is only approximate
        assert np.all(np.abs(D.weights - probs) < 5 * se + 2.0 / n)

    def test_every_sample_in_exactly_one_bin(self, iid3):
        D = disintegrate(iid3, Coordinate(1), 5000, seed=13, bins=7)
        assert int(D.counts.sum()) == 5000
        seen = np.concatenate([D.bin_indices(j) for j in range(D.bins)])
        assert np.array_equal(np.sort(seen), np.arange(5000))

    def test_degenerate_two_samples(self, iid3):
        D = disintegrate(iid3, Coordinate(1), 2, seed=17, bins=2)
        assert D.counts.tolist() == [1, 1]
        assert D.weights.tolist() == [0.5, 0.5]

    def test_validation(self, iid3):
        with pytest.raises(ValueError):
            disintegrate(iid3, Coordinate(1), 10, seed=1, bins=1)
        with pytest.raises(ValueError):
            disintegrate(iid3, Coordinate(1), 3, seed=1, bins=5)

    def test_bad_scheme_rejected_before_sampling(self, iid3, monkeypatch):
        calls = []
        # the pass is made by density.map_chunks, through Plan.run
        monkeypatch.setattr(density, "map_chunks", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="scheme"):
            disintegrate(iid3, Coordinate(1), 10 ** 6, seed=1, bins=10,
                         scheme="equal")
        assert calls == []

    def test_boundary_levels_belong_to_edge_bins(self, iid3):
        D = disintegrate(iid3, Coordinate(1), 1000, seed=3, bins=5)
        assert D.bin_of(float(D.edges[0])) == 0
        assert D.bin_of(float(D.edges[-1])) == D.bins - 1
        with pytest.raises(ValueError):
            D.bin_of(float(D.edges[-1]) + 1.0)


class TestTowerIdentity:
    @pytest.mark.parametrize("phi", [ONE, Coordinate(1),
                                     ExpressionFunctional("exp(-norm2())")],
                             ids=["one", "xi1", "gauss"])
    def test_exact_with_shared_samples(self, iid3, phi):
        D = disintegrate(iid3, Coordinate(1), 2 * 10 ** 5, seed=19, bins=50,
                         phis=[phi])
        rec = verify_disintegration(D, *D.binned)
        assert rec.rel_error <= 1e-12

    def test_constant_weight_gives_one(self, iid3):
        D = disintegrate(iid3, Coordinate(1), 10 ** 4, seed=23, bins=20, phis=[ONE])
        rec = verify_disintegration(D, *D.binned)
        assert rec.plain_mean == 1.0
        assert rec.weighted_sum == pytest.approx(1.0, abs=1e-14)

    def test_centered_weight_near_zero(self, iid3):
        D = disintegrate(iid3, Coordinate(1), 10 ** 5, seed=29, bins=20,
                         phis=[Coordinate(1)])
        rec = verify_disintegration(D, *D.binned)
        assert abs(rec.plain_mean) < 4 / np.sqrt(10 ** 5)
        assert rec.rel_error <= 1e-12

    def test_partition_independent(self, iid3):
        phi = ExpressionFunctional("exp(-norm2())")
        coarse = disintegrate(iid3, Coordinate(1), 10 ** 5, seed=31, bins=25,
                              phis=[phi])
        fine = disintegrate(iid3, Coordinate(1), 10 ** 5, seed=31, bins=50,
                            phis=[phi])
        a = verify_disintegration(coarse, *coarse.binned)
        b = verify_disintegration(fine, *fine.binned)
        assert a.plain_mean == b.plain_mean
        assert a.weighted_sum == pytest.approx(b.weighted_sum, rel=1e-12)


class TestSupport:
    def test_in_bin_range_bounded_by_width(self, iid5):
        D = disintegrate(iid5, Norm2(), 10 ** 5, seed=37, bins=40)
        rec = support_check(D)
        assert rec.contained

    def test_single_wide_binning(self, iid3):
        D = disintegrate(iid3, Coordinate(1), 1000, seed=41, bins=2)
        rec = support_check(D)
        assert rec.contained
        assert rec.in_bin_range.max() <= (D.edges[-1] - D.edges[0])

    def test_refinement_shrinks_occupied_ranges(self, iid3):
        coarse = disintegrate(iid3, Coordinate(1), 10 ** 4, seed=43, bins=10)
        fine = disintegrate(iid3, Coordinate(1), 10 ** 4, seed=43, bins=100)
        assert (support_check(fine).in_bin_range.max()
                <= support_check(coarse).in_bin_range.max())


class TestConditionalVsSurface:
    def test_conditioning_on_coordinate(self, iid3):
        # G = xi_1, phi = xi_1: conditional mean in the bin at r=1 is ~1 and
        # the product q1 * 1 matches the surface moment q_{xi1}(1) = gamma(1)
        n = 10 ** 6
        xi1 = Coordinate(1)
        D = disintegrate(iid3, Coordinate(1), n, seed=47, bins=200, phis=[xi1])
        rec, = conditional_vs_surface(D, xi1, [1.0])
        assert rec.conditional_mean == pytest.approx(1.0, abs=0.02)
        assert rec.product == pytest.approx(float(stats.norm.pdf(1.0)), rel=0.02)
        assert rec.surface_value == pytest.approx(float(stats.norm.pdf(1.0)),
                                                  rel=0.02)
        assert rec.within_band

    def test_normalization_constant_weight(self, iid5):
        n = 2 * 10 ** 5
        D = disintegrate(iid5, Norm2(), n, seed=53, bins=100, phis=[ONE])
        rec, = conditional_vs_surface(D, ONE, [4.0])
        assert rec.conditional_mean == 1.0
        assert rec.product == rec.q1
        assert rec.within_band

    def test_odd_weight_both_routes_zero(self, iid5):
        n = 2 * 10 ** 5
        xi2 = Coordinate(2)
        D = disintegrate(iid5, Norm2(), n, seed=59, bins=100, phis=[xi2])
        rec, = conditional_vs_surface(D, xi2, [5.0])
        assert abs(rec.product) <= rec.band
        assert abs(rec.surface_value) <= rec.band
        assert rec.within_band

    def test_records_carry_the_curve_flags(self, iid5):
        # n = 10000 is one chunk: the q1 and surface curves have NaN stderrs,
        # and so does the band; a value-only weight's curve says it is
        # approximate
        phi = UserFunctional(lambda xi: np.exp(-np.sum(xi * xi, axis=1)), name="gauss")
        D = disintegrate(iid5, Norm2(), 10 ** 4, seed=61, bins=20, phis=[phi])
        rec, = conditional_vs_surface(D, phi, [4.0])
        assert np.isnan(rec.band)
        assert INSUFFICIENT_BATCHES in rec.flags
        assert "approximate-gradient" in rec.flags
        assert len(set(rec.flags)) == len(rec.flags)

    def test_nan_band_is_unresolved(self, iid5):
        # one chunk: the band is NaN, which is no verdict, so the record is
        # unresolved and does not fail the band
        g = ExpressionFunctional("exp(-norm2())")
        D = disintegrate(iid5, Norm2(), 10 ** 4, seed=3, bins=20, phis=[g])
        recs = conditional_vs_surface(D, g, [2.0, 4.0, 6.0])
        assert all(np.isnan(rec.band) for rec in recs)
        assert all(rec.unresolved and rec.within_band for rec in recs)

    def test_level_outside_range_rejected(self, iid5):
        D = disintegrate(iid5, Norm2(), 10 ** 4, seed=61, bins=20, phis=[ONE])
        with pytest.raises(ValueError):
            conditional_vs_surface(D, ONE, [-3.0])

    def test_phi_not_among_weights_rejected(self, iid5):
        D = disintegrate(iid5, Norm2(), 10 ** 4, seed=61, bins=20,
                         phis=[Coordinate(1)])
        with pytest.raises(ValueError, match="not a bin weight"):
            conditional_vs_surface(D, ONE, [4.0])

    def test_empty_bin_reports_unresolved(self, iid5):
        # prepend bins below the data so an interior-by-index bin is empty
        import dataclasses

        D = disintegrate(iid5, Norm2(), 10 ** 4, seed=61, bins=20,
                         phis=[ONE], scheme="fixed")
        lo = float(D.g_values.min())
        edges = np.concatenate([[lo - 2.0, lo - 1.0], D.edges])
        g_sorted = D.g_values[D.order]
        start = np.empty(len(edges), dtype=D.start.dtype)
        start[0], start[-1] = 0, D.n
        start[1:-1] = np.searchsorted(g_sorted, edges[1:-1], side="left")
        # the prepended bins hold no sample, so their sums are zero
        sums, = D.binned
        zeros = np.zeros(2)
        binned = dataclasses.replace(sums, sums=np.concatenate([zeros, sums.sums]),
                                     sumsq=np.concatenate([zeros, sums.sumsq]))
        D2 = dataclasses.replace(D, edges=edges, start=start,
                                 counts=np.diff(start), binned=[binned])
        assert 0 in D2.empty_bins and 1 in D2.empty_bins
        rec, = conditional_vs_surface(D2, ONE, [lo - 1.5], estimator="mollified",
                                      epsilon=0.2)
        assert rec.unresolved
        assert rec.within_band  # unresolved records never fail the band

    def test_refinement_within_allowance(self, iid3):
        # halving bin widths moves the conditional route by at most the
        # discretization allowance
        phi = ExpressionFunctional("exp(-norm2())")
        n = 2 * 10 ** 5
        recs = []
        for bins in (100, 200):
            D = disintegrate(iid3, Coordinate(1), n, seed=67, bins=bins, phis=[phi])
            recs += conditional_vs_surface(D, phi, [0.5])
        assert abs(recs[0].product - recs[1].product) <= \
            recs[0].band + recs[1].band
        assert recs[1].bin_width < recs[0].bin_width
