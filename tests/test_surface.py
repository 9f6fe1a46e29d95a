import dataclasses
import types

import numpy as np
import pytest
from scipy import stats

from glset import (Constant, Coordinate, HausdorffRecord, Linear, Norm2, Product,
                   SublevelBump, SurfaceMeasureHandle, build_model, hyperplane_quadrature,
                   ibp_battery, ibp_residuals, positivity_scan, sphere_quadrature,
                   surface_report)
from glset.density import INSUFFICIENT_BATCHES, VARIANCE_UNRELIABLE
from glset.expressions import ExpressionFunctional
from glset.surface import (QUAD_NODES, QUADRATURE_NOT_CONVERGED, sphere_rules,
                           tensor_blocks)

ONE = Constant(1.0)
GAMMA0 = float(stats.norm.pdf(0.0))


def prepend(y, sub):
    """The coordinate ``y`` in front of the points ``sub``: the plain product grid."""
    return np.column_stack([np.broadcast_to(y, len(sub)), sub])


def handle(model, G, r, n=2 * 10 ** 5, seed=101, estimator="divergence", **kw):
    return SurfaceMeasureHandle(model=model, G=G, r=r, n=n, seed=seed,
                                estimator=estimator, **kw)


def integral(h, phi):
    """(value, stderr) of the integral of phi against the handle's measure."""
    return surface_report(h, [phi]).integrals[phi.name]


def ibp_record(h, phi, k):
    """The handle's level-r integration-by-parts record for (phi, k)."""
    rec, = ibp_residuals(h.model, h.G, phi, k, (h.r,), h.n, h.seed, h.estimator,
                         h.epsilon)
    return rec


def trace_of(h, phi):
    return surface_report(h, [phi], with_trace=True).trace


def hausdorff_of(h, phi):
    return surface_report(h, [phi], with_hausdorff=True).hausdorff


class TestSurfaceIntegral:
    def test_total_mass_is_chi5_density(self, iid5):
        h = handle(iid5, Norm2(), 5.0, n=10 ** 6)
        value, se = integral(h, ONE)
        oracle = float(stats.chi2.pdf(5.0, df=5))
        assert value == pytest.approx(oracle, rel=0.02)
        assert abs(value - oracle) <= 4 * se

    def test_odd_weight_vanishes_on_sphere(self, iid5):
        h = handle(iid5, Norm2(), 5.0)
        value, se = integral(h, Coordinate(2))
        assert abs(value) <= 4 * se

    def test_weight_supported_away_from_level_set(self, iid5):
        # phi vanishes on a neighborhood of the level set, so the surface
        # integral must vanish despite a nontrivial sublevel integrand
        h = handle(iid5, Norm2(), 5.0)
        phi = SublevelBump(Norm2(), c=4.0, delta=0.5)
        value, se = integral(h, phi)
        assert abs(value) <= 4 * se

    def test_total_mass_equals_handle_q1_exactly(self, iid5):
        h = handle(iid5, Norm2(), 3.0)
        a, _ = integral(h, ONE)
        report = surface_report(h, [ONE])
        assert report.total_mass == a


class TestIbp:
    def test_constant_weight_closed_form(self, iid3):
        # both sides equal the standard normal density at the level
        rec = ibp_record(handle(iid3, Coordinate(1), 0.0, n=10 ** 6), ONE, 1)
        assert rec.lhs == pytest.approx(GAMMA0, rel=0.01)
        assert rec.rhs == pytest.approx(GAMMA0, rel=0.01)
        assert rec.within_band

    def test_linear_weight_closed_form_zero(self, iid3):
        # E[1_{xi1<0}(1 - xi1^2)] = 0 and the surface moment of xi1 at the
        # hyperplane {xi1=0} is 0
        rec = ibp_record(handle(iid3, Coordinate(1), 0.0, n=10 ** 6),
                         Coordinate(1), 1)
        assert abs(rec.lhs) <= 4 * rec.lhs_stderr
        assert abs(rec.rhs) <= 4 * rec.rhs_stderr
        assert rec.within_band

    def test_zero_weight_both_sides_zero(self, iid3):
        rec = ibp_record(handle(iid3, Coordinate(1), 0.5), Constant(0.0), 1)
        assert rec.lhs == 0.0 and rec.rhs == 0.0

    def test_battery_within_bands(self, iid5):
        # directions up to min(d, 4) on a builtin pair
        phi = ExpressionFunctional("exp(-norm2())")
        for k in (1, 2, 3, 4):
            for rec in ibp_residuals(iid5, Norm2(), phi, k, (2.0, 4.0, 6.0),
                                     2 * 10 ** 5, seed=107):
                assert rec.within_band, (k, rec.r, rec.residual, rec.band)

    def test_single_chunk_record_is_unresolved(self, iid5):
        # n = 10000 is one chunk: NaN stderrs give a band that can neither
        # pass nor fail, and the record says so instead of failing it
        rec = ibp_record(handle(iid5, Norm2(), 5.0, n=10 ** 4), ONE, 1)
        assert np.isnan(rec.band)
        assert rec.unresolved and rec.within_band
        assert INSUFFICIENT_BATCHES in rec.flags
        resolved = ibp_record(handle(iid5, Norm2(), 5.0, n=10 ** 5), ONE, 1)
        assert not resolved.unresolved and resolved.within_band
        # a property, not a field: the asdict artifacts keep their keys
        assert "unresolved" not in dataclasses.asdict(rec)

    def test_selftest_names_an_unresolved_record(self, iid5, monkeypatch):
        from glset import selftest

        rec = ibp_record(handle(iid5, Norm2(), 5.0, n=10 ** 4), ONE, 1)
        monkeypatch.setattr(selftest, "ibp_battery", lambda *args: [rec])
        result = selftest.criterion_4_ibp_battery()
        assert not result.passed
        assert result.detail == (f"case 0 k=1 r=5.0: unresolved record, band nan, "
                                 f"flags {list(rec.flags)}")

    def test_direction_out_of_range(self, iid3):
        with pytest.raises(IndexError):
            ibp_record(handle(iid3, Norm2(), 2.0), ONE, 4)

    def test_records_carry_the_surface_curve_flags(self):
        # |grad norm2|^-4 has no mean at d = 2: the pass flags its divergence
        # curves, and every record carries the flag of its surface side
        d2 = build_model(("iid_gaussian", 2))
        records = ibp_battery(d2, Norm2(), [ONE, ExpressionFunctional("exp(-norm2())")],
                              [1, 2], (1.0, 3.0), 10 ** 5, seed=109)
        assert len(records) == 8
        assert all(VARIANCE_UNRELIABLE in rec.flags for rec in records)


class TestTrace:
    def test_clamped_sequence_converges_and_saturates(self, iid5):
        phi = ExpressionFunctional("exp(-norm2())")
        rep = trace_of(handle(iid5, Norm2(), 4.0), phi)
        assert rep.converged
        # once the clamp radius exceeds every sampled |xi| the truncation is
        # the identity on the sample and the difference is exactly zero
        assert rep.exact_tail
        assert rep.diffs[-1] <= rep.diffs[0] + 4 * rep.target_stderr

    def test_nonnegative_weight_nonnegative_trace(self, iid5):
        phi = ExpressionFunctional("exp(-norm2())")
        rep = trace_of(handle(iid5, Norm2(), 4.0), phi)
        assert rep.target >= -4 * rep.target_stderr

    def test_constant_weight_traces_to_total_mass(self, iid5):
        h = handle(iid5, Norm2(), 4.0)
        rep = trace_of(h, ONE)
        mass, _ = integral(h, ONE)
        assert rep.target == mass
        assert rep.estimates[-1] == mass

    def test_single_chunk_trace_is_unresolved_not_failed(self, iid5):
        # one chunk: NaN stderrs, so |0| <= NaN cannot decide the verdict
        rep = trace_of(handle(iid5, Norm2(), 4.0, n=10 ** 4, seed=5),
                       ExpressionFunctional("exp(-norm2())"))
        assert np.isnan(rep.target_stderr) and np.isnan(rep.stderrs[-1])
        assert rep.exact_tail and rep.diffs[-1] == 0.0
        assert rep.unresolved and rep.converged

    def test_two_chunk_trace_keeps_its_verdict(self, iid5):
        rep = trace_of(handle(iid5, Norm2(), 4.0, n=2 * 10 ** 4, seed=5),
                       ExpressionFunctional("exp(-norm2())"))
        assert np.isfinite(rep.band) and not rep.unresolved
        assert rep.converged and rep.exact_tail
        # a finite band still fails a last level outside it
        off = dataclasses.replace(rep, diffs=rep.diffs[:-1] + (2.0 * rep.band,))
        assert not off.unresolved and not off.converged


class TestPositivity:
    def test_gaussian_level_always_positive(self, iid3):
        scan = positivity_scan(iid3, Coordinate(1), (-2.0, -1.0, 0.0, 1.0, 2.0),
                               2 * 10 ** 5, seed=109)
        assert np.all(scan.estimates > 4 * scan.stderrs)
        assert scan.consistent

    def test_chi5_support_boundary(self, iid5):
        scan = positivity_scan(iid5, Norm2(), (-0.5, 1.0, 5.0), 2 * 10 ** 5,
                               seed=113)
        assert scan.g_min > 0.0
        est = dict(zip(scan.r.tolist(), scan.estimates))
        se = dict(zip(scan.r.tolist(), scan.stderrs))
        assert est[-0.5] == 0.0
        assert est[1.0] > 4 * se[1.0] and est[5.0] > 4 * se[5.0]
        assert scan.consistent

    def test_clipped_functional_upper_bound(self, iid5):
        clipped = ExpressionFunctional("min(norm2(), 6)")
        scan = positivity_scan(iid5, clipped, (3.0, 7.0), 2 * 10 ** 5, seed=127,
                               estimator="mollified")
        assert scan.g_max == pytest.approx(6.0)
        assert scan.estimates[1] == 0.0  # nothing above the clip level
        assert scan.consistent

    def test_single_chunk_scan_says_why_interior_is_not_positive(self, iid5):
        # n = 10000 is one chunk: NaN stderrs leave every level unresolved,
        # not counted against the interval, and the report carries the reason
        scan = positivity_scan(iid5, Norm2(), (1.0, 5.0), 10 ** 4, seed=113)
        assert scan.interior_not_positive == ()
        assert scan.unresolved == (1.0, 5.0)
        assert scan.consistent
        assert np.isnan(scan.stderrs).all()
        assert INSUFFICIENT_BATCHES in scan.flags


class TestQuadratureOracles:
    def test_unit_sphere_areas(self):
        # the sphere rules' weights sum to |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2)
        from scipy.special import gamma

        for d in (2, 3, 4, 5, 6):
            blocks = tensor_blocks(sphere_rules(d, 16), np.zeros(0), prepend)
            area = 2 * np.pi ** (d / 2) / gamma(d / 2)
            assert sum(float(np.sum(w)) for _, w in blocks) == pytest.approx(area, rel=1e-12)

    def test_sphere_value_is_chi_density(self):
        # G = norm2: total surface mass equals the chi-square density
        for d in (2, 3, 5):
            for r in (1.0, 3.0):
                quad = sphere_quadrature(ONE, d, r)
                assert quad == pytest.approx(float(stats.chi2.pdf(r, df=d)),
                                             rel=1e-10)

    def test_sphere_d3_r1_closed_form(self):
        assert sphere_quadrature(ONE, 3, 1.0) == pytest.approx(
            np.exp(-0.5) / np.sqrt(2 * np.pi), rel=1e-12)
        assert sphere_quadrature(ONE, 3, 1.0) == pytest.approx(0.24197, abs=1e-5)

    def test_hyperplane_value_is_normal_density(self):
        # G = w . xi: total mass is the N(0, |w|^2) density at the level
        w = np.array([0.5, 0.5, 0.5, 0.5])
        for r in (0.0, 0.3):
            quad = hyperplane_quadrature(ONE, w, 4, r)
            oracle = float(stats.norm.pdf(r, scale=np.linalg.norm(w)))
            assert quad == pytest.approx(oracle, rel=1e-10)

    def test_hyperplane_d2_r0_closed_form(self):
        quad = hyperplane_quadrature(ONE, np.array([1.0]), 2, 0.0)
        assert quad == pytest.approx(0.39894, abs=1e-5)

    @pytest.mark.parametrize("w", [(0.6, -0.3, 0.8, 0.2, 0.5),
                                   (1.0, 0.5, -0.4, 0.3, 0.2, 0.7)])
    @pytest.mark.parametrize("r", [0.0, 0.7])
    def test_hyperplane_outer_blocks_match_closed_forms(self, w, r):
        # d = 5 and 6 leave 4 and 5 free dimensions: more than the 3 of one
        # block, so the leading rules of tensor_blocks are used
        w = np.asarray(w)
        wn = np.linalg.norm(w)
        mass = float(stats.norm.pdf(r / wn)) / wn
        second_moment = 1.0 - (w[0] / wn) ** 2 + (w[0] * r / wn ** 2) ** 2
        xi1_sq = Product(Coordinate(1), Coordinate(1))
        assert hyperplane_quadrature(ONE, w, len(w), r, nodes=8) == pytest.approx(
            mass, rel=1e-14)
        assert hyperplane_quadrature(xi1_sq, w, len(w), r, nodes=8) == pytest.approx(
            second_moment * mass, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_tensor_blocks_concatenate_to_the_product_grid(self, k):
        # blocks in order, first rule slowest, weights nested from the last rule
        rng = np.random.default_rng(k)
        sizes = (4, 3, 2, 3, 2)[:k]
        rules = [(rng.standard_normal(m), rng.random(m)) for m in sizes]
        blocks = list(tensor_blocks(rules, np.zeros(0), prepend))
        # the last three rules make one block, the leading ones select it
        assert len(blocks) == int(np.prod(sizes[:k - min(k, 3)]))
        grids = np.meshgrid(*[x for x, _ in rules], indexing="ij")
        pts = np.concatenate([p for p, _ in blocks])
        assert np.array_equal(pts, np.stack([g.ravel() for g in grids], axis=1))
        want = np.ones(1)
        for _, w in reversed(rules):
            want = np.multiply.outer(w, want).ravel()
        assert np.concatenate([w for _, w in blocks]).tobytes() == want.tobytes()

    def test_empty_tensor_product_is_the_base_point(self):
        blocks = list(tensor_blocks([], np.array([2.0, 3.0]), prepend))
        assert [(p.tolist(), w.tolist()) for p, w in blocks] == [([[2.0, 3.0]], [1.0])]

    @pytest.mark.parametrize("d", [5, 6])
    def test_sphere_second_moments(self, d):
        # on the sphere |xi|^2 = r each xi_j^2 carries r/d of the mass, and
        # the mixed moment vanishes
        r = 2.0
        mass = float(stats.chi2.pdf(r, df=d))
        first, last = Coordinate(1), Coordinate(d)
        for xi_sq in (Product(first, first), Product(last, last)):
            assert sphere_quadrature(xi_sq, d, r, nodes=16) == pytest.approx(
                r / d * mass, rel=1e-12)
        assert abs(sphere_quadrature(Product(first, last), d, r, nodes=16)) <= 1e-14 * mass

    def test_sphere_level_must_be_positive(self):
        with pytest.raises(ValueError):
            sphere_quadrature(ONE, 3, -1.0)


class TestHausdorffCompare:
    def test_sphere_d3(self, iid3):
        h = handle(iid3, Norm2(), 1.0, n=10 ** 6, estimator="mollified",
                   seed=131)
        rec = hausdorff_of(h, ONE)
        assert rec.geometry == "sphere"
        assert rec.rel_error <= max(0.01, 4 * rec.mc_stderr / rec.quad_value)

    def test_sphere_d5_nontrivial_weight(self, iid5):
        phi = ExpressionFunctional("exp(-norm2())")
        h = handle(iid5, Norm2(), 3.0, n=2 * 10 ** 5, seed=137)
        rec = hausdorff_of(h, phi)
        # oracle factorizes on the sphere: exp(-r) times the surface mass
        assert rec.quad_value == pytest.approx(
            np.exp(-3.0) * float(stats.chi2.pdf(3.0, df=5)), rel=1e-10)
        assert rec.rel_error <= max(0.01, 4 * rec.mc_stderr / rec.quad_value)

    def test_hyperplane_d2(self):
        m = build_model(("iid_gaussian", 2))
        h = handle(m, Coordinate(1), 0.0, n=10 ** 6, seed=139)
        rec = hausdorff_of(h, ONE)
        assert rec.geometry == "hyperplane"
        assert rec.quad_value == pytest.approx(GAMMA0, rel=1e-10)
        assert rec.rel_error <= max(0.01, 4 * rec.mc_stderr / rec.quad_value)

    def test_hyperplane_d4_general_linear(self):
        m = build_model(("iid_gaussian", 4))
        G = Linear([0.5, 0.5, 0.5, 0.5])
        phi = ExpressionFunctional("exp(-norm2())")
        h = handle(m, G, 0.3, n=4 * 10 ** 5, seed=149)
        rec = hausdorff_of(h, phi)
        assert rec.rel_error <= max(0.01, 4 * rec.mc_stderr / abs(rec.quad_value))

    def test_tangential_odd_weight_zero_both_routes(self, iid3):
        h = handle(iid3, Coordinate(1), 0.5, n=2 * 10 ** 5, seed=151)
        phi = Coordinate(2)
        rec = hausdorff_of(h, phi)
        assert abs(rec.quad_value) < 1e-12
        assert abs(rec.mc_value) <= 4 * rec.mc_stderr

    @pytest.mark.parametrize("G, r, rule, by_nodes, tol", [
        (Norm2(), 1.0, lambda phi, m: sphere_quadrature(phi, 3, 1.0, m),
         (0.1246, 0.1219, 0.1212, 0.1210), 1e-4),
        (Linear([1.0, 1.0]), 0.5,
         lambda phi, m: hyperplane_quadrature(phi, np.array([1.0, 1.0]), 3, 0.5, m),
         (0.158, 0.153, 0.158, 0.160), 1e-3)])
    def test_kinked_weight_is_flagged_not_converged(self, iid3, G, r, rule, by_nodes, tol):
        # |xi_1| has a kink on the level set, so doubling the nodes never
        # settles the rule to rounding
        phi = ExpressionFunctional("abs(xi(1))")
        report = surface_report(handle(iid3, G, r, n=20000), [phi], with_hausdorff=True)
        rec = report.hausdorff
        # the curve's flags, then the quadrature's: at d = 3 the fourth
        # inverse moment of |grad norm2| diverges, a linear G has no tail
        curve_flags = (VARIANCE_UNRELIABLE,) if isinstance(G, Norm2) else ()
        assert (rec.nodes, rec.flags) == (QUAD_NODES, curve_flags + (QUADRATURE_NOT_CONVERGED,))
        assert QUADRATURE_NOT_CONVERGED in report.flags
        values = [rule(phi, m) for m in (8, 16, 32, 64)]
        assert values == pytest.approx(by_nodes, abs=tol)
        assert rec.quad_value == values[-1]
        assert rec.quad_error == abs(values[-1] - values[-2]) > 1e-12 * rec.quad_value

    def test_odd_weight_converges_by_sixteen_nodes(self, iid3):
        # xi_1 integrates to rounding on the sphere: the stopping rule scales
        # by the rule's absolute mass, not by |Q|
        rec = hausdorff_of(handle(iid3, Norm2(), 1.0, n=20000), Coordinate(1))
        mass = sphere_quadrature(ONE, 3, 1.0)
        # converged: only the curve's flag, the diverging fourth inverse
        # moment of |grad norm2| at d = 3
        assert rec.nodes <= 16 and rec.flags == (VARIANCE_UNRELIABLE,)
        assert abs(rec.quad_value) <= 1e-14 * mass
        assert rec.quad_error <= 1e-12 * mass

    def test_rule_carries_its_absolute_mass(self):
        xi1, abs_xi1 = Coordinate(1), ExpressionFunctional("abs(xi(1))")
        for nodes in (8, 16):
            assert sphere_quadrature(xi1, 3, 1.0, nodes).mass == sphere_quadrature(
                abs_xi1, 3, 1.0, nodes)
            w = np.array([1.0, 1.0])
            assert hyperplane_quadrature(xi1, w, 3, 0.5, nodes).mass == \
                hyperplane_quadrature(abs_xi1, w, 3, 0.5, nodes)
        assert sphere_quadrature(ONE, 3, 1.0).mass == sphere_quadrature(ONE, 3, 1.0)

    def test_tolerance_counts_the_quadrature_difference(self):
        rec = HausdorffRecord(g_name="norm2", phi_name="1", r=1.0, geometry="sphere",
                              mc_value=1.05, mc_stderr=0.01, quad_value=1.0, nodes=64,
                              quad_error=0.0)
        # 4 s.e. = 0.04 and the difference 0.011 fall short apart, not together
        assert not rec.within_tolerance
        assert not dataclasses.replace(rec, mc_stderr=0.0, quad_error=0.011).within_tolerance
        assert dataclasses.replace(rec, quad_error=0.011).within_tolerance

    def test_single_chunk_record_is_unresolved(self, iid3):
        # n = 10000 is one chunk: a NaN stderr gives a tolerance that can
        # neither pass nor fail, not the 1 % rule alone
        rec = hausdorff_of(handle(iid3, Norm2(), 1.0, n=10 ** 4, estimator="mollified"),
                           ONE)
        assert np.isnan(rec.mc_stderr) and np.isnan(rec.tolerance)
        assert rec.unresolved and rec.within_tolerance
        assert not dataclasses.replace(rec, mc_stderr=0.01).unresolved
        # a property, not a field: the asdict artifacts keep their keys
        assert "unresolved" not in dataclasses.asdict(rec)

    def test_selftest_names_an_unresolved_record(self, iid3, monkeypatch):
        from glset import selftest

        rec = hausdorff_of(handle(iid3, Norm2(), 1.0, n=10 ** 4, estimator="mollified"),
                           ONE)
        monkeypatch.setattr(selftest, "surface_report",
                            lambda *args, **kw: types.SimpleNamespace(hausdorff=rec))
        result = selftest.criterion_5_hausdorff()
        assert not result.passed
        assert result.detail == (f"sphere: unresolved record, tolerance nan, "
                                 f"flags {list(rec.flags)}")

    def test_unsupported_geometry_rejected(self, iid3):
        phi = ExpressionFunctional("exp(-norm2())")
        h = handle(iid3, ExpressionFunctional("norm2() + xi(1)^4"), 1.0)
        with pytest.raises(ValueError):
            hausdorff_of(h, phi)

    def test_dimension_cap_rejected(self):
        m = build_model(("iid_gaussian", 7))
        with pytest.raises(ValueError):
            hausdorff_of(handle(m, Norm2(), 3.0, n=100), ONE)


class TestSurfaceReport:
    def test_duplicate_weight_names_rejected(self, iid5):
        # integrals are keyed by name: a second weight of the same name would
        # overwrite the first
        phis = [ExpressionFunctional("xi(1)^2"), ExpressionFunctional("xi(2)"),
                ExpressionFunctional("xi(1)^2")]
        with pytest.raises(ValueError, match="distinct names"):
            surface_report(handle(iid5, Norm2(), 3.0, n=1000), phis)

    def test_report_assembles_all_parts(self, iid5):
        phi = ExpressionFunctional("exp(-norm2())")
        h = handle(iid5, Norm2(), 3.0, n=10 ** 5)
        report = surface_report(h, [phi], k_list=(1,), with_trace=True,
                                with_hausdorff=True)
        assert report.total_mass > 0
        assert phi.name in report.integrals
        assert len(report.ibp) == 1 and report.ibp[0].k == 1
        assert report.trace is not None and report.trace.converged
        assert report.hausdorff is not None
        assert report.hausdorff.geometry == "sphere"


class TestSingleRouteEstimator:
    """A surface call answers along one density route; any other estimator
    is refused before the pass draws a chunk."""

    @staticmethod
    def calls(model):
        from glset.disintegration import surface_side_plan
        from glset.surface import ibp_plan

        G = Norm2()
        return {
            "handle": lambda est: handle(model, G, 3.0, n=40_000, estimator=est),
            "surface_side_plan": lambda est: surface_side_plan(
                model, G, 40_000, 1, ONE, (3.0,), est),
            "ibp_plan": lambda est: ibp_plan(model, G, [ONE], (1,), (3.0,), 40_000, 1, est),
            "ibp_battery": lambda est: ibp_battery(model, G, [ONE], (1,), (3.0,), 40_000,
                                                   1, est),
            "ibp_residuals": lambda est: ibp_residuals(model, G, ONE, 1, (3.0,), 40_000,
                                                       1, est),
            "positivity_scan": lambda est: positivity_scan(model, G, (3.0,), 40_000, 1,
                                                           est),
        }

    @pytest.mark.parametrize("estimator", ["cdf", "both", "Divergence"])
    @pytest.mark.parametrize("entry", ["handle", "surface_side_plan", "ibp_plan",
                                       "ibp_battery", "ibp_residuals", "positivity_scan"])
    def test_refused_before_any_chunk(self, iid5, monkeypatch, entry, estimator):
        from glset import density

        def no_draw(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(density, "draw_chunk", no_draw)
        with pytest.raises(ValueError, match="estimator must be divergence or "
                                             f"mollified, got '{estimator}'"):
            self.calls(iid5)[entry](estimator)
