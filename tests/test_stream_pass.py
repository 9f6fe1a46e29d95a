"""One stream pass per (model, G, n, seed): pass counts and column independence.

A pass is one call of ``map_chunks`` or ``iter_sample_chunks``, counted in
every glset namespace that imports them.  Every weight column of a pass
must give the same bits alone as alongside other columns, and a fused path
must give the same bits as the separate calls it replaces.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

from glset import (Constant, Coordinate, DensityJob, Norm2, Product, Query,
                   RadialClamp, SurfaceMeasureHandle, build_model,
                   conditional_vs_surface, density, disintegrate, estimate_density,
                   hyperplane_quadrature, ibp_battery, ibp_residuals, model,
                   parse_config, positivity_scan, resolve_functional, run,
                   sphere_quadrature, stream_pass, surface_report)
from glset.expressions import ExpressionFunctional
from glset.surface import TRACE_LEVELS

ONE = Constant(1.0)

IBP_CONFIG = """\
model iid_gaussian
dim 3
formats json

job ibp
  G norm2
  phi_list 1 exp(-norm2())
  k_list 1 2
  r_grid 1 2 3
  n 40000
  seed 19
  estimator divergence
"""


@pytest.fixture
def passes(monkeypatch):
    """List that records one entry per stream pass made during the test."""
    calls = []
    for original in (density.map_chunks, model.iter_sample_chunks):
        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "glset" or name.startswith("glset.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def two_phis():
    return [ExpressionFunctional("exp(-norm2())"), Coordinate(1)]


def sphere_handle(iid3, estimator="divergence"):
    return SurfaceMeasureHandle(model=iid3, G=Norm2(), r=2.0, n=50_000, seed=211,
                                estimator=estimator)


class TestPassCounts:
    def test_surface_report_makes_one_pass(self, iid3, passes):
        report = surface_report(sphere_handle(iid3), two_phis(), k_list=(1, 2),
                                with_trace=True, with_hausdorff=True)
        assert len(passes) == 1
        assert len(report.ibp) == 4
        assert report.trace is not None and report.hausdorff is not None

    def test_single_purpose_entry_points_make_one_pass(self, iid3, passes):
        h = sphere_handle(iid3)
        phi = two_phis()[0]
        ibp_residuals(iid3, Norm2(), phi, 1, (1.0, 2.0), 20_000, seed=3)
        ibp_battery(iid3, Norm2(), [phi, ONE], (1, 3), (1.0, 2.0), 20_000, seed=3)
        surface_report(h, [phi], k_list=(2,))
        surface_report(h, [phi], with_trace=True)
        surface_report(h, [phi], with_hausdorff=True)
        positivity_scan(iid3, Norm2(), (1.0, 2.0), 20_000, seed=5)
        estimate_density(DensityJob(model=iid3, G=Norm2(), phi=phi, r_grid=(1.0, 2.0),
                                    n=20_000, seed=5, estimator="both"))
        stream_pass(iid3, Norm2(), 20_000, 5, (1.0,), [Query(phi, "cdf")])
        assert len(passes) == 8
        # the oracles draw no sample
        sphere_quadrature(phi, 3, 2.0, nodes=8)
        hyperplane_quadrature(phi, np.array([1.0, 2.0]), 3, 0.5, nodes=8)
        assert len(passes) == 8

    def test_runner_disintegrate_job_makes_one_pass(self, tmp_path, passes):
        cfg = parse_config("model iid_gaussian\ndim 3\nformats csv json\n"
                           "job disintegrate\n  G norm2\n  phi_list 1 exp(-norm2())\n"
                           "  bins 20\n  n 40000\n  seed 5\n")
        assert run(cfg, output_dir=tmp_path) == 0
        assert len(passes) == 1

    def test_conditional_vs_surface_makes_one_pass(self, iid3, passes):
        phi = two_phis()[0]
        D = disintegrate(iid3, Norm2(), 40_000, seed=7, bins=20, phis=[phi])
        del passes[:]
        records = conditional_vs_surface(D, phi, (1.0, 2.0, 3.0))
        assert len(passes) == 1
        assert [rec.r for rec in records] == [1.0, 2.0, 3.0]

    def test_runner_ibp_job_makes_one_pass(self, tmp_path, passes):
        assert run(parse_config(IBP_CONFIG), output_dir=tmp_path) == 0
        assert len(passes) == 1


class TestFusedPaths:
    def test_runner_ibp_job_matches_per_pair_calls(self, iid3, tmp_path):
        assert run(parse_config(IBP_CONFIG), output_dir=tmp_path) == 0
        records = json.loads((tmp_path / "job01_ibp.json").read_text())["records"]
        expected = []
        for text in ("1", "exp(-norm2())"):
            phi = resolve_functional(text, {}, iid3)
            for k in (1, 2):
                expected += ibp_residuals(iid3, Norm2(), phi, k, (1.0, 2.0, 3.0),
                                          40_000, 19)
        # through JSON, where a record's flags tuple reads back as a list
        assert records == json.loads(json.dumps([dataclasses.asdict(rec) for rec in expected]))


class TestColumnIndependence:
    @pytest.mark.parametrize("estimator", ["divergence", "mollified"])
    def test_report_matches_single_queries_bitwise(self, iid3, estimator):
        h = sphere_handle(iid3, estimator)
        phis = two_phis()
        report = surface_report(h, phis, k_list=(1, 2), with_trace=True,
                                with_hausdorff=True)

        def alone(phi):
            curve, = stream_pass(iid3, Norm2(), h.n, h.seed, (h.r,),
                                 [Query(phi, estimator)]).results
            return float(curve.estimates[0]), float(curve.stderrs[0])

        assert (report.total_mass, report.total_mass_stderr) == alone(ONE)
        for phi in phis:
            assert report.integrals[phi.name] == alone(phi)
        assert report.ibp == [rec for phi in phis for k in (1, 2)
                              for rec in ibp_residuals(iid3, Norm2(), phi, k, (h.r,),
                                                       h.n, h.seed, estimator)]
        target, target_se = alone(phis[0])
        clamped = [alone(Product(phis[0], RadialClamp(m))) for m in TRACE_LEVELS]
        assert (report.trace.target, report.trace.target_stderr) == (target, target_se)
        assert report.trace.estimates == tuple(v for v, _ in clamped)
        assert report.trace.stderrs == tuple(se for _, se in clamped)
        assert report.trace.diffs == tuple(abs(v - target) for v, _ in clamped)
        rec = report.hausdorff
        assert (rec.mc_value, rec.mc_stderr) == (target, target_se)
        assert rec.quad_value == sphere_quadrature(phis[0], 3, h.r, nodes=rec.nodes)
        assert (rec.geometry, rec.phi_name, rec.nodes) == ("sphere", phis[0].name, 16)

    def test_query_bits_do_not_depend_on_companions(self, iid3):
        phi = two_phis()[0]
        queries = [Query(phi, "divergence"), Query(Coordinate(2), "mollified"),
                   Query(phi, "cdf"), Query(ONE, "divergence")]
        grid = (0.5, 2.0, 4.0)
        together = stream_pass(iid3, Norm2(), 50_000, 13, grid, queries,
                               epsilon=0.1).results
        for q, joint in zip(queries, together):
            alone, = stream_pass(iid3, Norm2(), 50_000, 13, grid, [q],
                                 epsilon=0.1).results
            if q.route == "cdf":
                assert np.array_equal(alone[0], joint[0])
                assert np.array_equal(alone[1], joint[1])
            else:
                assert np.array_equal(alone.estimates, joint.estimates)
                assert np.array_equal(alone.stderrs, joint.stderrs)
                assert alone.flags == joint.flags

    def test_pass_reports_the_sample_range_of_g(self, iid3):
        res = stream_pass(iid3, Coordinate(1), 40_000, 17, (0.0,), [Query(ONE, "cdf")])
        pts = np.concatenate([p for _, p in model.iter_sample_chunks(iid3, 40_000, 17)])
        assert res.g_min == pts[:, 0].min() and res.g_max == pts[:, 0].max()

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            Query(ONE, "both")
