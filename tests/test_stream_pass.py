"""One stream pass per (model, G, n, seed), and per (model, seed) in a run:
pass counts, column independence and grouped jobs.

A pass is one call of ``map_chunks`` or ``iter_sample_chunks``, counted in
every glset namespace that imports them.  Every weight column of a pass
must give the same bits alone as alongside other columns, a fused path
must give the same bits as the separate calls it replaces, and a job fed
from its seed's shared pass must give the bytes of its own run.
"""

import collections
import dataclasses
import json
import sys

import numpy as np
import pytest

from glset import (Constant, Coordinate, DensityJob, Norm2, Product, Query,
                   RadialClamp, SurfaceMeasureHandle, UserFunctional, build_model,
                   conditional_vs_surface, density, disintegrate, estimate_density,
                   hyperplane_quadrature, ibp_battery, ibp_residuals, model,
                   parse_config, positivity_scan, resolve_functional, run,
                   sphere_quadrature, stream_pass, surface_report)
from glset.density import density_plan, run_plans
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

# the surface job reads the first 30000 rows of the disintegrate job's 50000
# in one pass; the ibp job has its own seed, so the density job, back on
# seed 23, starts a third group
GROUP_CONFIG = """\
model iid_gaussian
dim 3
formats csv json

functional bump = exp(-norm2())

job surface
  G norm2
  phi_list 1 bump
  r 2
  n 30000
  seed 23
  k_list 1
  trace true
  hausdorff true

job disintegrate
  G norm2
  phi_list 1 bump
  bins 20
  n 50000
  seed 23

job ibp
  G norm2
  phi bump
  k_list 2
  r_grid 1 3
  n 20000
  seed 29

job density
  G norm2
  phi bump
  r_grid 1 2 3
  n 20000
  seed 23
  estimator both
"""

# the second job of the seed fails in the pass (G is 0/0 on every sample);
# the third would succeed
FAULT_CONFIG = """\
model iid_gaussian
dim 2
formats csv json

job density
  G norm2
  phi 1
  r_grid 1 2
  n 20000
  seed 3
  estimator mollified
  epsilon 0.5

job density
  G xi(1)/(xi(1) - xi(1))
  phi 1
  r_grid 1
  n 20000
  seed 3
  estimator mollified
  epsilon 0.5

job disintegrate
  G norm2
  bins 4
  n 30000
  seed 3
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

    def test_runner_makes_one_pass_per_group_of_a_seed(self, tmp_path, passes):
        config = parse_config(GROUP_CONFIG)
        surface_and_bins = dataclasses.replace(config, jobs=config.jobs[:2])
        assert run(surface_and_bins, output_dir=tmp_path / "two") == 0
        assert len(passes) == 1
        assert run(config, output_dir=tmp_path / "all") == 0
        assert len(passes) == 1 + 3  # seed 23, seed 29, seed 23 again
        jobs = config.jobs
        adjacent = dataclasses.replace(config, jobs=(jobs[0], jobs[3], jobs[1], jobs[2]))
        assert run(adjacent, output_dir=tmp_path / "adjacent") == 0
        assert len(passes) == 4 + 2


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


def shared_pass_misses(model):
    """What a density plan of n = 20000 that shares its pass with one of
    n = 50000 gets wrong against its own pass: the rows its callback saw,
    its estimates or its stderrs."""
    def job(G, n):
        return DensityJob(model=model, G=G, phi=ONE, r_grid=(1.0, 3.0), n=n, seed=37,
                          estimator="divergence")

    def counted():
        rows = collections.Counter()

        def value(xi):
            rows[xi.shape[0]] += 1
            return np.sum(xi * xi, axis=1)

        return UserFunctional(value, name="norm2_fd"), rows

    G_alone, alone_rows = counted()
    alone = estimate_density(job(G_alone, 20_000))["divergence"]
    G_short, short_rows = counted()
    G_long, _ = counted()
    short, _ = [finish() for finish in run_plans([density_plan(job(G_short, 20_000)),
                                                  density_plan(job(G_long, 50_000))])]
    short = short["divergence"]
    misses = []
    if not (short_rows == alone_rows and short_rows[16384] == short_rows[20_000 - 16384] > 0):
        misses.append("callback rows")
    if not np.array_equal(short.estimates, alone.estimates):
        misses.append("estimates")
    if not np.array_equal(short.stderrs, alone.stderrs):
        misses.append("stderrs")
    return misses


def reduction_misses(model):
    """The columns of a stream pass over 10 chunks whose estimates or
    stderrs differ in any bit from a batch-means reduction of its per-chunk
    sums written out here in chunk order: the chunk sums added one after
    another, and the squared deviations of the chunk means likewise."""
    plan = density.stream_plan(model, Norm2(), 150_000, 5, (1.0, 3.0, 6.0),
                               [Query(ONE, "cdf"), Query(ONE, "divergence")])
    stats = {}

    def worker(index, pts):
        stats[index] = plan.worker(index, pts)
        return stats[index]

    result = dataclasses.replace(plan, worker=worker).run()
    chunks = [stats[i] for i in range(len(stats))]
    n = float(sum(st.count for st in chunks))
    misses = []
    for i, (route, got) in enumerate(zip(("cdf", "divergence"), result.results)):
        total = chunks[0].columns[i]
        for st in chunks[1:]:
            total = total + st.columns[i]
        mean = total / n
        squares = 0.0
        for st in chunks:
            dev = st.columns[i] / float(st.count) - mean
            squares = squares + float(st.count) * dev * dev
        stderr = np.sqrt(squares / (len(chunks) - 1) / n)
        est, se = got if route == "cdf" else (got.estimates, got.stderrs)
        if not np.array_equal(est, mean):
            misses.append(f"{route} estimates")
        if not np.array_equal(se, stderr):
            misses.append(f"{route} stderrs")
    return misses


def test_pass_reduces_its_chunks_in_order(iid5):
    assert reduction_misses(iid5) == []


class TestGroupedJobs:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_every_artifact_is_its_own_runs(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("GLSET_THREADS", threads)
        config = parse_config(GROUP_CONFIG)
        assert run(config, output_dir=tmp_path / "group") == 0
        for i, job in enumerate(config.jobs, 1):
            alone = tmp_path / f"alone{i}"
            assert run(dataclasses.replace(config, jobs=(job,)), output_dir=alone) == 0
            for ext in ("csv", "json"):
                grouped = tmp_path / "group" / f"job{i:02d}_{job.kind}.{ext}"
                own = alone / f"job01_{job.kind}.{ext}"
                assert grouped.read_bytes() == own.read_bytes(), grouped.name

    def test_partial_last_chunk_keeps_its_callback_count(self, iid5):
        # a value-only G is all finite differences, kept per chunk in the memo
        # of the array a plan gets; on the 3616-row last chunk of n = 20000,
        # a prefix of the longer job's chunk, the memo must hit as it does in
        # the plan's own pass
        assert shared_pass_misses(iid5) == []

    def test_failing_plan_skips_its_later_chunks(self, iid3, monkeypatch):
        # no plan's worker sees a chunk after the one it failed at: the pass
        # raises at the first chunk where every plan has failed, and
        # map_chunks then cancels the chunks not yet started
        monkeypatch.setenv("GLSET_THREADS", "1")
        error = ValueError("chunk 1")
        calls = collections.defaultdict(list)

        def worker(name, fails_at):
            def work(index, pts):
                calls[name].append(index)
                if index == fails_at:
                    raise error
                return pts.shape[0]
            return work

        def plan(name, n, fails_at=None):
            return density.Plan(iid3, n, 3, worker(name, fails_at), list)

        with pytest.raises(ValueError) as info:
            plan("alone", 4 * 16384, fails_at=1).run()
        assert info.value is error and calls["alone"] == [0, 1]
        failing, other = run_plans([plan("failing", 4 * 16384, fails_at=1),
                                    plan("other", 3 * 16384 + 5)])
        with pytest.raises(ValueError) as info:
            failing()
        assert info.value is error and calls["failing"] == [0, 1]
        assert other() == [16384] * 3 + [5] and calls["other"] == [0, 1, 2, 3]

    def test_fault_in_second_job_of_a_seed(self, tmp_path, capsys):
        assert run(parse_config(FAULT_CONFIG), output_dir=tmp_path) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job01_density.csv",
                                                              "job01_density.json",
                                                              "manifest.json"]
        err = capsys.readouterr().err
        assert "job 2 (density) failed: " in err and "non-finite" in err
        assert "job 1" not in err and "job 3" not in err

    def test_error_before_the_pass_ends_the_run_at_its_job(self, tmp_path, capsys):
        # the parser rejects a level set without a quadrature oracle, so the
        # job is built by hand: its plan cannot be made
        config = parse_config(FAULT_CONFIG)
        hausdorff = dataclasses.replace(config.jobs[1], kind="hausdorff", G="exp(-norm2())",
                                        r=1.0, r_grid=(), estimator="divergence")
        config = dataclasses.replace(config, jobs=(config.jobs[0], hausdorff,
                                                   *config.jobs[2:]))
        assert run(config, output_dir=tmp_path) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job01_density.csv",
                                                              "job01_density.json",
                                                              "manifest.json"]
        assert "job 2 (hausdorff) failed: no quadrature oracle" in capsys.readouterr().err


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
