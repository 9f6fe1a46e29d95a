"""Acceptance battery: oracle-based checks of every estimator at desk scale.

Each criterion pins its model, sample budget, seed and tolerance and
compares Monte Carlo estimates against closed-form or quadrature oracles
(normal and chi-square densities, truncated Karhunen-Loeve variances,
sphere and hyperplane quadrature).  ``run_acceptance`` executes all of them
and prints one pass/fail line per criterion; the CLI ``glset selftest``
exits nonzero if any fails.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from .config import parse_config
from .density import DensityJob, VARIANCE_UNRELIABLE, estimate_density
from .expressions import ExpressionFunctional
from .functionals import BmEndpoint, Constant, Coordinate, Norm2
from .model import build_model
from .surface import SurfaceMeasureHandle, ibp_battery, positivity_scan, \
    surface_report
from .density import run_plans
from .disintegration import compare_with_surface, disintegrate_plan, surface_side_plan, \
    verify_disintegration
from .runner import run

GAMMA0 = float(stats.norm.pdf(0.0))  # 0.39894...


@dataclass
class CriterionResult:
    """One criterion's verdict; ``runtime_s`` goes to the manifest, never
    into the report body."""

    number: int
    name: str
    passed: bool
    detail: str
    runtime_s: float


def _result(number, name, passed, detail, t0):
    return CriterionResult(number=number, name=name, passed=bool(passed),
                           detail=detail, runtime_s=time.perf_counter() - t0)


def criterion_1_normal_density():
    """Divergence estimator reproduces the standard normal density."""
    t0 = time.perf_counter()
    model = build_model(("iid_gaussian", 3))
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    job = DensityJob(model=model, G=Coordinate(1), phi=Constant(1.0),
                     r_grid=grid, n=10 ** 6, seed=2101, estimator="divergence")
    curve = estimate_density(job)["divergence"]
    elapsed = time.perf_counter() - t0
    oracle = stats.norm.pdf(np.asarray(grid))
    rel = np.abs(curve.estimates - oracle) / oracle
    in_band = np.abs(curve.estimates - oracle) <= 4.0 * curve.stderrs
    ok = bool(np.all(rel <= 0.01) and np.all(in_band) and elapsed <= 30.0)
    detail = (f"max rel err {rel.max():.4%} (<=1%), all within 4 s.e.: "
              f"{bool(np.all(in_band))}, within 30s: {elapsed <= 30.0}")
    return _result(1, "normal density oracle (G=xi_1, d=3)", ok, detail, t0)


def criterion_2_chi_square():
    """Divergence estimator reproduces the chi-square(5) density."""
    t0 = time.perf_counter()
    model = build_model(("iid_gaussian", 5))
    grid = (1.0, 3.0, 5.0, 8.0)
    job = DensityJob(model=model, G=Norm2(), phi=Constant(1.0), r_grid=grid,
                     n=10 ** 6, seed=2202, estimator="divergence")
    curve = estimate_density(job)["divergence"]
    oracle = stats.chi2.pdf(np.asarray(grid), df=5)
    err = np.abs(curve.estimates - oracle)
    tol = np.maximum(0.02 * oracle, 4.0 * curve.stderrs)
    ok = bool(np.all(err <= tol) and curve.excluded_fraction < 1e-6)
    detail = (f"max rel err {(err / oracle).max():.4%}, "
              f"excluded fraction {curve.excluded_fraction:.2e} (<1e-6)")
    return _result(2, "chi-square(5) density oracle (G=norm2)", ok, detail, t0)


def _agreement_cases():
    iid3 = build_model(("iid_gaussian", 3))
    iid5 = build_model(("iid_gaussian", 5))
    gauss_phi = ExpressionFunctional("exp(-norm2())")
    return [
        (iid3, Coordinate(1), Constant(1.0), np.linspace(-2.0, 2.0, 20)),
        (iid5, Norm2(), Constant(1.0), np.linspace(0.5, 10.0, 20)),
        (iid5, Norm2(), gauss_phi, np.linspace(0.5, 10.0, 20)),
    ]


def criterion_3_estimator_agreement():
    """Divergence and mollified estimators agree on 20-point grids."""
    t0 = time.perf_counter()
    worst = 0.0
    for i, (model, G, phi, grid) in enumerate(_agreement_cases()):
        job = DensityJob(model=model, G=G, phi=phi, r_grid=tuple(grid),
                         n=10 ** 6, seed=2303 + i, estimator="both")
        curves = estimate_density(job)
        div, moll = curves["divergence"], curves["mollified"]
        band = 4.0 * np.hypot(div.stderrs, moll.stderrs)
        z = np.abs(div.estimates - moll.estimates) / (band / 4.0)
        worst = max(worst, float(z.max()))
        if np.any(np.abs(div.estimates - moll.estimates) > band):
            return _result(3, "estimator agreement", False,
                           f"case {i}: max |z| = {z.max():.2f} > 4", t0)
    return _result(3, "estimator agreement", True,
                   f"max |z| over 3 cases x 20 points = {worst:.2f} (<=4)", t0)


def criterion_4_ibp_battery():
    """Integration-by-parts residuals vanish within combined error bands."""
    t0 = time.perf_counter()
    iid3 = build_model(("iid_gaussian", 3))
    iid5 = build_model(("iid_gaussian", 5))
    gauss_phi = ExpressionFunctional("exp(-norm2())")
    cases = [
        (iid3, Coordinate(1), Constant(1.0), (-1.0, -0.5, 0.0, 0.5, 1.0)),
        (iid5, Norm2(), Constant(1.0), (2.0, 3.0, 4.0, 5.0, 6.0)),
        (iid5, Norm2(), gauss_phi, (2.0, 3.0, 4.0, 5.0, 6.0)),
    ]
    worst = 0.0
    for i, (model, G, phi, grid) in enumerate(cases):
        for rec in ibp_battery(model, G, [phi], (1, 2), grid, 10 ** 6, 2404 + i):
            z = abs(rec.residual) / max(rec.combined_stderr, 1e-300)
            worst = max(worst, z)
            if rec.unresolved:
                return _result(4, "integration-by-parts battery", False,
                               f"case {i} k={rec.k} r={rec.r}: unresolved record, band "
                               f"{rec.band}, flags {list(rec.flags)}", t0)
            if not rec.within_band:
                return _result(
                    4, "integration-by-parts battery", False,
                    f"case {i} k={rec.k} r={rec.r}: |residual| {abs(rec.residual):.3e}"
                    f" > band {rec.band:.3e}", t0)
    closed = ibp_battery(iid3, Coordinate(1), [Constant(1.0)], (1,), (0.0,),
                         10 ** 6, 2440)[0]
    lhs_err = abs(closed.lhs - GAMMA0) / GAMMA0
    rhs_err = abs(closed.rhs - GAMMA0) / GAMMA0
    ok = lhs_err <= 0.01 and rhs_err <= 0.01
    detail = (f"max |z| = {worst:.2f} (<=4); closed form both sides vs "
              f"{GAMMA0:.5f}: lhs err {lhs_err:.4%}, rhs err {rhs_err:.4%} (<=1%)")
    return _result(4, "integration-by-parts battery", ok, detail, t0)


def criterion_5_hausdorff():
    """Surface integrals match sphere/hyperplane quadrature within 1%."""
    t0 = time.perf_counter()
    sphere_model = build_model(("iid_gaussian", 3))
    # the divergence integrand has infinite variance at d=3, so the sphere
    # side uses the mollified estimator with a larger budget
    sphere = SurfaceMeasureHandle(model=sphere_model, G=Norm2(), r=1.0,
                                  n=4 * 10 ** 6, seed=2505,
                                  estimator="mollified")
    rec_s = surface_report(sphere, [], with_hausdorff=True).hausdorff
    plane_model = build_model(("iid_gaussian", 2))
    plane = SurfaceMeasureHandle(model=plane_model, G=Coordinate(1), r=0.0,
                                 n=10 ** 6, seed=2506, estimator="divergence")
    rec_p = surface_report(plane, [], with_hausdorff=True).hausdorff
    for name, rec in (("sphere", rec_s), ("hyperplane", rec_p)):
        if rec.unresolved:
            return _result(5, "weighted-Hausdorff comparison", False,
                           f"{name}: unresolved record, tolerance {rec.tolerance}, "
                           f"flags {list(rec.flags)}", t0)
    ok = rec_s.rel_error <= 0.01 and rec_p.rel_error <= 0.01
    detail = (f"sphere d=3 r=1: mc {rec_s.mc_value:.5f} vs quad "
              f"{rec_s.quad_value:.5f} (rel {rec_s.rel_error:.4%}); hyperplane "
              f"d=2 r=0: mc {rec_p.mc_value:.5f} vs quad {rec_p.quad_value:.5f} "
              f"(rel {rec_p.rel_error:.4%})")
    return _result(5, "weighted-Hausdorff comparison", ok, detail, t0)


def criterion_6_disintegration():
    """Tower identity is reduction-exact; conditional route matches surface."""
    t0 = time.perf_counter()
    gauss_phi = ExpressionFunctional("exp(-norm2())")
    cases = [
        (build_model(("iid_gaussian", 3)), Coordinate(1), (-1.0, 0.0, 1.0)),
        (build_model(("iid_gaussian", 5)), Norm2(), (3.0, 4.0, 6.0)),
    ]
    worst_tower = 0.0
    for i, (model, G, r_values) in enumerate(cases):
        # the disintegration and the surface side share one pass of the stream
        n, seed = 10 ** 6, 2606 + i
        disintegrated, surface = run_plans([
            disintegrate_plan(model, G, n, seed, bins=200, phis=[Constant(1.0), gauss_phi]),
            surface_side_plan(model, G, n, seed, gauss_phi, r_values)])
        D = disintegrated()
        for binned in D.binned:
            tower = verify_disintegration(D, binned)
            worst_tower = max(worst_tower, tower.rel_error)
            if tower.rel_error > 1e-12:
                return _result(6, "disintegration", False,
                               f"tower rel err {tower.rel_error:.2e} > 1e-12", t0)
        for rec in compare_with_surface(D, gauss_phi, r_values, surface()):
            if not rec.within_band:
                return _result(
                    6, "disintegration", False,
                    f"case {i} r={rec.r}: |{rec.product:.5f} - {rec.surface_value:.5f}|"
                    f" > band {rec.band:.1e}", t0)
    return _result(6, "disintegration", True,
                   f"tower rel err <= {worst_tower:.2e} (<=1e-12); "
                   f"conditional vs surface within bands at 6 levels", t0)


def criterion_7_positivity():
    """The density is positive exactly strictly inside the essential range."""
    t0 = time.perf_counter()
    model = build_model(("iid_gaussian", 5))
    scan = positivity_scan(model, Norm2(), (-0.5, 1.0, 3.0, 5.0), 10 ** 6, 2707)
    at = {float(r): (e, s) for r, e, s in zip(scan.r, scan.estimates, scan.stderrs)}
    zero_ok = abs(at[-0.5][0]) <= 4.0 * at[-0.5][1]
    pos_ok = all(at[r][0] > 4.0 * at[r][1] for r in (1.0, 3.0, 5.0))
    clipped = ExpressionFunctional("min(norm2(), 6)")
    scan_c = positivity_scan(model, clipped, (5.0, 7.0), 10 ** 6, 2708,
                             estimator="mollified")
    e7, s7 = scan_c.estimates[1], scan_c.stderrs[1]
    clip_ok = abs(e7) <= 4.0 * s7
    ok = zero_ok and pos_ok and clip_ok and scan.consistent
    detail = (f"q1(-0.5)={at[-0.5][0]:.2e} (~0), q1 positive at 1,3,5: {pos_ok}, "
              f"clipped q1(7)={e7:.2e} (~0), scan consistent: {scan.consistent}")
    return _result(7, "positivity interval", ok, detail, t0)


def criterion_8_kl_truncation():
    """Endpoint density under truncated Brownian models approaches N(0,1)."""
    t0 = time.perf_counter()
    estimates = {}
    for d in (8, 16, 32):
        model = build_model(("kl_brownian", d))
        G = BmEndpoint(model)
        sigma2 = float(np.sum(2.0 * model.spectrum))
        oracle = float(stats.norm.pdf(0.0, scale=np.sqrt(sigma2)))
        job = DensityJob(model=model, G=G, phi=Constant(1.0), r_grid=(0.0,),
                         n=2 * 10 ** 6, seed=2808, estimator="divergence")
        est = float(estimate_density(job)["divergence"].estimates[0])
        estimates[d] = (est, oracle)
        if abs(est - oracle) / oracle > 0.02:
            return _result(8, "KL truncation stability", False,
                           f"d={d}: {est:.5f} vs oracle {oracle:.5f}", t0)
    gaps = [abs(estimates[d][0] - GAMMA0) for d in (8, 16, 32)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    detail = (f"q1(0): " + ", ".join(f"d={d}: {estimates[d][0]:.5f}"
                                     for d in (8, 16, 32))
              + f"; |error to {GAMMA0:.5f}| decreasing: {monotone}")
    return _result(8, "KL truncation stability", monotone, detail, t0)


def criterion_9_negative_visibility():
    """Failing integrability is flagged while the mollified route still works."""
    t0 = time.perf_counter()
    model = build_model(("iid_gaussian", 2))
    job = DensityJob(model=model, G=Norm2(), phi=Constant(1.0), r_grid=(1.0,),
                     n=10 ** 6, seed=2909, estimator="both")
    curves = estimate_density(job)
    flagged = VARIANCE_UNRELIABLE in curves["divergence"].flags
    oracle = float(stats.chi2.pdf(1.0, df=2))
    est = float(curves["mollified"].estimates[0])
    rel = abs(est - oracle) / oracle
    ok = flagged and rel <= 0.02
    detail = (f"divergence flags: {curves['divergence'].flags}, mollified "
              f"q1(1)={est:.5f} vs chi2(2) pdf {oracle:.5f} (rel {rel:.4%})")
    return _result(9, "negative test visibility (d=2)", ok, detail, t0)


DETERMINISM_CONFIG = """\
model iid_gaussian
dim 3
formats csv json

job density
  G norm2
  phi exp(-norm2())
  r_grid 1 2 3 4
  n 100000
  seed 42
  estimator both
"""


def criterion_10_determinism():
    """Identical configs produce byte-identical CSV bodies."""
    t0 = time.perf_counter()
    config = parse_config(DETERMINISM_CONFIG)
    bodies = []
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("a", "b"):
            out = Path(tmp) / sub
            code = run(config, output_dir=out)
            if code != 0:
                return _result(10, "determinism", False, f"run exit code {code}", t0)
            bodies.append((out / "job01_density.csv").read_bytes())
    ok = bodies[0] == bodies[1]
    return _result(10, "determinism", ok,
                   f"csv bodies identical: {ok} ({len(bodies[0])} bytes)", t0)


ALL_CRITERIA = (
    criterion_1_normal_density,
    criterion_2_chi_square,
    criterion_3_estimator_agreement,
    criterion_4_ibp_battery,
    criterion_5_hausdorff,
    criterion_6_disintegration,
    criterion_7_positivity,
    criterion_8_kl_truncation,
    criterion_9_negative_visibility,
    criterion_10_determinism,
)


def run_acceptance(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for crit in ALL_CRITERIA:
        res = crit()
        results.append(res)
        if verbose:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] criterion {res.number:2d} {res.name}: "
                  f"{res.detail} [{res.runtime_s:.1f}s]")
    if verbose:
        failed = sum(1 for r in results if not r.passed)
        print(f"{len(results) - failed}/{len(results)} acceptance criteria passed")
    return results
