"""
Surface measures through the density functional
===============================================

The surface measure of G at level r is defined by what it does to test
functions: integrating phi against it equals q_phi(r).  That makes surface
integrals, integration-by-parts residuals, traces and the positivity
interval all computable from the density machinery.
"""

from scipy import stats

from glset import (Norm2, SublevelBump, SurfaceMeasureHandle, build_model,
                   ibp_battery, positivity_scan, surface_report)
from glset import ExpressionFunctional

model = build_model(("iid_gaussian", 5))
handle = SurfaceMeasureHandle(model=model, G=Norm2(), r=5.0, n=500_000,
                              seed=31, estimator="divergence")

# one pass over the handle's stream answers the total mass, the integral of
# every weight and, on request, the trace of the first weight
bump = SublevelBump(Norm2(), c=4.0, delta=0.5)
phi = ExpressionFunctional("exp(-norm2())")
report = surface_report(handle, [phi, bump], with_trace=True)

# total mass of the surface measure = the chi-square density at the level
print(f"surface mass at r=5: {report.total_mass:.5f} +- "
      f"{report.total_mass_stderr:.5f} (chi2_5 pdf: {stats.chi2.pdf(5, 5):.5f})")

# a weight vanishing near the level set integrates to zero: the measure is
# supported on G^-1(r)
away, se_away = report.integrals[bump.name]
print(f"weight supported in {{G<4}}: {away:.5f} +- {se_away:.5f} (~0)")

# integration by parts: sublevel integral of D_k phi - xi_k phi equals the
# surface integral of phi D_k G
print("\nIBP residuals for phi = exp(-norm2()), k = 1 and 2 from one pass:")
for rec in ibp_battery(model, Norm2(), [phi], (1, 2), (3.0, 5.0), 500_000, 33):
    print(f"  k={rec.k} r={rec.r:.0f}: lhs={rec.lhs:+.5f} "
          f"rhs={rec.rhs:+.5f} residual={rec.residual:+.2e} "
          f"band={rec.band:.2e} ok={rec.within_band}")

# traces: clamped truncations phi_m -> phi; once the clamp saturates on all
# samples the surface integrals agree exactly
rep = report.trace
print("\ntrace sequence |q_(phi_m) - q_phi|:",
      ["%.2e" % d for d in rep.diffs])
print("converged:", rep.converged, "| exact at the top clamp:", rep.exact_tail)

# the density is positive exactly strictly between the essential bounds of G
scan = positivity_scan(model, Norm2(), (-0.5, 1.0, 5.0, 15.0), 500_000, 37)
print("\npositivity scan (empirical range of G: "
      f"[{scan.g_min:.3f}, {scan.g_max:.3f}]):")
for r, est, s in zip(scan.r, scan.estimates, scan.stderrs):
    print(f"  r={r:5.1f}: q1={est:.5f} +- {s:.5f}")
print("consistent with the positivity interval:", scan.consistent)
