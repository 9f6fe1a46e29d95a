"""Job orchestration and report emission.

Executes the jobs of a :class:`RunConfig` in order and writes one CSV and/or
JSON artifact per job plus a manifest.  Files are written atomically (temp
file + rename) and contain no timestamps, so identical configurations yield
byte-identical bodies; the manifest holds the config hash, library versions,
the wall-clock time of the run and the runtime of every selftest criterion.

Exit codes: 0 success, 1 numerical or I/O fault, 2 acceptance failure in a
selftest job.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, resolve_functional, resolve_model, serialize_config
from .density import DensityJob, estimate_density
from .disintegration import disintegrate, support_check, verify_disintegration
from .expressions import ExpressionError
from .functionals import NumericalFault
from .surface import SurfaceMeasureHandle, ibp_battery, surface_report


# ----------------------------- formatting -----------------------------

def fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_atomic(path: Path, data: str):
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(data)
    os.replace(tmp, path)


def write_csv(path: Path, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload):
    write_atomic(path, json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n")


def _curve_rows(curve):
    return [[float(r), float(e), float(s), curve.estimator, curve.excluded_fraction]
            for r, e, s in zip(curve.r, curve.estimates, curve.stderrs)]


def _curve_payload(curve):
    return {
        "r": curve.r, "estimates": curve.estimates, "stderrs": curve.stderrs,
        "estimator": curve.estimator, "excluded_fraction": curve.excluded_fraction,
        "n": curve.n, "seed": curve.seed, "epsilon": curve.epsilon,
        "window_counts": curve.window_counts, "flags": list(curve.flags),
    }


# ----------------------------- job executors -----------------------------

DENSITY_HEADER = ["r", "estimate", "stderr", "estimator", "excluded_fraction"]
RESIDUAL_HEADER = ["phi", "k", "r", "lhs", "rhs", "residual", "band"]


def write_artifacts(out_base: Path, formats, table, payload) -> list[Path]:
    """Write ``table`` (header, rows) to ``out_base.csv`` and ``payload`` to
    ``out_base.json``, each only if its format is in ``formats``; returns
    the paths written."""
    files = []
    if "csv" in formats:
        path = out_base.with_suffix(".csv")
        write_csv(path, *table)
        files.append(path)
    if "json" in formats:
        path = out_base.with_suffix(".json")
        write_json(path, payload)
        files.append(path)
    return files


def _estimator(job) -> str:
    """The one estimator of a surface, ibp or hausdorff job; ``both`` runs
    the divergence route."""
    return job.estimator if job.estimator != "both" else "divergence"


def _handle(job, model, G) -> SurfaceMeasureHandle:
    return SurfaceMeasureHandle(model=model, G=G, r=job.r, n=job.n,
                                seed=job.seed, estimator=_estimator(job),
                                epsilon=job.epsilon)


def _residual_rows(records):
    return [[rec.phi_name, rec.k, rec.r, rec.lhs, rec.rhs, rec.residual, rec.band]
            for rec in records]


def _run_density(job, model, G, phis, out_base, formats):
    djob = DensityJob(model=model, G=G, phi=phis[0], r_grid=job.r_grid, n=job.n,
                      seed=job.seed, epsilon=job.epsilon, estimator=job.estimator)
    curves = estimate_density(djob)
    rows = []
    for key in ("divergence", "mollified"):
        if key in curves:
            rows.extend(_curve_rows(curves[key]))
    return write_artifacts(out_base, formats, (DENSITY_HEADER, rows), {
        "job": dataclasses.asdict(job),
        "curves": {k: _curve_payload(c) for k, c in curves.items()}})


def _run_surface(job, model, G, phis, out_base, formats):
    report = surface_report(_handle(job, model, G), phis, k_list=job.k_list,
                            with_trace=job.trace, with_hausdorff=job.hausdorff)
    if report.ibp:
        table = (RESIDUAL_HEADER, _residual_rows(report.ibp))
    else:
        rows = [["1", report.total_mass, report.total_mass_stderr]]
        rows += [[name, v, s] for name, (v, s) in report.integrals.items()]
        table = (["phi", "value", "stderr"], rows)
    return write_artifacts(out_base, formats, table, {
        "job": dataclasses.asdict(job),
        "r": report.r, "G": report.g_name, "estimator": report.estimator,
        "total_mass": report.total_mass,
        "total_mass_stderr": report.total_mass_stderr,
        "excluded_fraction": report.excluded_fraction,
        "integrals": report.integrals,
        "flags": list(report.flags),
        "ibp": [dataclasses.asdict(r) for r in report.ibp],
        "trace": dataclasses.asdict(report.trace) if report.trace else None,
        "hausdorff": dataclasses.asdict(report.hausdorff)
        if report.hausdorff else None,
    })


def _run_ibp(job, model, G, phis, out_base, formats):
    """Both sides of every (phi, k) identity from one stream pass."""
    records = ibp_battery(model, G, phis, job.k_list, job.r_grid or (job.r,), job.n,
                          job.seed, _estimator(job), job.epsilon)
    return write_artifacts(out_base, formats, (RESIDUAL_HEADER, _residual_rows(records)),
                           {"job": dataclasses.asdict(job),
                            "records": [dataclasses.asdict(r) for r in records]})


def _run_disintegrate(job, model, G, phis, out_base, formats):
    D = disintegrate(model, G, job.n, job.seed, job.bins, phis, scheme=job.scheme)
    cond = {b.phi_name: D.conditional_means(b) for b in D.binned}
    towers = [verify_disintegration(D, b) for b in D.binned]
    support = support_check(D)
    header = ["bin_lo", "bin_hi", "weight", "count"]
    header += [f"cond_mean_{name}" for name in cond]
    rows = []
    for j in range(D.bins):
        row = [float(D.edges[j]), float(D.edges[j + 1]), float(D.weights[j]),
               int(D.counts[j])]
        row += [float(cond[name][j]) if D.counts[j] else "" for name in cond]
        rows.append(row)
    payload = {
        "job": dataclasses.asdict(job),
        "edges": D.edges, "weights": D.weights, "counts": D.counts,
        "empty_bins": D.empty_bins,
        "tower": [dataclasses.asdict(t) | {"abs_error": t.abs_error,
                                           "rel_error": t.rel_error}
                  for t in towers],
        "support_max_excess": support.max_excess,
    }
    if job.dump_particles:
        payload["particles"] = {str(j): D.bin_indices(j) for j in range(D.bins)}
    return write_artifacts(out_base, formats, (header, rows), payload)


def _run_hausdorff(job, model, G, phis, out_base, formats):
    rec = surface_report(_handle(job, model, G), phis[:1], with_hausdorff=True).hausdorff
    table = (["G", "phi", "r", "geometry", "mc_value", "mc_stderr", "quad_value",
              "nodes", "quad_error", "rel_error"],
             [[rec.g_name, rec.phi_name, rec.r, rec.geometry, rec.mc_value,
               rec.mc_stderr, rec.quad_value, rec.nodes, rec.quad_error, rec.rel_error]])
    return write_artifacts(out_base, formats, table, dataclasses.asdict(rec) | {
        "rel_error": rec.rel_error, "within_tolerance": rec.within_tolerance,
        "job": dataclasses.asdict(job)})


def write_selftest(out_base: Path, results) -> list[Path]:
    """The acceptance battery's report, always as ``out_base.json``; the
    runtimes are left out (:func:`selftest_runtimes` gives them to the
    manifest), so the same verdicts give the same bytes."""
    return write_artifacts(out_base, ("json",), None, {"results": [
        {k: v for k, v in dataclasses.asdict(r).items() if k != "runtime_s"}
        for r in results]})


def selftest_runtimes(results) -> dict[str, float]:
    """Seconds per criterion, keyed by its number, for a manifest."""
    return {str(r.number): r.runtime_s for r in results}


_EXECUTORS = {
    "density": _run_density,
    "surface": _run_surface,
    "ibp": _run_ibp,
    "disintegrate": _run_disintegrate,
    "hausdorff": _run_hausdorff,
}


def run(config: RunConfig, output_dir=None) -> int:
    """Execute all jobs; returns the process exit code."""
    out = Path(output_dir if output_dir is not None else config.output)
    out.mkdir(parents=True, exist_ok=True)
    model = resolve_model(config.model)
    defs = dict(config.functionals)
    written: list[str] = []
    runtimes = {}
    exit_code = 0
    for i, job in enumerate(config.jobs, 1):
        base = out / f"job{i:02d}_{job.kind}"
        try:
            if job.kind == "selftest":
                from .selftest import run_acceptance  # selftest imports this module

                results = run_acceptance(verbose=True)
                files = write_selftest(base, results)
                runtimes[base.name] = selftest_runtimes(results)
                if not all(r.passed for r in results):
                    exit_code = 2
            else:
                G = resolve_functional(job.G, defs, model)
                phis = [resolve_functional(p, defs, model) for p in job.phi]
                files = _EXECUTORS[job.kind](job, model, G, phis, base, config.formats)
        except (NumericalFault, ExpressionError, ValueError, OSError) as e:
            print(f"job {i} ({job.kind}) failed: {e}", file=sys.stderr)
            return 1
        written.extend(str(f.name) for f in files)
    manifest = {
        "config_hash": hashlib.sha256(serialize_config(config).encode()).hexdigest(),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "versions": _versions(),
        "seeds": [job.seed for job in config.jobs],
        "files": written,
        "exit_code": exit_code,
    }
    if runtimes:
        manifest["runtime_s"] = runtimes
    write_json(out / "manifest.json", manifest)
    return exit_code


def _versions():
    import scipy

    from . import __version__

    return {"glset": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3]))}
