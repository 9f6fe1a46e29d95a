"""Job orchestration and report emission.

Runs the jobs of a :class:`RunConfig` and writes one CSV and/or JSON
artifact per job plus a manifest.  Every job but ``selftest`` is a
:class:`~glset.density.Plan` on the config's model, and consecutive jobs
that share a seed form a group fed from one pass of that stream
(:func:`~glset.density.run_plans`), as long as their largest n; each job
still sees exactly the rows of its own n.  A group's plans are made and run
when its first job comes up, and its jobs are finished and written, in
config order, before the next group is planned.  The first job that
fails, in config order, ends the run: the jobs before it keep their
artifacts, the jobs after it write none, and the manifest says
``exit_code: 1``, lists only the files this run wrote and names the job
under ``failed_job`` (its number, kind and message); files an earlier run
left in the directory stay, unlisted.  Files are written atomically
(temp file + rename) and contain no timestamps, so identical configurations
yield byte-identical bodies; the manifest holds the config hash, library
versions, the wall-clock time of the run, the runtime of every selftest
criterion and the run's ``getrusage`` deltas: CPU seconds in user and
system mode and minor page faults, for every thread of the process.

Exit codes: 0 success, 1 numerical or I/O fault, 2 acceptance failure in a
selftest job.
"""

from __future__ import annotations

import collections
import dataclasses
import datetime
import hashlib
import json
import os
import resource
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, resolve_functional, resolve_model, serialize_config
from .density import DensityJob, density_plan, run_plans
from .disintegration import disintegrate_plan, support_check, verify_disintegration
from .functionals import NumericalFault
from .surface import SurfaceMeasureHandle, ibp_plan, report_plan


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


def _plan_density(job, model, G, phis):
    return density_plan(DensityJob(model=model, G=G, phi=phis[0], r_grid=job.r_grid,
                                   n=job.n, seed=job.seed, epsilon=job.epsilon,
                                   estimator=job.estimator))


def _write_density(job, curves, out_base, formats):
    rows = []
    for key in ("divergence", "mollified"):
        if key in curves:
            rows.extend(_curve_rows(curves[key]))
    return write_artifacts(out_base, formats, (DENSITY_HEADER, rows), {
        "job": dataclasses.asdict(job),
        "curves": {k: _curve_payload(c) for k, c in curves.items()}})


def _plan_surface(job, model, G, phis):
    return report_plan(_handle(job, model, G), phis, k_list=job.k_list,
                       with_trace=job.trace, with_hausdorff=job.hausdorff)


def _write_surface(job, report, out_base, formats):
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


def _plan_ibp(job, model, G, phis):
    """Both sides of every (phi, k) identity from one stream pass."""
    return ibp_plan(model, G, phis, job.k_list, job.r_grid or (job.r,), job.n,
                    job.seed, _estimator(job), job.epsilon)


def _write_ibp(job, records, out_base, formats):
    return write_artifacts(out_base, formats, (RESIDUAL_HEADER, _residual_rows(records)),
                           {"job": dataclasses.asdict(job),
                            "records": [dataclasses.asdict(r) for r in records]})


def _plan_disintegrate(job, model, G, phis):
    return disintegrate_plan(model, G, job.n, job.seed, job.bins, phis, scheme=job.scheme)


def _write_disintegrate(job, D, out_base, formats):
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


def _plan_hausdorff(job, model, G, phis):
    return report_plan(_handle(job, model, G), phis[:1],
                       with_hausdorff=True).then(lambda report: report.hausdorff)


def _write_hausdorff(job, rec, out_base, formats):
    table = (["G", "phi", "r", "geometry", "mc_value", "mc_stderr", "quad_value",
              "nodes", "quad_error", "rel_error"],
             [[rec.g_name, rec.phi_name, rec.r, rec.geometry, rec.mc_value,
               rec.mc_stderr, rec.quad_value, rec.nodes, rec.quad_error, rec.rel_error]])
    return write_artifacts(out_base, formats, table, dataclasses.asdict(rec) | {
        "rel_error": rec.rel_error, "within_tolerance": rec.within_tolerance,
        "unresolved": rec.unresolved,
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


# kind -> (the job's plan from (job, model, G, phis), its writer from
# (job, finished plan, out_base, formats))
_EXECUTORS = {
    "density": (_plan_density, _write_density),
    "surface": (_plan_surface, _write_surface),
    "ibp": (_plan_ibp, _write_ibp),
    "disintegrate": (_plan_disintegrate, _write_disintegrate),
    "hausdorff": (_plan_hausdorff, _write_hausdorff),
}


def _raises(error):
    def finish():
        raise error
    return finish


def _plan_group(config, model, first: int) -> list:
    """Finishes of the jobs from ``config.jobs[first]`` on that share its
    seed, up to the next job of another seed or a selftest, their plans made
    in config order and run as one pass.  A job whose plan cannot be made
    finishes by raising that error and ends the group: the run ends at it."""
    defs = dict(config.functionals)
    seed = config.jobs[first].seed
    plans, error = [], None
    for job in config.jobs[first:]:
        if job.kind == "selftest" or job.seed != seed:
            break
        try:
            G = resolve_functional(job.G, defs, model)
            phis = [resolve_functional(p, defs, model) for p in job.phi]
            plans.append(_EXECUTORS[job.kind][0](job, model, G, phis))
        except Exception as e:  # raised at its job's turn, as its own run would
            error = _raises(e)
            break
    finishes = run_plans(plans) if plans else []
    if error is not None:
        finishes.append(error)
    return finishes


def run(config: RunConfig, output_dir=None) -> int:
    """Execute all jobs; returns the process exit code."""
    out = Path(output_dir if output_dir is not None else config.output)
    if not _make_output_dir(out):
        return 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    model = resolve_model(config.model)
    written: list[str] = []
    runtimes = {}
    exit_code = 0
    failed = {}
    finishes = collections.deque()  # of the current group's jobs still to write
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
                if not finishes:  # the first job of its group
                    finishes.extend(_plan_group(config, model, i - 1))
                files = _EXECUTORS[job.kind][1](job, finishes.popleft()(), base,
                                                config.formats)
        except (NumericalFault, ValueError, OSError) as e:
            print(f"job {i} ({job.kind}) failed: {e}", file=sys.stderr)
            exit_code = 1
            failed = {"failed_job": {"number": i, "kind": job.kind, "message": str(e)}}
            break
        written.extend(str(f.name) for f in files)
    try:
        write_manifest(out, written, exit_code, usage, runtimes,
                       config_hash=hashlib.sha256(serialize_config(config).encode()).hexdigest(),
                       seeds=[job.seed for job in config.jobs], **failed)
    except OSError as e:
        print(f"cannot write the manifest: {e}", file=sys.stderr)
        return 1
    return exit_code


def run_selftest(output: Path | None = None) -> int:
    """Run the acceptance battery; with ``output``, write its report there
    as ``selftest.json`` beside a manifest, made before the battery runs.
    Returns 0, 2 on a failed criterion, or 1 if ``output`` cannot be made."""
    from .selftest import run_acceptance  # selftest imports this module

    if output is not None and not _make_output_dir(output):
        return 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    results = run_acceptance(verbose=True)
    exit_code = 0 if all(r.passed for r in results) else 2
    if output is not None:
        files = write_selftest(output / "selftest", results)
        write_manifest(output, [f.name for f in files], exit_code, usage,
                       {"selftest": selftest_runtimes(results)})
    return exit_code


def _make_output_dir(out: Path) -> bool:
    """Make the output directory ``out``; on failure say why on stderr."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"cannot create output directory {out}: {e.strerror or e}", file=sys.stderr)
        return False
    return True


def write_manifest(out: Path, files, exit_code: int, usage, runtimes=None, **fields):
    """``out/manifest.json``: ``fields``, the files written, the exit code,
    the library versions, the wall-clock time, ``runtimes`` if any and the
    ``getrusage`` deltas since ``usage``."""
    manifest = fields | {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "versions": _versions(), "files": list(files), "exit_code": exit_code}
    if runtimes:
        manifest["runtime_s"] = runtimes
    manifest["rusage"] = _rusage_since(usage)
    write_json(out / "manifest.json", manifest)


def _rusage_since(before) -> dict:
    """This process's CPU seconds and minor page faults since ``before``."""
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"user_s": after.ru_utime - before.ru_utime,
            "system_s": after.ru_stime - before.ru_stime,
            "minor_faults": after.ru_minflt - before.ru_minflt}


def _versions():
    import scipy

    from . import __version__

    return {"glset": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3]))}
