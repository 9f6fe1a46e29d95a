"""The benchmark's workloads and their correctness gates.

A workload is built from a seed (set-up), then run any number of times.
Each run returns the output bodies as bytes keyed by name; the same seed
gives the same bodies on every run and at every thread count.  ``gate``
parses the bodies and returns one line per failed check (empty when the
run is correct).  Tolerances are the acceptance battery's:

* divergence estimates within ``max(2% oracle, 4 s.e.)`` of the oracle,
* divergence and mollified estimates within 4 combined s.e.,
* every integration-by-parts residual within 4 combined s.e.,
* Hausdorff relative error at most ``max(1%, 4 relative s.e.)``,
* tower relative error at most 1e-12.

The rules are written out here, not taken from glset, so that the program
cannot loosen the gate that judges it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from glset import (Constant, DensityJob, Norm2, UserFunctional, build_model,
                   estimate_density, ibp_residuals)
from glset import config as glset_config
from glset import runner as glset_runner

CONFIG_TEMPLATE = Path(__file__).resolve().parent / "surface_report.cfg"


def chi2_5_pdf(r: float) -> float:
    """Density of the chi-square distribution with 5 degrees of freedom."""
    return r ** 1.5 * math.exp(-r / 2.0) / (2.0 ** 2.5 * math.gamma(2.5))


def _num(v) -> float:
    # the runner writes non-finite floats as null
    return math.nan if v is None else float(v)


# ----------------------------- gates -----------------------------

def oracle_failures(label, r, estimates, stderrs, oracle) -> list[str]:
    out = []
    for ri, e, s in zip(r, estimates, stderrs):
        want = oracle(_num(ri))
        tol = max(0.02 * abs(want), 4.0 * _num(s))
        if not abs(_num(e) - want) <= tol:
            out.append(f"{label} r={ri}: estimate {e} vs oracle {want:.6g}, tolerance {tol:.3g}")
    return out


def agreement_failures(div, moll) -> list[str]:
    out = []
    for ri, d, sd, m, sm in zip(div["r"], div["estimates"], div["stderrs"],
                                moll["estimates"], moll["stderrs"]):
        band = 4.0 * math.hypot(_num(sd), _num(sm))
        if not abs(_num(d) - _num(m)) <= band:
            out.append(f"estimator agreement r={ri}: divergence {d} vs mollified {m}, "
                       f"band {band:.3g}")
    return out


def ibp_failures(records) -> list[str]:
    out = []
    for rec in records:
        band = 4.0 * math.hypot(_num(rec["lhs_stderr"]), _num(rec["rhs_stderr"]))
        if not abs(_num(rec["lhs"]) - _num(rec["rhs"])) <= band:
            out.append(f"ibp phi={rec['phi_name']} k={rec['k']} r={rec['r']}: "
                       f"residual {_num(rec['lhs']) - _num(rec['rhs']):.3g}, band {band:.3g}")
    return out


def hausdorff_failures(rec) -> list[str]:
    quad = _num(rec["quad_value"])
    scale = max(abs(quad), 1e-300)
    rel = abs(_num(rec["mc_value"]) - quad) / scale
    tol = max(0.01, 4.0 * _num(rec["mc_stderr"]) / scale)
    if rel <= tol:
        return []
    return [f"hausdorff: relative error {rel:.3g} > {tol:.3g}"]


def tower_failures(towers) -> list[str]:
    out = []
    for t in towers:
        plain = _num(t["plain_mean"])
        rel = abs(_num(t["weighted_sum"]) - plain) / max(1.0, abs(plain))
        if not rel <= 1e-12:
            out.append(f"tower phi={t['phi_name']}: relative error {rel:.3g} > 1e-12")
    return out


def _curve_payload(curve) -> dict:
    return {"r": curve.r.tolist(), "estimates": curve.estimates.tolist(),
            "stderrs": curve.stderrs.tolist(),
            "excluded_fraction": curve.excluded_fraction, "flags": list(curve.flags)}


def _body(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


# ----------------------------- workloads -----------------------------

class DensityStream:
    """One ``estimate_density`` pass: norm2 on iid d=5, phi=1, both estimators."""

    name = "density-stream"

    def __init__(self, seed: int, n: int = 4_000_000):
        self.job = DensityJob(model=build_model(("iid_gaussian", 5)), G=Norm2(),
                              phi=Constant(1.0), r_grid=tuple(np.linspace(0.5, 10.0, 20)),
                              n=n, seed=seed, estimator="both")

    def warm(self):
        type(self)(self.job.seed, n=1000).run()

    def run(self) -> dict[str, bytes]:
        curves = estimate_density(self.job)
        return {"curves.json": _body({k: _curve_payload(c) for k, c in curves.items()})}

    def gate(self, bodies, oracle=chi2_5_pdf) -> list[str]:
        curves = json.loads(bodies["curves.json"])
        div, moll = curves["divergence"], curves["mollified"]
        return (oracle_failures("divergence", div["r"], div["estimates"], div["stderrs"], oracle)
                + agreement_failures(div, moll))


def squared_norm(xi):
    return np.sum(xi * xi, axis=1)


class FdFunctional:
    """A value-only ``UserFunctional`` for norm2, so every derivative is a
    finite difference: a density pass, then integration-by-parts residuals."""

    name = "fd-functional"

    def __init__(self, seed: int, n: int = 300_000):
        self.model = build_model(("iid_gaussian", 5))
        self.G = UserFunctional(squared_norm, name="norm2_fd")
        self.n = n
        self.seed = seed
        self.job = DensityJob(model=self.model, G=self.G, phi=Constant(1.0),
                              r_grid=(1.0, 3.0, 5.0, 8.0), n=n, seed=seed, estimator="both")

    def warm(self):
        type(self)(self.seed, n=1000).run()

    def run(self) -> dict[str, bytes]:
        curves = estimate_density(self.job)
        records = ibp_residuals(self.model, self.G, Constant(1.0), 1, (3.0, 5.0),
                                self.n, self.seed)
        return {"curves.json": _body({k: _curve_payload(c) for k, c in curves.items()}),
                "ibp.json": _body([dataclasses.asdict(r) for r in records])}

    def gate(self, bodies, oracle=chi2_5_pdf) -> list[str]:
        curves = json.loads(bodies["curves.json"])
        div, moll = curves["divergence"], curves["mollified"]
        return (oracle_failures("divergence", div["r"], div["estimates"], div["stderrs"], oracle)
                + agreement_failures(div, moll)
                + ibp_failures(json.loads(bodies["ibp.json"])))


class SurfaceReport:
    """``glset.runner.run`` on the committed reference config: a surface job
    (IBP, trace, Hausdorff) and a disintegrate job."""

    name = "surface-report"

    def __init__(self, seed: int, scratch: Path):
        self.scratch = Path(scratch)
        self.config = glset_config.parse_config(
            CONFIG_TEMPLATE.read_text().replace("{seed}", str(seed)))

    def warm(self):
        small = dataclasses.replace(self.config, jobs=tuple(
            dataclasses.replace(job, n=2000, hausdorff=False) for job in self.config.jobs))
        run_config(small, self.scratch)

    def run(self) -> dict[str, bytes]:
        return run_config(self.config, self.scratch)

    def gate(self, bodies, oracle=chi2_5_pdf) -> list[str]:
        surface = json.loads(bodies["job01_surface.json"])
        dis = json.loads(bodies["job02_disintegrate.json"])
        out = oracle_failures("total mass", [surface["r"]], [surface["total_mass"]],
                              [surface["total_mass_stderr"]], oracle)
        out += ibp_failures(surface["ibp"])
        out += hausdorff_failures(surface["hausdorff"])
        out += tower_failures(dis["tower"])
        return out


def run_config(config, scratch: Path) -> dict[str, bytes]:
    """Run a config into a fresh directory under ``scratch``; return every
    job artifact's bytes (the manifest holds a timestamp and is left out)."""
    scratch.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="run", dir=scratch))
    try:
        code = glset_runner.run(config, out)
        if code != 0:
            raise RuntimeError(f"glset.runner.run returned exit code {code}")
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "manifest.json"}
    finally:
        shutil.rmtree(out)


def make(name: str, seed: int, scratch: Path):
    if name == DensityStream.name:
        return DensityStream(seed)
    if name == SurfaceReport.name:
        return SurfaceReport(seed, scratch)
    if name == FdFunctional.name:
        return FdFunctional(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (DensityStream.name, SurfaceReport.name, FdFunctional.name)
