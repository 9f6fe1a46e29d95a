"""The benchmark's hooks into glset still resolve.

``bench/workloads.py`` imports glset names and ``bench/tracing.py`` wraps
glset functions and methods by name; a rename or deletion in the package
breaks them.  This test loads both files from ``bench/`` (writing nothing
there), installs the tracer, runs each workload's small warm-up under it and
uninstalls it again.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from glset import density, model

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    return _load("workloads", monkeypatch), _load("tracing", monkeypatch)


def test_tracer_installs_runs_and_uninstalls(bench, tmp_path):
    workloads, tracing = bench
    originals = (density.map_chunks, model.iter_sample_chunks)
    tracer = tracing.Tracer()
    with tracer:
        assert density.map_chunks is not originals[0]
        for name in workloads.WORKLOADS:
            workloads.make(name, 1, tmp_path).warm()
    assert (density.map_chunks, model.iter_sample_chunks) == originals
    assert tracer.passes and tracer.spans
    metrics = tracing.layer_metrics(tracer.spans, tracer.passes, tracer.spans)
    assert set(metrics) == set(tracing.LAYERS) - {"trace.overhead_s"}
