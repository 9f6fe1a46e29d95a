"""Tests of the benchmark itself: stream-pass counts, span arithmetic,
namespace coverage of the tracer, and the correctness gates.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import math
import os
import statistics
import sys
from pathlib import Path

import pytest

import glset
import run
from run import END_TO_END, HostClock, Runner, Timings
from tracing import LAYERS, Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, chi2_5_pdf, make

CHUNK = 16384
PASSES = {"density-stream": 1, "surface-report": 24, "fd-functional": 3}
BANDWIDTH_CHUNKS = {"density-stream": 1, "surface-report": 0, "fd-functional": 1}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced 1-thread run of every workload: (workload, bodies, tracer)."""
    out = {}
    scratch = tmp_path_factory.mktemp("runs")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GLSET_THREADS", "1")
        for name in WORKLOADS:
            with Tracer() as tracer:
                workload = make(name, 7, scratch)
                bodies = workload.run()
            out[name] = (workload, bodies, tracer)
    return out


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, (unit, better, *_) in LAYERS.items()]


@pytest.mark.parametrize("name", WORKLOADS)
def test_stream_passes_and_chunks(traced, name):
    _, _, tracer = traced[name]
    assert len(tracer.passes) == PASSES[name]
    for p in tracer.passes:
        n = p.key[1]
        assert p.chunks == math.ceil(n / CHUNK)
        assert sum(p.rows) == n
    metrics = layer_metrics(tracer.spans, tracer.passes, [])
    assert metrics["model.stream_passes"] == PASSES[name]
    assert metrics["model.chunks"] == (sum(math.ceil(p.key[1] / CHUNK) for p in tracer.passes)
                                       + BANDWIDTH_CHUNKS[name])


def test_surface_report_counts(traced):
    _, _, tracer = traced["surface-report"]
    metrics = layer_metrics(tracer.spans, tracer.passes, [])
    # two streams (surface job, disintegrate job) drawn 24 times
    assert metrics["model.useful_pass_ratio"] == 2 / 24
    # sphere quadrature in d=5 with 64 Gauss-Legendre nodes per angle
    assert metrics["surface.quadrature_points"] == 64 ** 4
    assert metrics["config.parse_s"] > 0
    assert metrics["runner.io_bytes"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_gate_passes_and_fails_on_perturbed_oracle(traced, name):
    workload, bodies, _ = traced[name]
    assert workload.gate(bodies) == []
    assert workload.gate(bodies, oracle=lambda r: 1.1 * chi2_5_pdf(r))


def _perturbed(bodies, key, edit):
    payload = json.loads(bodies[key])
    edit(payload)
    return dict(bodies, **{key: json.dumps(payload).encode()})


@pytest.mark.parametrize("key, edit", [
    ("job01_surface.json", lambda p: p["ibp"][0].update(lhs=p["ibp"][0]["lhs"] + 1.0)),
    ("job01_surface.json", lambda p: p["hausdorff"].update(
        quad_value=1.05 * p["hausdorff"]["quad_value"])),
    ("job02_disintegrate.json", lambda p: p["tower"][0].update(
        weighted_sum=p["tower"][0]["weighted_sum"] + 1e-9)),
])
def test_surface_gate_fails_on_perturbed_output(traced, key, edit):
    workload, bodies, _ = traced["surface-report"]
    assert workload.gate(_perturbed(bodies, key, edit))


def test_fd_gate_fails_on_estimator_disagreement(traced):
    workload, bodies, _ = traced["fd-functional"]

    def shift(p):
        moll = p["mollified"]
        moll["estimates"] = [e + 10 * s for e, s in zip(moll["estimates"], moll["stderrs"])]

    assert workload.gate(_perturbed(bodies, "curves.json", shift))


def test_self_time_on_synthetic_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 2.0, 5.0, 0),   # overlaps a, as pool workers do
        Span(3, "c", 8.0, 12.0, 0),  # reaches past its parent; clipped
        Span(4, "a.child", 1.5, 2.5, 1),
        Span(5, "other", 20.0, 21.0, None),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)


def test_tracer_covers_every_namespace_and_uninstalls():
    originals = {
        "map_chunks": glset.density.map_chunks,
        "iter_sample_chunks": glset.model.iter_sample_chunks,
        "disintegrate": glset.disintegration.disintegrate,
        "batch_mean_stderr": glset.density.batch_mean_stderr,
    }
    value = glset.Norm2.value

    def holders(fn):
        return [name for name, mod in sys.modules.items()
                if name.startswith("glset") and mod is not None
                and any(v is fn for v in vars(mod).values())]

    assert all(holders(fn) for fn in originals.values())
    with Tracer():
        for fn in originals.values():
            assert holders(fn) == []
        assert glset.Norm2.value is not value
    for fn in originals.values():
        assert holders(fn)
    assert glset.Norm2.value is value


class _Fake:
    def __init__(self, bodies_by_threads, failures=()):
        self.bodies_by_threads = bodies_by_threads
        self.failures = list(failures)

    def run(self):
        bodies = self.bodies_by_threads[os.environ["GLSET_THREADS"]]
        if bodies is None:
            raise RuntimeError("boom")
        return bodies

    def gate(self, bodies):
        return list(self.failures)


@pytest.mark.parametrize("fake, failed", [
    (_Fake({"1": {"a": b"x"}, "2": {"a": b"x"}}), 0),
    (_Fake({"1": {"a": b"x"}, "2": {"a": b"y"}}), 1),
    (_Fake({"1": {"a": b"x"}, "2": None}), 1),
    (_Fake({"1": {"a": b"x"}, "2": {"a": b"x"}}, failures=["oracle"]), 2),
])
def test_runner_counts_failed_runs(monkeypatch, fake, failed):
    monkeypatch.setenv("GLSET_THREADS", "1")
    runner = Runner()
    runner.run(fake, 1)
    runner.run(fake, 2)
    assert (runner.attempted, runner.failed) == (2, failed)


def test_host_clock_normalises_by_the_calibrations_either_side(monkeypatch):
    calibrations = iter([0.2, 0.4, 0.1])
    monkeypatch.setattr(run, "calibrate", lambda: next(calibrations))
    clock = HostClock()
    timings = Timings()
    clock.time(lambda: 3.0, timings)
    clock.time(lambda: 1.0, timings)
    ref = run.CALIBRATION_REF_S
    assert timings.raw == [3.0, 1.0]
    assert timings.normalised == pytest.approx([3.0 * ref / 0.3, 1.0 * ref / 0.25])
    assert timings.report("wall_s", "runs") == pytest.approx(statistics.median(timings.normalised))
