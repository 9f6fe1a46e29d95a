"""glset benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload surface-report --seed 1 --seconds 30 --trace 0

Run it from the root of a glset checkout: the program is imported from the
checkout's ``src`` directory, never from an installed copy, and the run
stops with an error when that directory is missing.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh processes), median wall time per workload run at
GLSET_THREADS=1 and 2, and peak resident memory of the process after its
first ``MIN_PAIRS`` pairs of 1- and 2-thread runs.  On a shared 2-core host
the speed of the same code drifts by a fifth and more within minutes, in
CPU time as much as in wall time.  So a fixed numpy kernel that calls no
glset code (:func:`calibrate`) runs before the first timed step and after
each one, and the times reported are host-normalised: a step's seconds
times ``CALIBRATION_REF_S`` over the mean of the kernel's two times either
side of it, i.e. seconds on a host on which the kernel takes
``CALIBRATION_REF_S``.  The raw medians are printed beside them.

``--trace 1`` gives the per-layer metrics of :data:`tracing.LAYERS` from
one traced run at each thread count, plus the tracing overhead: the median
host-normalised wall time of traced runs minus that of untraced runs.  Every run is checked by the
workload's correctness gate, and its output bodies must equal the first
run's byte for byte, whatever the thread count.

Standard output: the run's environment and each metric in words, then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SETUP_PROBES = 9
# at least three timings per thread count, so that a median is not a mean of
# two; a workload whose three pairs take longer than --seconds overruns it
MIN_PAIRS = 3
THREADS = (1, 2)
END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_s_2t": "s", "peak_rss_mb": "MB"}
# about the calibration kernel's time on an unloaded 2-core x86-64 host with
# numpy 2; normalised times are seconds on a host of that speed
CALIBRATION_REF_S = 0.2
CALIBRATION_ROUNDS = 80


def import_glset():
    if not (SRC / "glset" / "__init__.py").is_file():
        sys.exit(f"bench: no glset sources under {SRC}; run from the root of a glset checkout")
    sys.path.insert(0, str(SRC))
    import glset

    if Path(glset.__file__).resolve().parent != SRC / "glset":
        sys.exit(f"bench: imported glset from {glset.__file__}, not from {SRC}")


def last_level_cache() -> str:
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    best = (0, "unknown")
    for c in caches:
        try:
            level = int((c / "level").read_text())
            size = (c / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def environment(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"), "glset_threads": list(THREADS),
            "last_level_cache": last_level_cache()}


def calibrate() -> float:
    """Seconds for a fixed numpy kernel on one thread: Philox draws, row
    norms, sort, prefix sum and element-wise maths on 16384 x 5 chunks, as
    glset's chunk workers do.  It calls no glset code, so it measures the
    host, not the program."""
    rng = np.random.Generator(np.random.Philox(0))
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        x = rng.standard_normal((16384, 5))
        np.cumsum(np.sort(np.sum(x * x, axis=1)))
        np.exp(-x) * x + np.sqrt(np.abs(x))
    return time.perf_counter() - start


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def release_free_memory():
    """Hand memory that earlier runs freed back to the system (glibc), so
    that the peak resident memory is one run's own, not a heap fragmented
    by as many earlier runs as the host speed allowed and by which pool
    thread's arena happened to free what."""
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


class Runner:
    """Runs a workload, gates every run and compares its bodies with the first."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def run(self, workload, threads: int) -> float:
        os.environ["GLSET_THREADS"] = str(threads)
        self.attempted += 1
        release_free_memory()
        start = time.perf_counter()
        try:
            bodies = workload.run()
            elapsed = time.perf_counter() - start
            failures = workload.gate(bodies)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - start
        if self.reference is None:
            self.reference = bodies
        elif bodies != self.reference:
            failures.append(f"{threads}-thread output bodies differ from the first run's")
        if failures:
            self.failed += 1
            print("\n".join(f"gate: {f}" for f in failures), file=sys.stderr)
        return elapsed


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until the workload is built and warm."""
    env = dict(os.environ, GLSET_THREADS="1")
    start = time.time()
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--probe",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - start


class Timings:
    """Raw and host-normalised seconds of one kind of timed step."""

    def __init__(self):
        self.raw: list[float] = []
        self.normalised: list[float] = []

    def add(self, seconds: float, calibration: float):
        self.raw.append(seconds)
        self.normalised.append(seconds * CALIBRATION_REF_S / calibration)

    def report(self, key: str, what: str) -> float:
        norm, raw = self.normalised, self.raw
        print(f"{key}: median {statistics.median(norm):.6f} s, max {max(norm):.6f} s "
              f"host-normalised; raw median {statistics.median(raw):.6f} s, "
              f"max {max(raw):.6f} s; {len(norm)} {what}")
        return statistics.median(norm)


class HostClock:
    """Times steps with a calibration between each two and at both ends;
    a step is normalised by the mean of the calibrations either side of it."""

    def __init__(self):
        self.calibrations = [calibrate()]

    def time(self, step, timings: Timings):
        """Run ``step()``, which returns its own seconds, into ``timings``."""
        seconds = step()
        self.calibrations.append(calibrate())
        timings.add(seconds, (self.calibrations[-2] + self.calibrations[-1]) / 2)


def measure_setup(workload: str, seed: int, clock: HostClock) -> Timings:
    setup = Timings()
    for _ in range(SETUP_PROBES):
        clock.time(lambda: probe_setup(workload, seed), setup)
    return setup


def end_to_end(name: str, seed: int, workload, runner: Runner, seconds: float) -> dict:
    clock = HostClock()
    setup = measure_setup(name, seed, clock)
    walls = {t: Timings() for t in THREADS}
    deadline = time.perf_counter() + seconds
    for pairs in itertools.count(1):
        pair_start = time.perf_counter()
        for t in THREADS:
            clock.time(lambda: runner.run(workload, t), walls[t])
        if pairs == MIN_PAIRS:
            # the peak creeps up with every run, so it is read after a fixed
            # number of runs, not after as many as the host speed allowed
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if pairs >= MIN_PAIRS and now + (now - pair_start) > deadline:
            break
    print(f"peak_rss_mb: {rss_mb:.3f} MB after {MIN_PAIRS} pairs of runs")
    c = clock.calibrations
    print(f"calibration: median {statistics.median(c):.6f} s, min {min(c):.6f} s, "
          f"max {max(c):.6f} s, {len(c)} runs of the kernel")
    return {"setup_s": setup.report("setup_s", "fresh processes"),
            "wall_s": walls[1].report("wall_s", "runs at GLSET_THREADS=1"),
            "wall_s_2t": walls[2].report("wall_s_2t", "runs at GLSET_THREADS=2"),
            "peak_rss_mb": rss_mb}


def traced(name: str, seed: int, workload, runner: Runner, seconds: float) -> dict:
    from tracing import LAYERS, Tracer, layer_metrics
    from workloads import make

    clock = HostClock()
    untraced, traced_walls = Timings(), Timings()
    deadline = time.perf_counter() + seconds
    pair_start = time.perf_counter()
    clock.time(lambda: runner.run(workload, 1), untraced)
    with Tracer() as tracer:
        # built inside the trace so that config parsing is seen
        traced_workload = make(name, seed, SCRATCH)
        clock.time(lambda: runner.run(traced_workload, 1), traced_walls)
    pair = time.perf_counter() - pair_start
    with Tracer() as tracer_2t:
        runner.run(traced_workload, 2)
    # more untraced and traced runs, alternated, for the overhead
    while time.perf_counter() + pair <= deadline:
        clock.time(lambda: runner.run(workload, 1), untraced)
        with Tracer():
            clock.time(lambda: runner.run(traced_workload, 1), traced_walls)
    metrics = layer_metrics(tracer.spans, tracer.passes, tracer_2t.spans)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls.normalised)
                                   - statistics.median(untraced.normalised))
    for key, value in metrics.items():
        unit, _, what, target, on = LAYERS[key]
        print(f"{key}: {value} {unit}  ({what}; moves {target} on {on})")
    traced_walls.report("traced wall", "traced runs at GLSET_THREADS=1")
    untraced.report("untraced wall", "untraced runs at GLSET_THREADS=1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="build and warm the workload, print the time, exit")
    args = parser.parse_args(argv)

    import_glset()
    from workloads import WORKLOADS, make

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.probe:
        make(args.workload, args.seed, SCRATCH).warm()
        print(repr(time.time()))
        return 0

    from tracing import LAYERS

    workload = make(args.workload, args.seed, SCRATCH)
    workload.warm()
    runner = Runner()
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    if args.trace:
        values = traced(args.workload, args.seed, workload, runner, args.seconds)
        units = {k: v[0] for k, v in LAYERS.items()}
    else:
        values = end_to_end(args.workload, args.seed, workload, runner, args.seconds)
        units = END_TO_END
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    print(f"failed_fraction: {runner.failed / runner.attempted} "
          f"({runner.failed} of {runner.attempted} runs)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
