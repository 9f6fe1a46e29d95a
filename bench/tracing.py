"""Span tracing of glset from outside the library.

A :class:`Tracer` replaces public glset functions and methods with wrappers
that record one span per call: name, start, end, the span that caused it,
and a work count (rows, nodes or bytes).  Every wrapper is installed in
each glset namespace that holds the original, because several modules
import functions by name (``surface`` imports ``map_chunks``, ``calculus``
and ``disintegration`` import ``iter_sample_chunks``, ``runner`` imports
``disintegrate``); a namespace left unpatched would hide its calls.

Spans stay in memory until the run ends.  :func:`layer_metrics` turns the
spans of one traced iteration into the per-layer numbers listed in
:data:`LAYERS`.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    count: int = 0


@dataclass
class StreamPass:
    """One pass over a sample stream: a ``map_chunks`` or ``iter_sample_chunks``
    call, keyed by ``(model, n, seed)``, with the rows of each chunk drawn."""

    key: tuple
    dim: int
    rows: list = field(default_factory=list)

    @property
    def chunks(self) -> int:
        return len(self.rows)


FUNCTIONAL_VALUE = ("value",)
FUNCTIONAL_DERIVS = ("gradient", "partial", "laplacian", "hessian_quad", "hessian_row")
DISINTEGRATION_METHODS = ("evaluate", "bin_sums", "conditional_means")


class Tracer:
    """Records spans and stream passes while installed into glset."""

    def __init__(self):
        self.spans: list[Span] = []
        self.passes: list[StreamPass] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ----------------------------- spans -----------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None) -> Span:
        """Start a span; its parent is the innermost open span of this thread,
        or ``parent`` when the thread has none (a pool worker)."""
        stack = self._stack()
        span = Span(next(self._ids), name, 0.0, 0.0,
                    stack[-1].id if stack else parent)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name: str, count=None, outermost: bool = False):
        """Wrapper recording a span per call; ``count(args)`` sets its work
        count.  With ``outermost``, calls made inside a span of the same
        name (recursion) are not recorded."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost:
                stack = tracer._stack()
                if stack and stack[-1].name == name:
                    return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.count = count(args)
            return out

        return traced

    # ----------------------------- installation -----------------------------

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        """Replace ``original`` in every loaded glset module namespace."""
        hits = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "glset" or modname.startswith("glset.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{original.__qualname__} not found in any glset namespace")

    def _patch_methods(self, cls, names, span_name, count=None):
        for name in names:
            if name in cls.__dict__:
                self._patch(cls, name, self.wrap(cls.__dict__[name], span_name, count))

    def install(self):
        """Wrap the public entry points of every glset layer."""
        from glset import calculus, config, density, disintegration, expressions, \
            functionals, model, runner, surface

        self._patch_everywhere(density.map_chunks, self._traced_map_chunks(density.map_chunks))
        self._patch_everywhere(model.iter_sample_chunks,
                               self._traced_iter_chunks(model.iter_sample_chunks))
        # the bandwidth draws chunk 0 outside any pass; its count is rows x d
        self._patch_everywhere(density.default_bandwidth, self.wrap(
            density.default_bandwidth, "density.bandwidth",
            count=lambda args: min(args[2], model.CHUNK_SIZE) * args[0].dim))

        rows = lambda args: args[1].shape[0]
        for cls in _subclasses(functionals.Functional):
            self._patch_methods(cls, FUNCTIONAL_VALUE, "functionals.value", count=rows)
            self._patch_methods(cls, FUNCTIONAL_DERIVS, "functionals.deriv")
        self._patch_methods(calculus.KernelField, ("divergence",), "calculus.kernel_div")
        self._patch_everywhere(calculus.hill_tail_index,
                               self.wrap(calculus.hill_tail_index, "calculus.tail"))

        self._patch_everywhere(density.batch_mean_stderr,
                               self.wrap(density.batch_mean_stderr, "density.batch_means"))

        for fn in (surface.sphere_quadrature, surface.hyperplane_quadrature):
            self._patch_everywhere(fn, self.wrap(fn, "surface.quadrature"))

        self._patch_everywhere(disintegration.disintegrate, self.wrap(
            disintegration.disintegrate, "disintegration.disintegrate"))
        self._patch_methods(disintegration.EmpiricalDisintegration,
                            DISINTEGRATION_METHODS, "disintegration.evaluate")

        self._patch_everywhere(expressions.evaluate,
                               self.wrap(expressions.evaluate, "expressions.evaluate"))
        for fn in (expressions.diff, expressions.simplify):
            self._patch_everywhere(fn, self.wrap(fn, "expressions.derive", outermost=True))

        self._patch_everywhere(config.parse_config,
                               self.wrap(config.parse_config, "config.parse"))
        file_bytes = lambda args: Path(args[0]).stat().st_size
        for fn in (runner.write_csv, runner.write_json):
            self._patch_everywhere(fn, self.wrap(fn, "runner.io", count=file_bytes))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ----------------------------- stream passes -----------------------------

    def _traced_map_chunks(self, fn):
        tracer = self

        @functools.wraps(fn)
        def map_chunks(model, n, seed, worker):
            rec = StreamPass((model, n, seed), model.dim)
            tracer.passes.append(rec)
            span = tracer.open("model.map_chunks")

            def traced_worker(index, pts):
                wspan = tracer.open("density.chunk_worker", parent=span.id)
                try:
                    return worker(index, pts)
                finally:
                    tracer.close(wspan)
                    rec.rows.append(pts.shape[0])

            try:
                return fn(model, n, seed, traced_worker)
            finally:
                tracer.close(span)

        return map_chunks

    def _traced_iter_chunks(self, fn):
        tracer = self

        @functools.wraps(fn)
        def iter_sample_chunks(model, n, seed, *args, **kwargs):
            rec = StreamPass((model, n, seed), model.dim)
            tracer.passes.append(rec)
            inner = fn(model, n, seed, *args, **kwargs)

            def draws():
                while True:
                    span = tracer.open("model.draw")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    rec.rows.append(item[1].shape[0])
                    yield item

            return draws()

        return iter_sample_chunks


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


# ----------------------------- span arithmetic -----------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children running concurrently (pool workers) may overlap; the covered
    part is the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


# ----------------------------- per-layer metrics -----------------------------

# name -> (unit, better, what it is, end-to-end metric it should move, workload)
LAYERS = {
    "model.stream_passes": ("count", "lower", "map_chunks + iter_sample_chunks calls",
                            "wall_s", "surface-report"),
    "model.chunks": ("count", "lower", "chunks drawn, the bandwidth chunk included",
                     "wall_s", "surface-report"),
    "model.useful_pass_ratio": ("ratio", "higher",
                                "distinct (model, n, seed) streams / stream passes",
                                "wall_s", "surface-report"),
    "model.sample_s": ("s", "lower", "map_chunks self time + iter_sample_chunks draw time",
                       "wall_s", "density-stream"),
    "model.bytes_drawn": ("bytes", "lower", "rows x d x 8 over all draws (computed)",
                          "wall_s", "surface-report"),
    "functionals.value_calls_per_chunk": ("calls/chunk", "lower",
                                          "Functional.value calls (FD stencils included) "
                                          "/ chunks", "wall_s", "fd-functional"),
    "functionals.value_s": ("s", "lower", "Functional.value self time",
                            "wall_s", "fd-functional"),
    "functionals.deriv_s": ("s", "lower",
                            "gradient/partial/laplacian/hessian_quad/hessian_row self time",
                            "wall_s", "fd-functional"),
    "calculus.kernel_div_s": ("s", "lower", "KernelField.divergence self time",
                              "wall_s", "fd-functional"),
    "calculus.tail_s": ("s", "lower", "hill_tail_index time",
                        "wall_s", "density-stream"),
    "density.reduce_s": ("s", "lower", "chunk-worker self time (sort, prefix sums)",
                         "wall_s", "density-stream"),
    "density.batch_means_s": ("s", "lower", "batch_mean_stderr time",
                              "wall_s", "density-stream"),
    "density.pool_busy_frac_2t": ("ratio", "higher",
                                  "worker time / (2 x map_chunks time) at 2 threads",
                                  "wall_s_2t", "density-stream"),
    "surface.quadrature_s": ("s", "lower", "sphere_quadrature + hyperplane_quadrature time",
                             "wall_s", "surface-report"),
    "surface.quadrature_points": ("count", "lower", "quadrature nodes evaluated",
                                  "wall_s", "surface-report"),
    "disintegration.bin_s": ("s", "lower", "disintegrate self time",
                             "wall_s", "surface-report"),
    "disintegration.evaluate_s": ("s", "lower",
                                  "evaluate + bin_sums + conditional_means self time",
                                  "wall_s", "surface-report"),
    "expressions.eval_s": ("s", "lower", "top-level evaluate time",
                           "wall_s", "surface-report"),
    "expressions.derive_s": ("s", "lower", "top-level diff + simplify time",
                             "wall_s", "surface-report"),
    "config.parse_s": ("s", "lower", "parse_config time", "setup_s", "surface-report"),
    "runner.io_s": ("s", "lower", "write_csv + write_json time", "wall_s", "surface-report"),
    "runner.io_bytes": ("bytes", "lower", "bytes written by write_csv + write_json",
                        "wall_s", "surface-report"),
    "trace.overhead_s": ("s", "lower", "traced wall_s minus untraced wall_s",
                         "none (cost of the tracer itself)", "all"),
}


def layer_metrics(spans: list[Span], passes: list[StreamPass],
                  spans_2t: list[Span]) -> dict[str, float]:
    """Per-layer numbers from one traced 1-thread iteration (``spans``,
    ``passes``) and one traced 2-thread iteration (``spans_2t``).
    ``trace.overhead_s`` is left to the caller, which holds the wall times."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def total(name, among=spans):
        return sum(s.end - s.start for s in among if s.name == name)

    def self_time(name):
        return sum(own[s.id] for s in spans if s.name == name)

    bandwidth = [s for s in spans if s.name == "density.bandwidth"]
    chunks = sum(p.chunks for p in passes) + len(bandwidth)
    rows_x_dim = sum(sum(p.rows) * p.dim for p in passes) + sum(s.count for s in bandwidth)
    values = [s for s in spans if s.name == "functionals.value"]
    busy = total("density.chunk_worker", spans_2t)
    pool = total("model.map_chunks", spans_2t)
    quad_points = sum(s.count for s in values
                      if s.parent is not None and by_id[s.parent].name == "surface.quadrature")
    return {
        "model.stream_passes": len(passes),
        "model.chunks": chunks,
        "model.useful_pass_ratio": len({p.key for p in passes}) / len(passes) if passes else 1.0,
        "model.sample_s": self_time("model.map_chunks") + total("model.draw"),
        "model.bytes_drawn": 8 * rows_x_dim,
        "functionals.value_calls_per_chunk": len(values) / chunks if chunks else 0.0,
        "functionals.value_s": self_time("functionals.value"),
        "functionals.deriv_s": self_time("functionals.deriv"),
        "calculus.kernel_div_s": self_time("calculus.kernel_div"),
        "calculus.tail_s": total("calculus.tail"),
        "density.reduce_s": self_time("density.chunk_worker"),
        "density.batch_means_s": total("density.batch_means"),
        "density.pool_busy_frac_2t": busy / (2.0 * pool) if pool > 0 else math.nan,
        "surface.quadrature_s": total("surface.quadrature"),
        "surface.quadrature_points": quad_points,
        "disintegration.bin_s": self_time("disintegration.disintegrate"),
        "disintegration.evaluate_s": self_time("disintegration.evaluate"),
        "expressions.eval_s": total("expressions.evaluate"),
        "expressions.derive_s": total("expressions.derive"),
        "config.parse_s": total("config.parse"),
        "runner.io_s": total("runner.io"),
        "runner.io_bytes": sum(s.count for s in spans if s.name == "runner.io"),
    }
