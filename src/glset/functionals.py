"""Scalar functionals on whitened coordinates.

A functional evaluates on batches: ``value(xi)`` maps an ``(n, d)`` array of
points to an ``(n,)`` array.  Its derivatives are ``gradient`` (``(n, d)``),
``laplacian`` (``(n,)``), ``jvp(xi, u)``, the directional derivative
``grad f . u`` row by row (``(n,)``), and ``hess(xi, u, v)``, the Hessian's
bilinear form ``u^T (D^2 f) v`` row by row (``(n,)``).  A direction is an
``(n, d)`` array or a 0-based column index j, the axis ``e_j`` on every row,
so ``jvp(xi, j)`` is ``D_j f``.  The engine reads the Hessian in two ways
only: ``g^T H g`` for the kernel divergence and ``((D^2 G) g)_k`` =
``hess(xi, k - 1, g)`` for the weight ``phi D_k G``.  ``jvp`` defaults to
``gradient . u``; the classes that can skip the ``(n, d)`` gradient override
it.  Analytic derivatives are optional; anything missing falls back to
central finite differences on kept sides:

* the axis sides ``f(xi +- h e_k)`` of the coordinate stencil, with per-row
  step ``h = FD_STEP * (1 + |xi_k|)`` (:func:`fd_sides`), give the gradient,
  ``D_k f`` from its own two sides, and with the centre value the
  Laplacian;
* the ray sides ``f(xi +- t u/|u|)`` of an array direction, with per-row
  step ``t = FD_STEP * (1 + |xi|)``, give ``hess(xi, u, u)`` as
  ``|u|^2`` times the second difference along ``u/|u|`` (2 new values);
* any other pair ``(u, v)`` takes the 7-point mixed difference on the
  sides of both directions, the centre, and the 2 new values
  ``f(xi + a + b)`` and ``f(xi - a - b)`` at the sum of their steps
  (Abramowitz & Stegun 25.3.27).

Every pass runs on a pool of ``GLSET_THREADS`` worker threads
(:func:`~glset.density.map_chunks`), and only a worker holds pass state, in
its :class:`_Worker`: the column-major buffers that the axis, ray and mixed
sides and a callback's centre value (:class:`UserFunctional`) are evaluated
on, reused across its chunks, and the memo of its chunk; any other thread
gets new buffers and no memo.  A side that is a view of its buffer is
copied, and a callback that takes finite differences itself gets buffers of
its own.  Inside a chunk of a stream pass (:func:`chunk_scope`, opened only
by :func:`~glset.density.run_plans`) the memo keeps, at the chunk points,
behind one door (:meth:`Functional._kept`) that hands every read of a kept
array the same read-only view, what costs a callback or a tree walk: a
callback's value and its axis sides, ray sides and mixed-difference
corners, an expression's value, gradient and Hessian products, and the
``|xi|`` and ``xi . u`` that every :class:`RadialClamp` level of a trace
reads.  Everything else is arithmetic on kept entries, or a closed-form
builtin asked once per chunk, and is recomputed.  The memo dies with the
chunk.  Oracles must be pure so they can be evaluated concurrently and
re-evaluated chunk by chunk, and must not keep a reference to their input:
a buffer is overwritten after they return and again in the next chunk.

Sums and multiples of functionals are spelled as expressions
(:class:`~glset.expressions.ExpressionFunctional`).  The one H-vector
field the engine uses, the kernel field ``D_H G / |D_H G|^2``, is
:class:`~glset.calculus.KernelField`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class NumericalFault(ArithmeticError):
    """A functional or field produced a non-finite value during estimation."""

    def __init__(self, message, context=""):
        super().__init__(message if not context else f"{context}: {message}")
        self.context = context


def check_finite(values: np.ndarray, what: str, context: str = ""):
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(np.atleast_1d(values))))
        raise NumericalFault(f"{what} returned {bad} non-finite value(s)", context)
    return values


# ----------------------------- chunk kernels -----------------------------
# np.sum over rows of fewer than 8 columns and np.argsort(kind="stable") are
# slow for the (16384, d) chunks of a stream pass; these give the same bits
# faster.


def rowsum(p: np.ndarray) -> np.ndarray:
    """Row sums with the bits of ``np.sum(p, axis=1)``.

    numpy sums each row of a C-contiguous 2-D float64 ``p`` pairwise
    (Higham 1993), which below 8 terms is plain left-to-right addition; for
    1 to 7 columns this adds the columns in that order, about 6x faster at
    (16384, 5).  Any other input, 8 columns or more included, goes to
    ``np.sum`` itself.
    """
    if p.ndim != 2 or p.dtype != np.float64 or not p.flags.c_contiguous \
            or not 0 < p.shape[1] < 8:
        return np.sum(p, axis=1)
    out = p[:, 0].copy()
    for j in range(1, p.shape[1]):
        out += p[:, j]
    out += 0.0  # np.sum starts from +0.0, so a row of -0.0 sums to +0.0
    return out


def stable_argsort(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, v[order])`` for ``order = np.argsort(v, kind="stable")``,
    from the default sort when it is unique.

    Strictly increasing sorted values leave only one sorting permutation, so
    the default sort's is the stable one.  A repeat (``-0.0 == 0.0``
    included) or a NaN takes the stable sort.  The sorted values are the
    ones the uniqueness test gathered, so a caller need not gather again.
    """
    order = np.argsort(v)
    s = v[order]
    if np.all(s[1:] > s[:-1]):
        return order, s
    order = np.argsort(v, kind="stable")
    return order, v[order]


# ----------------------------- worker state -----------------------------

class _Worker(threading.local):
    """This thread's pass state, which reaches the derivative methods through
    the thread: ``scope``, the points and memo of the current
    :func:`chunk_scope`, and ``free``, a chunk worker's perturbation buffers
    not in use, a list per ``(kind, columns)``; each None otherwise, and
    dropped when the thread ends.

    Each kind, the "axis" sides (fd_sides), the "ray" sides, the "corner"
    values of a mixed difference and a callback's "centre", keeps buffers of
    its own, so they sit above a chunk's working set in the heap, which is
    then not trimmed at every chunk end and faulted in again: one
    fd-functional benchmark run at one thread (2-core x86-64, glibc, numpy
    2.4) took 57-69 k minor faults with a new array per evaluation and
    5.5-10 k with one buffer per kind; the counts follow the heap layout."""

    free = None
    scope = None


_worker = _Worker()


def keep_buffers():
    """Make this thread a chunk worker, which reuses its perturbation buffers
    until it ends: the initializer of every :func:`~glset.density.map_chunks` thread."""
    _worker.free = {}


@contextmanager
def chunk_scope(points):
    """Keep the costly quantities at ``points`` for later calls in this thread.

    Until the block ends, a quantity that :meth:`Functional._kept` keeps is
    computed once per functional (and directions) at exactly this array
    (``xi is points``) and read back, read-only, by later calls; the
    finite-difference derivatives evaluate each axis side, ray side and
    corner once and share them.  Neither the points nor a direction passed
    to a kept quantity may be written to inside the block.  Only a plan's
    worker in :func:`~glset.density.run_plans` opens one, on a pool thread."""
    outer = _worker.scope
    _worker.scope = (points, {})
    try:
        yield
    finally:
        _worker.scope = outer


def _chunk_memo(xi):
    """The memo of the current chunk when ``xi`` is its points, else None."""
    scope = _worker.scope
    return scope[1] if scope is not None and scope[0] is xi else None


# ----------------------------- finite differences -----------------------------

# Relative step of every central difference.
FD_STEP = 1e-5


@contextmanager
def _perturbation(kind, xi):
    """A column-major float64 buffer of ``xi``'s shape, contents undefined,
    for the points of one evaluation of a ``kind``, given back to the pool of
    a chunk worker's thread when the block ends.

    A free pooled buffer of the kind with ``xi``'s column count and at least
    its rows is handed out as a view of its first rows, so a short chunk
    reuses a full one (the view of a longer buffer is not contiguous: its
    columns keep the full buffer's stride); a nested block never gets a
    buffer that is in use.  Column-major, a row sum walks d contiguous
    columns instead of n rows of d values: ``np.sum(xi * xi, axis=1)`` at
    (16384, 5) takes about a tenth of its time on C-ordered rows, with the
    same bits for fewer than 8 columns (numpy adds the columns in order from
    +0.0, as it adds a short C-ordered row; from 8 columns on it sums a
    C-ordered row pairwise instead).
    """
    n, d = xi.shape
    free = [] if _worker.free is None else _worker.free.setdefault((kind, d), [])
    fits = [i for i, kept in enumerate(free) if len(kept) >= n]
    base = free.pop(fits[-1]) if fits else np.empty((n, d), order="F")
    try:
        yield base[:n]
    finally:
        free.append(base)


def _own(values, buf):
    """``values``, copied if they share memory with the perturbation buffer
    ``buf``, which is written again after they are returned."""
    return values.copy() if np.may_share_memory(values, buf.base) else values


def fd_sides(f, xi, step, coords=None):
    """Both sides of the central-difference stencil of ``f`` at ``xi``.

    Yields ``(k, h, f(xi + h e_k), f(xi - h e_k))`` for every 0-based
    coordinate k in ``coords`` (all by default), with the per-row step
    ``h = step * (1 + |xi_k|)``.  Every side is evaluated on one
    column-major copy of ``xi`` in a pooled buffer (:func:`_perturbation`),
    perturbed in column k and restored before the next coordinate, so ``f``
    gets an ``(n, d)`` float64 view of that buffer, not contiguous for a
    short last chunk; ``f`` must be pure and must neither keep nor write
    its input.  A side that shares memory with the buffer is copied, so
    perturbing it again cannot change what was yielded.
    """
    with _perturbation("axis", xi) as buf:
        np.copyto(buf, xi)
        for k in range(xi.shape[1]) if coords is None else coords:
            col = xi[:, k]
            h = step * (1.0 + np.abs(col))
            np.add(col, h, out=buf[:, k])
            hi = _own(f(buf), buf)
            np.subtract(col, h, out=buf[:, k])
            lo = _own(f(buf), buf)
            buf[:, k] = col
            yield k, h, hi, lo


def _central_gradient(sides, xi):
    out = np.empty_like(xi)
    for k, h, hi, lo in sides:
        out[:, k] = (hi - lo) / (2.0 * h)
    return out


def fd_gradient(value, xi, step):
    """Central-difference gradient of a batch callback."""
    return _central_gradient(fd_sides(value, xi, step), xi)


# ----------------------------- directions -----------------------------

def _is_axis(u):
    """A direction given as a 0-based column index j: ``e_j`` on every row."""
    return isinstance(u, (int, np.integer))


def _dot(a, u):
    """Row-wise ``a . u``: column j of ``a`` for the axis j."""
    return a[:, u] if _is_axis(u) else rowsum(a * u)


def _step(op, x, u, s, out):
    """``out = op(x, s)`` for the step s of the direction u; for the axis j,
    s is the column ``h_j`` of the step ``h_j e_j``, whose other columns
    ``op`` with 0.0 as an ``(n, d)`` step would, so the bits are the same
    without building it.  ``out`` may be ``x``."""
    if _is_axis(u):
        col = op(x[:, u], s)
        op(x, 0.0, out=out)
        out[:, u] = col
    else:
        op(x, s, out=out)


# ----------------------------- scalar functionals -----------------------------

class Functional:
    """Base scalar functional; override ``value`` and any analytic derivatives.

    ``analytic_gradient`` marks gradients as exact; estimators flag curves
    built from finite-difference gradients as approximate.
    """

    name = "f"
    analytic_gradient = False
    min_dim = 1

    def value(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _kept(self, quantity, xi, directions, compute):
        """``compute()``, the ``quantity`` of this functional at ``xi`` along
        the tuple ``directions``: the one door to a chunk's memo.  At the
        points of the current :func:`chunk_scope` it is computed on first use
        and kept until the chunk ends, under ``(quantity, functional,
        directions)``, an axis by index and any other direction by identity.
        A kept array is stored once as a read-only view that every read
        shares, so a write to it raises ValueError; a tuple or a dict is
        shared as it is."""
        memo = _chunk_memo(xi)
        if memo is None:
            return compute()
        key = (quantity, id(self),
               tuple(("axis", int(u)) if _is_axis(u) else id(u) for u in directions))
        entry = memo.get(key)
        if entry is None:
            kept = compute()
            if isinstance(kept, np.ndarray):
                kept = kept.view()
                kept.flags.writeable = False
            # the entry holds self and the directions, so no id is reused in the chunk
            entry = memo[key] = (self, directions, kept)
        return entry[2]

    @staticmethod
    def _bilinear(product, xi, u, v):
        """``u^T (D^2 f) v`` row-wise from a closed-form Hessian product
        ``product(w) = (D^2 f) w``: ``rowsum(u * product(v))``, and an axis
        reads its entry of the product along the other direction."""
        if _is_axis(u):
            if _is_axis(v):
                v = np.broadcast_to(np.eye(xi.shape[1])[v], xi.shape)
            return product(v)[:, u]
        if _is_axis(v):
            return product(u)[:, v]
        return rowsum(u * product(v))

    def _stencil(self, xi, coords=None):
        """The axis sides at ``xi`` for ``coords`` (all by default), as
        :func:`fd_sides` yields them: one kept dict by coordinate that gains
        the missing ones in one batch, so inside a chunk each axis is
        evaluated on first use and ``D_k f`` costs its own two sides."""
        coords = range(xi.shape[1]) if coords is None else coords
        sides = self._kept("sides", xi, (), dict)
        missing = [k for k in coords if k not in sides]
        if missing:
            sides.update((side[0], side) for side in fd_sides(self.value, xi, FD_STEP, missing))
        return [sides[k] for k in coords]

    def _sides(self, xi, u):
        """``(|u|, a, s, f(xi + s), f(xi - s))`` for the step ``s = a u/|u|``
        along the direction u: the axis j takes its stencil step ``a = h_j``
        and gives for s only the column ``h_j`` of ``h_j e_j`` (:func:`_step`),
        an array the row step ``a = FD_STEP (1 + |xi|)`` and a zero row the
        step 0; the ray sides of an array are kept like the axis sides."""
        if _is_axis(u):
            [(_, h, hi, lo)] = self._stencil(xi, (u,))
            return 1.0, h, h, hi, lo
        return self._kept("ray", xi, (u,), lambda: self._ray(xi, u))

    def _ray(self, xi, u):
        norm = np.sqrt(rowsum(u * u))
        a = FD_STEP * (1.0 + np.sqrt(rowsum(xi * xi)))
        s = u * (a / np.where(norm > 0.0, norm, 1.0))[:, None]
        with _perturbation("ray", xi) as buf:
            hi = _own(self.value(np.add(xi, s, out=buf)), buf)
            lo = _own(self.value(np.subtract(xi, s, out=buf)), buf)
        return norm, a, s, hi, lo

    def _corner(self, xi, u, s, v, t, op):
        """``f(op(op(xi, s), t))``, the value at the corner ``xi + s + t``
        (``op`` ``np.add``) or ``xi - s - t`` (``np.subtract``) of the mixed
        difference, with the bits of those expressions; kept like a side."""
        def compute():
            with _perturbation("corner", xi) as buf:
                _step(op, xi, u, s, buf)
                _step(op, buf, v, t, buf)
                return _own(self.value(buf), buf)
        return self._kept("corner", xi, (u, v, op), compute)

    def gradient(self, xi: np.ndarray) -> np.ndarray:
        return _central_gradient(self._stencil(xi), xi)

    def laplacian(self, xi: np.ndarray) -> np.ndarray:
        two_centre = 2.0 * self.value(xi)
        lap = np.zeros(xi.shape[0])
        for k, h, hi, lo in self._stencil(xi):
            lap += (hi - two_centre + lo) / (h * h)
        return lap

    def jvp(self, xi: np.ndarray, u) -> np.ndarray:
        """Directional derivative ``grad f . u`` row-wise, ``D_j f`` for the
        axis j: the first-order twin of :meth:`hess`."""
        return _dot(self.gradient(xi), u)

    def hess(self, xi: np.ndarray, u, v) -> np.ndarray:
        """The Hessian's bilinear form ``u^T (D^2 f) v`` row-wise, each
        direction an ``(n, d)`` array or an axis j.  With ``v is u`` (or the
        same axis) it is ``|u|^2`` times the second difference along ``u/|u|``,

            |u|^2 [f(xi + s) - 2 f(xi) + f(xi - s)] / a^2,   s = a u/|u|;

        otherwise ``|u| |v|`` times the mixed difference along ``u/|u|`` and
        ``v/|v|`` with steps ``s = a u/|u|`` and ``t = b v/|v|``
        (Abramowitz & Stegun 25.3.27),

            [f(xi + s + t) - f(xi + s) - f(xi + t) + 2 f(xi)
             - f(xi - s) - f(xi - t) + f(xi - s - t)] / (2 a b).

        The sides of each direction (:meth:`_sides`), the centre and the
        corners are kept inside a chunk, so ``g^T H g`` takes 2 new values,
        ``((D^2 f) g)_k`` the 2 at ``xi +- (h_k e_k + t)``, and a repeated
        form none.  A row where a direction is 0 gives 0."""
        centre = self.value(xi)
        nu, a, s, hi, lo = self._sides(xi, u)
        if u is v or _is_axis(u) and _is_axis(v) and u == v:
            return (hi - 2.0 * centre + lo) * (nu / a) ** 2
        nv, b, t, hi_v, lo_v = self._sides(xi, v)
        c_plus = self._corner(xi, u, s, v, t, np.add) - hi
        c_minus = self._corner(xi, u, s, v, t, np.subtract) - lo
        return (((c_plus - (hi_v - centre)) + (c_minus - (lo_v - centre)))
                * (nu * nv / (2.0 * a * b)))

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class UserFunctional(Functional):
    """Wrap a plain vectorized callback ``eval`` into an oracle; every
    derivative is a finite difference of its values.

    Inside a pass ``eval`` gets, at every evaluation, the centre included,
    an ``(n, d)`` float64 column-major view of a per-thread pooled buffer:
    float64 column-major points, such as the buffer a side was perturbed in
    (:func:`_perturbation`), are passed as they are, and points of another
    layout or dtype, the C-ordered points of a chunk among them, are first
    copied into a ``"centre"`` buffer.  A short last chunk gets the first
    rows of a full buffer, which are not contiguous.  ``eval``
    must be pure and must neither keep nor write its input: the buffer is
    written again after it returns.  Row sums inside ``eval`` thus take one
    order at the centre and at every side; against a C-ordered input their
    bits are the same for fewer than 8 columns, and from 8 columns on they
    are numpy's sums in column order instead of its pairwise ones.
    """

    def __init__(self, eval, name="user"):
        self._eval = eval
        self.name = name

    def value(self, xi):
        return self._kept("value", xi, (), lambda: self._call(xi))

    def _call(self, xi):
        if xi.dtype != np.float64 or xi.strides[0] != xi.itemsize:
            return self._centre(xi)
        return np.asarray(self._eval(xi), dtype=float)

    def _centre(self, xi):
        with _perturbation("centre", xi) as buf:
            np.copyto(buf, xi)
            return _own(self._call(buf), buf)

    def jvp(self, xi, u):
        if _is_axis(u):
            # D_j f from the two sides along e_j, not the 2d of the gradient
            [(_, h, hi, lo)] = self._stencil(xi, (u,))
            return (hi - lo) / (2.0 * h)
        return super().jvp(xi, u)


class Constant(Functional):
    analytic_gradient = True

    def __init__(self, c: float):
        self.c = float(c)
        self.name = repr(self.c)

    def value(self, xi):
        return np.full(xi.shape[0], self.c)

    def gradient(self, xi):
        return np.zeros_like(xi)

    def laplacian(self, xi):
        return np.zeros(xi.shape[0])

    def jvp(self, xi, u):
        return np.zeros(xi.shape[0])

    def hess(self, xi, u, v):
        return np.zeros(xi.shape[0])


class Linear(Functional):
    """``f(xi) = w . xi`` for a fixed weight row."""

    analytic_gradient = True

    def __init__(self, weights, name=None):
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1:
            raise ValueError("weights must be a flat vector")
        self.min_dim = len(self.weights)
        self.name = name or f"linear({', '.join(repr(float(w)) for w in self.weights)})"

    def value(self, xi):
        return xi[:, : len(self.weights)] @ self.weights

    def gradient(self, xi):
        g = np.zeros_like(xi)
        g[:, : len(self.weights)] = self.weights
        return g

    def laplacian(self, xi):
        return np.zeros(xi.shape[0])

    def hess(self, xi, u, v):
        return np.zeros(xi.shape[0])


class Coordinate(Linear):
    """``f(xi) = xi_k`` (1-based index)."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("coordinate index is 1-based")
        w = np.zeros(k)
        w[k - 1] = 1.0
        super().__init__(w, name=f"coordinate({k})")
        self.k = k


class Norm2(Functional):
    """Squared Euclidean norm of the whitened point, ``sum_k xi_k^2``."""

    analytic_gradient = True
    name = "norm2"

    def value(self, xi):
        return rowsum(xi * xi)

    def gradient(self, xi):
        return 2.0 * xi

    def laplacian(self, xi):
        return np.full(xi.shape[0], 2.0 * xi.shape[1])

    def jvp(self, xi, u):
        # D_j f = 2 xi_j, without the (n, d) gradient
        return 2.0 * xi[:, u] if _is_axis(u) else super().jvp(xi, u)

    def hess(self, xi, u, v):  # D^2 = 2 I
        if _is_axis(u) != _is_axis(v):
            # the entry of the axis in 2 times the other direction
            axis, w = (u, v) if _is_axis(u) else (v, u)
            return 2.0 * w[:, axis]
        return self._bilinear(lambda w: 2.0 * w, xi, u, v)


class BmEndpoint(Linear):
    """Path value at t=1 of a Karhunen-Loeve model: a linear functional."""

    def __init__(self, model):
        from .model import endpoint_weights

        super().__init__(endpoint_weights(model), name="bm_endpoint")
        self.model = model


class RadialClamp(Functional):
    """Lipschitz radial cutoff: 1 for ``|xi| <= m``, 0 for ``|xi| >= 2m``.

    ``clamp_m(xi) = clip(2 - |xi|/m, 0, 1)``; used as the builtin mollified
    truncation sequence in trace diagnostics.
    """

    analytic_gradient = True

    def __init__(self, m: float):
        if m <= 0:
            raise ValueError("clamp radius must be positive")
        self.m = float(m)
        self.name = f"clamp({self.m!r})"

    def _radius(self, xi):
        """``|xi|``, kept under the class, so a chunk takes one for all clamps."""
        return Functional._kept(RadialClamp, "radius", xi, (),
                                lambda: np.sqrt(rowsum(xi * xi)))

    def value(self, xi):
        return np.clip(2.0 - self._radius(xi) / self.m, 0.0, 1.0)

    def _scale(self, xi):
        """The gradient over ``xi``: ``-1/(m |xi|)`` on the ramp, else 0."""
        r = self._radius(xi)
        on_ramp = (r > self.m) & (r < 2.0 * self.m)
        return np.where(on_ramp, -1.0 / (self.m * np.maximum(r, 1e-300)), 0.0)

    def gradient(self, xi):
        return xi * self._scale(xi)[:, None]

    def jvp(self, xi, u):
        # xi . u is kept under the class like the radius: one row sum per
        # direction for all clamps of a chunk
        return self._scale(xi) * Functional._kept(RadialClamp, "dot", xi, (u,),
                                                  lambda: _dot(xi, u))


class SublevelBump(Functional):
    """Ramp supported in a sublevel set of another functional.

    ``phi = clip((c - G)/delta, 0, 1)`` equals 1 on ``{G <= c - delta}`` and
    vanishes on ``{G >= c}``; handy for support checks of surface integrals.
    """

    def __init__(self, G: Functional, c: float, delta: float):
        if delta <= 0:
            raise ValueError("ramp width must be positive")
        self.G = G
        self.c = float(c)
        self.delta = float(delta)
        self.analytic_gradient = G.analytic_gradient
        self.min_dim = G.min_dim
        self.name = f"bump({G.name}<{self.c!r})"

    def value(self, xi):
        return np.clip((self.c - self.G.value(xi)) / self.delta, 0.0, 1.0)

    def gradient(self, xi):
        g = self.G.value(xi)
        on_ramp = (g > self.c - self.delta) & (g < self.c)
        scale = np.where(on_ramp, -1.0 / self.delta, 0.0)
        return self.G.gradient(xi) * scale[:, None]


class Product(Functional):
    """Pointwise product ``f * g`` with product-rule derivatives."""

    def __init__(self, f: Functional, g: Functional, name=None):
        self.f = f
        self.g = g
        self.analytic_gradient = f.analytic_gradient and g.analytic_gradient
        self.min_dim = max(f.min_dim, g.min_dim)
        self.name = name or f"({f.name})*({g.name})"

    def value(self, xi):
        return self.f.value(xi) * self.g.value(xi)

    def gradient(self, xi):
        fv = self.f.value(xi)
        gv = self.g.value(xi)
        return self.f.gradient(xi) * gv[:, None] + self.g.gradient(xi) * fv[:, None]

    def jvp(self, xi, u):
        return self.f.jvp(xi, u) * self.g.value(xi) + self.g.jvp(xi, u) * self.f.value(xi)
