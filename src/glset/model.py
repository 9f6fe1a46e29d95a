"""Truncated Gaussian models in whitened coordinates.

A model is a centered Gaussian measure with diagonal covariance spectrum
``lambda_1, ..., lambda_d`` in a fixed eigenbasis.  All computation happens
in whitened coordinates ``xi``, where the measure is a standard Gaussian on
R^d: the ambient point is ``x = sum_k sqrt(lambda_k) xi_k e_k``, Cameron-
Martin directions have coefficients w.r.t. the basis ``v_k = sqrt(lambda_k)
e_k``, and the evaluation functional ``vhat_k(x) = <x, v_k>/lambda_k``
reduces to the coordinate map ``xi_k``.  Under this convention

* points are float rows of length ``dim`` (a batch is an ``(n, dim)`` array),
* H-vectors are coefficient rows w.r.t. ``{v_k}``; the H-norm is the
  Euclidean norm of the coefficients,
* directional derivatives ``D_k`` are plain partial derivatives in ``xi``.

Sampling is counter-based: chunk ``i`` of a batch is drawn from an
independent Philox substream derived from ``(seed, i)``, so batches are
bit-identical for a given ``(seed, n)`` no matter how chunks are scheduled.
:func:`chunk_layout` and :func:`draw_chunk` are this contract's one definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

# Fixed chunking policy: part of the determinism contract, do not change
# without bumping the package version.
CHUNK_SIZE = 16384

# Holds a row's place within its chunk: a disintegration keeps each chunk's
# sort order in it, 2 bytes per row.
CHUNK_ROW = np.uint16
assert CHUNK_SIZE <= np.iinfo(CHUNK_ROW).max + 1, "a chunk's row index must fit CHUNK_ROW"


@dataclass(frozen=True)
class GaussianModel:
    """Truncation-level-d Gaussian measure with covariance spectrum ``eigenvalues``.

    ``kl_eval_times`` is set for function-space instances whose points can be
    rendered as paths on [0, 1]; it holds the default rendering grid.
    """

    dim: int
    eigenvalues: tuple[float, ...]
    label: str = "model"
    kl_eval_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"model dimension must be positive, got {self.dim}")
        if len(self.eigenvalues) != self.dim:
            raise ValueError("eigenvalue count must equal dim")
        lam = np.asarray(self.eigenvalues, dtype=float)
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
            raise ValueError("eigenvalues must be positive and finite")

    @property
    def spectrum(self) -> np.ndarray:
        return np.asarray(self.eigenvalues, dtype=float)

    def validate_point(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1] != self.dim:
            raise ValueError(f"point has length {xi.shape[-1]}, model dim is {self.dim}")
        return xi


def build_model(spec) -> GaussianModel:
    """Build a model from a descriptor.

    Parameters
    ----------
    spec : tuple | dict
        Either a builtin family ``("iid_gaussian", d)`` / ``("kl_brownian", d)``
        or a dict ``{"spectrum": [...]}`` of positive eigenvalues.

    The ``kl_brownian`` family is the Karhunen-Loeve truncation of Brownian
    motion on [0, 1]: ``lambda_k = 1/((k - 1/2)^2 pi^2)`` with eigenfunctions
    ``e_k(t) = sqrt(2) sin((k - 1/2) pi t)``.  Its full spectrum is summable
    (trace-class covariance); the truncation keeps the first d terms.
    """
    if isinstance(spec, dict) and set(spec) == {"spectrum"}:
        lam = tuple(float(v) for v in spec["spectrum"])
        return GaussianModel(dim=len(lam), eigenvalues=lam, label="explicit")
    if not isinstance(spec, (tuple, list)):
        raise ValueError(f"unrecognized model descriptor: {spec!r}")
    family, d = spec[0], int(spec[1])

    if d <= 0:
        raise ValueError(f"model dimension must be positive, got {d}")
    if family == "iid_gaussian":
        return GaussianModel(dim=d, eigenvalues=(1.0,) * d, label=f"iid_gaussian(d={d})")
    if family == "kl_brownian":
        k = np.arange(1, d + 1)
        lam = 1.0 / (((k - 0.5) ** 2) * np.pi ** 2)
        times = tuple(np.linspace(0.0, 1.0, 65))
        return GaussianModel(dim=d, eigenvalues=tuple(lam),
                             label=f"kl_brownian(d={d})", kl_eval_times=times)
    raise ValueError(f"unknown model family {family!r}")


def chunk_layout(n: int) -> list[tuple[int, int]]:
    """``(chunk_index, size)`` of every chunk of an n-point batch.

    Chunk boundaries fall at multiples of :data:`CHUNK_SIZE`; the last chunk
    may be shorter.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return [(index, min(CHUNK_SIZE, n - start))
            for index, start in enumerate(range(0, n, CHUNK_SIZE))]


def draw_chunk(model: GaussianModel, seed: int, index: int, size: int) -> np.ndarray:
    """The first ``size`` rows of chunk ``index``: a platform-stable Philox
    keyed by the seed and jumped 2^128 steps per chunk index."""
    bitgen = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return np.random.Generator(bitgen.jumped(index)).standard_normal((size, model.dim))


def iter_sample_chunks(model: GaussianModel, n: int,
                       seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(chunk_index, points)`` pairs covering an n-point batch.

    Chunks follow :func:`chunk_layout` and are drawn by :func:`draw_chunk`.
    Points are standard normal rows in whitened coordinates.
    """
    for index, size in chunk_layout(n):
        yield index, draw_chunk(model, seed, index, size)


def sample(model: GaussianModel, n: int, seed: int) -> np.ndarray:
    """The ``(n, dim)`` whitened points of the ``(seed, n)`` stream, bit-identical
    for a given seed and n."""
    return np.concatenate([pts for _, pts in iter_sample_chunks(model, n, seed)], axis=0)


def vhat(model: GaussianModel, k: int, xi: np.ndarray):
    """Evaluate ``vhat_k(x) = <x, v_k>/lambda_k`` at a point or batch.

    In whitened coordinates this is exactly the k-th coordinate (1-based k):
    ``<x, v_k> = lambda_k xi_k``, divided by ``lambda_k``.
    """
    if not 1 <= k <= model.dim:
        raise IndexError(f"basis index {k} out of range 1..{model.dim}")
    xi = model.validate_point(xi)
    if xi.ndim == 1:
        return float(xi[k - 1])
    return xi[:, k - 1]


def render_path(model: GaussianModel, xi: np.ndarray, times=None) -> np.ndarray:
    """Render Karhunen-Loeve points as paths on [0, 1].

    Only meaningful for models with ``kl_eval_times`` (sinusoidal
    eigenfunctions ``e_k(t) = sqrt(2) sin((k - 1/2) pi t)``).
    """
    if model.kl_eval_times is None:
        raise ValueError(f"model {model.label!r} has no path rendering")
    t = np.asarray(model.kl_eval_times if times is None else times, dtype=float)
    xi = model.validate_point(xi)
    k = np.arange(1, model.dim + 1)
    basis = np.sqrt(2.0) * np.sin((k[:, None] - 0.5) * np.pi * t[None, :])  # (d, T)
    coeff = np.atleast_2d(xi) * np.sqrt(model.spectrum)
    paths = coeff @ basis
    return paths[0] if xi.ndim == 1 else paths


def endpoint_weights(model: GaussianModel) -> np.ndarray:
    """Whitened-coordinate weights of the path value at t=1.

    ``B(1) = sum_k sqrt(lambda_k) xi_k e_k(1)`` with
    ``e_k(1) = sqrt(2) (-1)^(k+1)``; the endpoint is the linear functional
    with these weights and variance ``sum_k 2 lambda_k``.
    """
    if model.kl_eval_times is None:
        raise ValueError(f"model {model.label!r} is not a kl_brownian model")
    k = np.arange(1, model.dim + 1)
    signs = np.where(k % 2 == 1, 1.0, -1.0)
    return np.sqrt(model.spectrum) * np.sqrt(2.0) * signs
