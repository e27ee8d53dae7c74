"""Diagonal-Gaussian toy posteriors and the matching affine generator.

The analytic substrate for everything else in this package: the true
posterior of each measurement context is an elementwise Gaussian
``N(mu0, diag(sigma0^2))``, and the generator is the affine map
``x_hat = mu + sigma * z`` with ``z ~ N(0, I)``, so its samples are
``N(mu, diag(sigma^2))``.  Both distributions are fully described by a
mean vector and a per-dimension spread, which is what makes every loss
in :mod:`postsamp.regularizers` available in closed form.

``sigma = 0`` is legal everywhere and encodes a collapsed generator that
ignores its code vector.

Both samplers are the same affine draw, :func:`affine_normals`, with
different parameters.  Code that scores a sampler therefore takes a
:class:`GeneratorParams`; the true posterior of a context is scored as
``GeneratorParams(*post.context_params(context))``.

Memory model: :func:`sample_posterior` and :func:`sample_generator` return
whole ``(n, dim)`` batches; nothing in the package calls them.  The Monte
Carlo engine of :mod:`postsamp.regularizers` draws every truth and code
with :func:`affine_normals` on reused blocks of about 1 MiB, so its
memory does not grow with the draw count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import SeededStream

__all__ = [
    "ToyPosterior",
    "GeneratorParams",
    "SampleBatch",
    "sample_posterior",
    "sample_generator",
]

# Values per row of the tiled parameters in :func:`affine_normals`.
_ROW = 1 << 10


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must have at least one element")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class ToyPosterior:
    """Per-context true posterior parameters.

    ``mu0`` and ``sigma0`` are ``(n_contexts, dim)`` arrays; row ``c``
    holds the parameters of context ``c``.  All spreads must be strictly
    positive (use a tiny value such as 1e-12 for an effectively
    deterministic posterior).
    """

    mu0: np.ndarray
    sigma0: np.ndarray

    def __post_init__(self) -> None:
        mu0 = np.atleast_2d(np.asarray(self.mu0, dtype=np.float64))
        sigma0 = np.atleast_2d(np.asarray(self.sigma0, dtype=np.float64))
        if mu0.shape != sigma0.shape:
            raise ValueError(
                f"mu0 and sigma0 shapes differ: {mu0.shape} vs {sigma0.shape}"
            )
        if mu0.ndim != 2 or mu0.shape[1] < 1:
            raise ValueError(f"expected (n_contexts, dim) arrays, got {mu0.shape}")
        if not (np.all(np.isfinite(mu0)) and np.all(np.isfinite(sigma0))):
            raise ValueError("posterior parameters must be finite")
        if not np.all(sigma0 > 0):
            raise ValueError("all sigma0 entries must be > 0")
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "sigma0", sigma0)

    @classmethod
    def single(cls, mu0, sigma0) -> "ToyPosterior":
        """One-context posterior from vectors (or scalars)."""
        return cls(_as_vector(mu0, "mu0")[None, :], _as_vector(sigma0, "sigma0")[None, :])

    @property
    def n_contexts(self) -> int:
        return self.mu0.shape[0]

    @property
    def dim(self) -> int:
        return self.mu0.shape[1]

    def context_params(self, context: int) -> tuple[np.ndarray, np.ndarray]:
        """(mu0, sigma0) vectors of one context; raises on a bad index."""
        if not 0 <= context < self.n_contexts:
            raise IndexError(
                f"context {context} out of range [0, {self.n_contexts})"
            )
        return self.mu0[context], self.sigma0[context]


@dataclass(frozen=True)
class GeneratorParams:
    """Mean and per-dimension spread of the affine generator.

    ``sigma`` is elementwise nonnegative; zeros encode mode collapse.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        mu = _as_vector(self.mu, "mu")
        sigma = _as_vector(self.sigma, "sigma")
        if mu.shape != sigma.shape:
            raise ValueError(f"mu and sigma shapes differ: {mu.shape} vs {sigma.shape}")
        if np.any(sigma < 0):
            raise ValueError("sigma must be elementwise >= 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class SampleBatch:
    """A finite ``(n, dim)`` matrix of draws."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError(f"values must be an (n, dim) matrix with n >= 1, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _scale_shift(values: np.ndarray, mu, sigma) -> None:
    np.multiply(values, sigma, out=values)
    np.add(values, mu, out=values)


def affine_normals(
    g: np.random.Generator, mu: np.ndarray, sigma: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with ``mu + sigma * z``, ``z`` standard normal, in place.

    ``mu`` and ``sigma`` broadcast over the last axis of ``out``.  The draws
    are the next ``out.size`` variates of ``g``, and the result equals the
    out-of-place expression bit for bit (IEEE products and sums commute),
    without its two temporaries of ``out``'s size.
    """
    g.standard_normal(out=out)
    dim = out.shape[-1]
    reps = _ROW // dim
    if dim == 1 or reps < 2 or not out.flags.c_contiguous:
        _scale_shift(out, mu, sigma)
        return out
    # numpy's broadcast over a short last axis runs one short inner loop per
    # row; rows of about _ROW values with the parameters tiled to that width
    # cost the same at any dimension.  The ragged tail takes the broadcast.
    flat, width = out.reshape(-1), reps * dim
    head = flat.size - flat.size % width
    tiled = (np.broadcast_to(p, (reps, dim)).ravel() for p in (mu, sigma))
    _scale_shift(flat[:head].reshape(-1, width), *tiled)
    _scale_shift(flat[head:].reshape(-1, dim), mu, sigma)
    return out


def sample_posterior(
    post: ToyPosterior, context: int, n: int, stream: SeededStream
) -> SampleBatch:
    """Draw ``n`` i.i.d. rows from the true posterior of one context."""
    return sample_generator(GeneratorParams(*post.context_params(context)), n, stream)


def sample_generator(
    params: GeneratorParams, n: int, stream: SeededStream
) -> SampleBatch:
    """Draw ``n`` i.i.d. rows from the affine generator."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = affine_normals(
        stream.generator(), params.mu, params.sigma, np.empty((int(n), params.dim))
    )
    return SampleBatch(values)
