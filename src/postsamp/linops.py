"""Masking and subsampled-Fourier operators with exact data consistency.

Two desk-scale forward-operator families for ``y = A x``:

* :class:`MaskOperator` keeps a subset of entries (a row-selector ``A``,
  so measurements live in the kept-index space);
* :class:`FourierSubsampler` keeps a subset of unitary-DFT frequencies
  and maps back, i.e. ``A = F^H M^T M F``.  That composite is an
  orthogonal projection acting in the signal space, so its pseudo-inverse
  is itself and ``I - A^+ A`` reduces to ``I - A``.

Both expose ``apply``, ``pinv_apply`` (``A^+ y``) and
``nullspace_project`` (``(I - A^+ A) x``), which is all that the exact
data-consistency replacement

    dc(x_raw, y) = (I - A^+ A) x_raw + A^+ y

needs.  The replacement forces ``A dc = y`` while leaving the nullspace
component of ``x_raw`` untouched; it does nothing about measurement
noise, so it belongs in low-noise settings.

The DFT is ``numpy.fft`` with ``norm="ortho"`` over the grid axes, for
any grid size.  ``dense_dft_matrix`` and each operator's ``dense_matrix``
rebuild the operator as a literal matrix; they are the test oracle for
the FFT path.  Multi-channel signals are handled block-diagonally via a
``coils`` count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MaskOperator",
    "FourierSubsampler",
    "data_consistency",
    "dense_dft_matrix",
    "load_operator",
    "save_mask_file",
    "complex_from_interleaved",
]


# ---------------------------------------------------------------------------
# Unitary DFT matrix: the dense oracle
# ---------------------------------------------------------------------------


def dense_dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix F[j, k] = exp(-2 pi i j k / n) / sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    j = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)


def _check_indices(indices, dim: int, what: str) -> tuple[int, ...]:
    kept = tuple(int(i) for i in indices)
    if not kept:
        raise ValueError(f"{what} must keep at least one index")
    if any(not 0 <= i < dim for i in kept):
        raise ValueError(f"{what} indices must lie in [0, {dim})")
    if any(b <= a for a, b in zip(kept, kept[1:])):
        raise ValueError(f"{what} indices must be strictly increasing")
    return kept


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskOperator:
    """Row selector: keeps the listed entries of a length-``dim`` signal."""

    kept: tuple
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept", _check_indices(self.kept, self.dim, "mask"))

    @property
    def out_dim(self) -> int:
        return len(self.kept)

    def _check_input(self, x: np.ndarray, length: int, what: str) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (length,):
            raise ValueError(f"{what} must have shape ({length},), got {x.shape}")
        return x

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x, self.dim, "x")
        return x[list(self.kept)].copy()

    def pinv_apply(self, y: np.ndarray) -> np.ndarray:
        y = self._check_input(y, self.out_dim, "y")
        out = np.zeros(self.dim, dtype=np.result_type(y.dtype, np.float64))
        out[list(self.kept)] = y
        return out

    def nullspace_project(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x, self.dim, "x")
        out = np.array(x, dtype=np.result_type(x.dtype, np.float64))
        out[list(self.kept)] = 0
        return out

    def dense_matrix(self) -> np.ndarray:
        matrix = np.zeros((self.out_dim, self.dim))
        for row, col in enumerate(self.kept):
            matrix[row, col] = 1.0
        return matrix


@dataclass(frozen=True)
class FourierSubsampler:
    """Keep a subset of unitary-DFT frequencies: A = F^H M^T M F.

    ``shape`` is the 1-D length or 2-D image shape; frequency indices
    address the row-major flattened spectrum.  The operator is an
    orthogonal projection on C^N (block-diagonal over ``coils`` channels),
    so measurements live in the signal space and ``A^+ = A``.
    """

    shape: tuple
    kept: tuple
    coils: int = 1

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in (
            (self.shape,) if np.isscalar(self.shape) else self.shape
        ))
        if len(shape) not in (1, 2) or any(s < 1 for s in shape):
            raise ValueError(f"shape must be a 1-D length or 2-D shape, got {shape}")
        if self.coils < 1:
            raise ValueError(f"coils must be >= 1, got {self.coils}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(
            self, "kept", _check_indices(self.kept, int(np.prod(shape)), "frequency")
        )

    @property
    def grid_size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def dim(self) -> int:
        return self.grid_size * self.coils

    @cached_property
    def _keep_weights(self) -> np.ndarray:
        weights = np.zeros(self.grid_size)
        weights[list(self.kept)] = 1.0
        return weights.reshape(self.shape)

    def _spectrum(self, blocks: np.ndarray, inverse: bool) -> np.ndarray:
        # blocks: (coils, *shape); transform over the grid axes only.
        transform = np.fft.ifftn if inverse else np.fft.fftn
        return transform(blocks, axes=range(1, blocks.ndim), norm="ortho")

    def _check_input(self, x: np.ndarray, what: str) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.dim,):
            raise ValueError(f"{what} must have shape ({self.dim},), got {x.shape}")
        return x

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x, "x")
        blocks = x.reshape((self.coils,) + self.shape)
        spectrum = self._spectrum(blocks, inverse=False) * self._keep_weights
        return self._spectrum(spectrum, inverse=True).reshape(self.dim)

    # A is Hermitian idempotent, so the adjoint and pseudo-inverse are A.
    def pinv_apply(self, y: np.ndarray) -> np.ndarray:
        return self.apply(y)

    def nullspace_project(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x, "x")
        return x - self.apply(x)

    def dense_matrix(self) -> np.ndarray:
        if len(self.shape) == 1:
            f = dense_dft_matrix(self.shape[0])
        else:
            f = np.kron(dense_dft_matrix(self.shape[0]), dense_dft_matrix(self.shape[1]))
        keep = np.zeros(self.grid_size)
        keep[list(self.kept)] = 1.0
        block = f.conj().T @ (keep[:, None] * f)
        if self.coils == 1:
            return block
        return np.kron(np.eye(self.coils), block)


def data_consistency(operator, x_raw: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Replace the measured component of ``x_raw`` so that ``A result = y``."""
    return operator.nullspace_project(x_raw) + operator.pinv_apply(y)


# ---------------------------------------------------------------------------
# Interleaved real/imaginary input for the file-facing complex vectors
# ---------------------------------------------------------------------------


def complex_from_interleaved(values: np.ndarray) -> np.ndarray:
    """Complex vector from alternating real/imaginary parts, each kept as given.

    A view of a copy, since ``re + 1j*im`` turns a ``-0.0`` real part into ``0.0``
    and spreads a NaN imaginary part into the real part.
    """
    if np.iscomplexobj(values):
        raise ValueError("interleaved vector must be real, one part per value")
    values = np.array(values, dtype=np.float64)
    if values.ndim != 1 or values.size % 2 != 0:
        raise ValueError("interleaved vector must be 1-D with even length")
    return values.view(np.complex128)


# ---------------------------------------------------------------------------
# Mask files: "N=<dim>" (pixel mask) or "DIMS=<h>x<w>" / "DIMS=<n>" (Fourier)
# followed by one kept index per line.
# ---------------------------------------------------------------------------


def save_mask_file(path, operator) -> None:
    if isinstance(operator, MaskOperator):
        header = f"N={operator.dim}"
    elif isinstance(operator, FourierSubsampler):
        header = "DIMS=" + "x".join(str(s) for s in operator.shape)
    else:
        raise TypeError(f"unsupported operator type {type(operator).__name__}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for index in operator.kept:
            handle.write(f"{index}\n")


def load_operator(path, coils: int = 1):
    """Load a MaskOperator or FourierSubsampler from a mask file."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty mask file")
    header = lines[0]
    indices = [int(line) for line in lines[1:]]
    if header.startswith("N="):
        if coils != 1:
            raise ValueError("coils only apply to Fourier operators")
        return MaskOperator(tuple(indices), int(header[2:]))
    if header.startswith("DIMS="):
        shape = tuple(int(part) for part in header[5:].split("x"))
        return FourierSubsampler(shape, tuple(indices), coils=coils)
    raise ValueError(f"{path}: expected 'N=<dim>' or 'DIMS=<h>x<w>' header, got {header!r}")
