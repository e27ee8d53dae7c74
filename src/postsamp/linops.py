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
any grid size; the tests check it against the operators rebuilt as dense
matrices.  Multi-channel signals are handled block-diagonally via a
``coils`` count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MaskOperator",
    "FourierSubsampler",
    "data_consistency",
    "load_operator",
]


class _BadIndex(ValueError):
    """An index check that the index at ``position`` of the list failed, or
    the list as a whole when ``position`` is None."""

    def __init__(self, message: str, position: int | None):
        super().__init__(message)
        self.position = position


class _BadShape(ValueError):
    """The size check of either operator (a mask file's header)."""


def _check_indices(indices, dim: int, what: str) -> tuple[int, ...]:
    kept = tuple(int(i) for i in indices)
    if not kept:
        raise _BadIndex(f"{what} must keep at least one index", None)
    outside = (k for k, i in enumerate(kept) if not 0 <= i < dim)
    unsorted = (k for k in range(1, len(kept)) if kept[k] <= kept[k - 1])
    for failed, rule in ((outside, f"lie in [0, {dim})"), (unsorted, "be strictly increasing")):
        position = next(failed, None)
        if position is not None:
            raise _BadIndex(f"{what} indices must {rule}", position)
    return kept


def _check_vector(x, length: int, what: str, dtype=None) -> np.ndarray:
    x = np.asarray(x, dtype=dtype)
    if x.shape != (length,):
        raise ValueError(f"{what} must have shape ({length},), got {x.shape}")
    return x


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskOperator:
    """Row selector: keeps the listed entries of a length-``dim`` signal."""

    kept: tuple
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise _BadShape(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "kept", _check_indices(self.kept, self.dim, "mask"))

    @property
    def out_dim(self) -> int:
        return len(self.kept)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_vector(x, self.dim, "x")
        return x[list(self.kept)].copy()

    def pinv_apply(self, y: np.ndarray) -> np.ndarray:
        y = _check_vector(y, self.out_dim, "y")
        out = np.zeros(self.dim, dtype=np.result_type(y.dtype, np.float64))
        out[list(self.kept)] = y
        return out

    def nullspace_project(self, x: np.ndarray) -> np.ndarray:
        x = _check_vector(x, self.dim, "x")
        out = np.array(x, dtype=np.result_type(x.dtype, np.float64))
        out[list(self.kept)] = 0
        return out


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
            raise _BadShape(f"shape must be a 1-D length or 2-D shape, got {shape}")
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_vector(x, self.dim, "x", np.complex128)
        # (coils, *shape) blocks, transformed over the grid axes only.
        axes = range(1, len(self.shape) + 1)
        spectrum = np.fft.fftn(x.reshape((self.coils,) + self.shape), axes=axes, norm="ortho")
        spectrum *= self._keep_weights
        return np.fft.ifftn(spectrum, axes=axes, norm="ortho").reshape(self.dim)

    # A is Hermitian idempotent, so the adjoint and pseudo-inverse are A.
    def pinv_apply(self, y: np.ndarray) -> np.ndarray:
        return self.apply(_check_vector(y, self.dim, "y", np.complex128))

    def nullspace_project(self, x: np.ndarray) -> np.ndarray:
        x = _check_vector(x, self.dim, "x", np.complex128)
        return x - self.apply(x)


def data_consistency(operator, x_raw: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Replace the measured component of ``x_raw`` so that ``A result = y``."""
    return operator.nullspace_project(x_raw) + operator.pinv_apply(y)


# ---------------------------------------------------------------------------
# Mask files: "N=<dim>" (pixel mask) or "DIMS=<h>x<w>" / "DIMS=<n>" (Fourier)
# followed by one kept index per line.
# ---------------------------------------------------------------------------


def load_operator(path, coils: int = 1):
    """Load a MaskOperator or FourierSubsampler from a mask file.

    An error in the header or in an index names the file and that line, and
    an empty index list names the file.  The ``coils`` checks name neither:
    ``coils`` is not read from the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        # (line number, stripped text) of each nonblank line
        lines = ((n, line) for n, line in enumerate(map(str.strip, handle), 1) if line)
        number, header = next(lines, (0, ""))
        header_number = number
        if not header:
            raise ValueError(f"{path}: empty mask file")
        indices, numbers = [], []  # each index and the line it is on
        try:
            kind, _, text = header.partition("=")
            if kind not in ("N", "DIMS"):
                raise ValueError(f"expected 'N=<dim>' or 'DIMS=<h>x<w>' header, got {header!r}")
            size = int(text) if kind == "N" else tuple(int(part) for part in text.split("x"))
            for number, line in lines:
                indices.append(int(line))
                numbers.append(number)
        except UnicodeDecodeError:  # not a fault of one line's text
            raise
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    try:
        if kind == "DIMS":
            return FourierSubsampler(size, tuple(indices), coils=coils)
        if coils != 1:
            raise ValueError("coils only apply to Fourier operators")
        return MaskOperator(tuple(indices), size)
    except _BadShape as exc:
        raise ValueError(f"{path}: line {header_number}: {exc}") from None
    except _BadIndex as exc:
        if exc.position is None:
            raise ValueError(f"{path}: {exc}") from None
        raise ValueError(f"{path}: line {numbers[exc.position]}: {exc}") from None
