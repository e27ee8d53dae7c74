"""Slow, literal versions of results the package computes by a faster path.

The tests check the package against these: each operator rebuilt as a
dense matrix (the FFT path's oracle), and the delta-method ratio of two
paired Monte Carlo means taken from whole per-item arrays (the streamed
moments' oracle).  :func:`write_embeddings` writes the binary embedding
files that the package only reads.
"""

import math
import struct

import numpy as np

from postsamp.autotune import _ratio_from_moments
from postsamp.cfid import _DTYPE_F64, _MAGIC, _as_matrix
from postsamp.linops import MaskOperator
from postsamp.regularizers import _comoments


def dense_dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix F[j, k] = exp(-2 pi i j k / n) / sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    j = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(j, j) / n) / math.sqrt(n)


def dense_matrix(op) -> np.ndarray:
    """The matrix of a :class:`MaskOperator` or a :class:`FourierSubsampler`."""
    if isinstance(op, MaskOperator):
        matrix = np.zeros((op.out_dim, op.dim))
        for row, col in enumerate(op.kept):
            matrix[row, col] = 1.0
        return matrix
    if len(op.shape) == 1:
        f = dense_dft_matrix(op.shape[0])
    else:
        f = np.kron(dense_dft_matrix(op.shape[0]), dense_dft_matrix(op.shape[1]))
    keep = np.zeros(op.grid_size)
    keep[list(op.kept)] = 1.0
    block = f.conj().T @ (keep[:, None] * f)
    if op.coils == 1:
        return block
    return np.kron(np.eye(op.coils), block)


def ratio_with_se(numer_items: np.ndarray, denom_items: np.ndarray) -> tuple[float, float]:
    """Ratio of two Monte Carlo means with a delta-method standard error.

    The items must be paired (same validation set), so the covariance
    term matters and is included.
    """
    a = np.asarray(numer_items, dtype=np.float64)
    b = np.asarray(denom_items, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two paired 1-D arrays with at least 2 items")
    return _ratio_from_moments(*_comoments(np.stack([a, b])))


def write_embeddings(path, matrix: np.ndarray) -> None:
    """``matrix`` as a binary embedding file (the layout :mod:`postsamp.cfid` reads)."""
    matrix = _as_matrix(matrix, "matrix")
    rows, cols = matrix.shape
    header = _MAGIC + struct.pack("<IIB3x", rows, cols, _DTYPE_F64)
    payload = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(payload)
